"""Tests for repro.ir.graph."""

import pytest

from repro.ir.graph import ComputationGraph, GraphValidationError
from repro.ir.layer import Concat, Conv2D, EltwiseAdd, InputLayer
from repro.ir.tensor import FeatureMapShape
from repro.models.common import conv

from tests.conftest import build_chain, build_residual_block, build_snippet


class TestConstruction:
    def test_add_returns_layer(self):
        g = ComputationGraph(name="g")
        layer = g.add(InputLayer(name="data"))
        assert layer.name == "data"
        assert "data" in g
        assert len(g) == 1

    def test_duplicate_name_rejected(self):
        g = ComputationGraph(name="g")
        g.add(InputLayer(name="data"))
        with pytest.raises(GraphValidationError, match="duplicate"):
            g.add(InputLayer(name="data"))

    def test_unknown_input_rejected(self):
        g = ComputationGraph(name="g")
        g.add(InputLayer(name="data"))
        with pytest.raises(GraphValidationError, match="unknown input"):
            g.add(Conv2D(name="c", inputs=("ghost",), out_channels=8))

    def test_shapes_inferred_on_add(self):
        g = build_chain(num_convs=2, channels=32, hw=16)
        assert g.output_shape("c1") == FeatureMapShape(32, 16, 16)
        assert g.output_shape("c2") == FeatureMapShape(32, 16, 16)

    def test_unknown_layer_lookup_raises(self):
        g = build_chain()
        with pytest.raises(KeyError):
            g.layer("nope")


class TestStructureQueries:
    def test_schedule_is_definition_order(self):
        g = build_chain(num_convs=3)
        assert g.schedule() == ["data", "c1", "c2", "c3"]

    def test_compute_schedule_skips_input_and_concat(self):
        g = build_snippet()
        sched = g.compute_schedule()
        assert "data" not in sched
        assert "cat" not in sched
        assert sched == ["C1", "C2", "C3", "C4", "C5", "C6"]

    def test_predecessors_and_successors(self):
        g = build_snippet()
        assert g.predecessors("C2") == ["C1"]
        assert g.successors("C1") == ["C2", "C3"]

    def test_sinks(self):
        g = build_chain(num_convs=2)
        assert g.sinks() == ["c2"]

    def test_conv_layers(self):
        g = build_residual_block()
        assert g.conv_layers() == ["conv1", "conv2", "conv3", "proj"]

    def test_total_macs_positive(self):
        assert build_snippet().total_macs() > 0

    def test_total_weight_bytes_scales(self):
        g = build_chain()
        assert g.total_weight_bytes(2) == 2 * g.total_weight_bytes(1)


class TestFeatureTensors:
    def test_one_tensor_per_consumed_output(self):
        g = build_chain(num_convs=3)
        tensors = {t.name: t for t in g.feature_tensors()}
        # data, c1, c2 are consumed; c3 (the sink) is not.
        assert set(tensors) == {"f:data", "f:c1", "f:c2"}

    def test_concat_is_transparent(self):
        g = build_snippet()
        tensors = {t.name: t for t in g.feature_tensors()}
        assert "f:cat" not in tensors
        # C4 reads the concat, hence consumes both branch outputs.
        assert tensors["f:C2"].consumers == ("C4",)
        assert tensors["f:C3"].consumers == ("C4",)

    def test_multi_consumer_tensor(self):
        g = build_snippet()
        tensors = {t.name: t for t in g.feature_tensors()}
        assert tensors["f:C1"].consumers == ("C2", "C3")

    def test_feature_sources_through_concat(self):
        g = build_snippet()
        assert g.feature_sources("C4") == ["C2", "C3"]
        assert g.feature_sources("C2") == ["C1"]

    def test_residual_shortcut_consumers(self):
        g = build_residual_block()
        tensors = {t.name: t for t in g.feature_tensors()}
        assert tensors["f:data"].consumers == ("conv1", "proj")
        assert tensors["f:conv3"].consumers == ("add",)


class TestConsumerIndex:
    """successors() and feature_tensors() read a lazily built consumer
    index; add() must invalidate it."""

    def test_add_after_query_is_visible(self):
        g = build_chain(num_convs=2)
        assert g.successors("c1") == ["c2"]
        consumers = {t.name: t.consumers for t in g.feature_tensors()}
        assert consumers["f:c1"] == ("c2",)
        assert "f:c2" not in consumers
        conv(g, "c3", "c1", 64, 1)
        conv(g, "c4", "c2", 64, 1)
        assert g.successors("c1") == ["c2", "c3"]
        consumers = {t.name: t.consumers for t in g.feature_tensors()}
        assert consumers["f:c1"] == ("c2", "c3")
        assert consumers["f:c2"] == ("c4",)

    def test_add_after_query_through_concat(self):
        g = build_snippet()
        assert {t.name: t.consumers for t in g.feature_tensors()}["f:C2"] == ("C4",)
        conv(g, "C7", "cat", 32, 1)
        consumers = {t.name: t.consumers for t in g.feature_tensors()}
        assert consumers["f:C2"] == ("C4", "C7")
        assert consumers["f:C3"] == ("C4", "C7")

    def test_repeated_input_listed_once(self):
        g = build_chain(num_convs=1)
        g.add(EltwiseAdd(name="double", inputs=("c1", "c1")))
        conv(g, "c2", "c1", 64, 1)
        assert g.successors("c1") == ["double", "c2"]
        consumers = {t.name: t.consumers for t in g.feature_tensors()}
        assert consumers["f:c1"] == ("double", "c2")

    def test_matches_linear_scan(self):
        g = build_snippet()
        for name in g.schedule():
            scan = [lyr.name for lyr in g.layers() if name in lyr.inputs]
            assert g.successors(name) == scan


class TestWeightTensors:
    def test_one_per_weighted_layer(self):
        g = build_snippet()
        names = [t.name for t in g.weight_tensors()]
        assert names == [f"w:C{i}" for i in range(1, 7)]

    def test_shapes_match_layers(self):
        g = build_chain(num_convs=1, channels=32, hw=8)
        (wt,) = g.weight_tensors()
        assert wt.shape.out_channels == 32
        assert wt.shape.in_channels == 3


class TestBlocks:
    def test_block_tagging(self):
        g = ComputationGraph(name="g")
        g.add(InputLayer(name="data", shape=FeatureMapShape(8, 8, 8)))
        g.begin_block("stage1")
        conv(g, "c1", "data", 8, 3)
        g.end_block()
        conv(g, "c2", "c1", 8, 3)
        assert g.blocks == {"stage1": ["c1"]}
        assert g.block_of("c1") == "stage1"
        assert g.block_of("c2") is None


class TestValidation:
    def test_empty_graph_invalid(self):
        with pytest.raises(GraphValidationError, match="empty"):
            ComputationGraph(name="g").validate()

    def test_no_input_layer_invalid(self):
        g = ComputationGraph(name="g")
        # Bypass add() ordering by constructing a lone conv via internals.
        g.add(InputLayer(name="data"))
        g._layers.pop("data")
        with pytest.raises(GraphValidationError):
            g.validate()

    def test_valid_graphs_pass(self):
        build_chain().validate()
        build_snippet().validate()
        build_residual_block().validate()
