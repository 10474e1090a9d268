"""Tests for repro.lcmm.splitting — misspilling and its fix."""

import pytest

from repro.analysis.reference import model_reference_design
from repro.hw.precision import INT8, INT16
from repro.lcmm import feature_reuse, prefetch, splitting
from repro.lcmm.buffers import CandidateTensor, TensorClass, VirtualBuffer
from repro.lcmm.coloring import color_buffers
from repro.lcmm.dnnk import dnnk_allocate
from repro.lcmm.framework import LCMMOptions, run_lcmm
from repro.lcmm.interference import InterferenceGraph
from repro.lcmm.liveness import LiveRange
from repro.lcmm.passes import standard
from repro.lcmm.splitting import _pick_split, buffer_splitting_pass, combine_buffers
from repro.lcmm.feature_reuse import feature_reuse_pass
from repro.lcmm.prefetch import weight_prefetch_pass
from repro.models.zoo import get_model
from repro.perf.latency import LatencyModel

from tests.conftest import build_chain, small_accel


def make_tensor(name, start, end, size, reduction=1.0):
    return CandidateTensor(
        name=name,
        tensor_class=TensorClass.FEATURE,
        size_bytes=size,
        live_range=LiveRange(start, end),
        affected_nodes=(name,),
        latency_reduction=reduction,
    )


class TestCombine:
    def test_reindexes_sequentially(self):
        a = VirtualBuffer(index=0, tensors=[make_tensor("a", 0, 1, 10)])
        b = VirtualBuffer(index=0, tensors=[make_tensor("b", 0, 1, 10)])
        combined = combine_buffers([[a], [b]])
        assert [buf.index for buf in combined] == [0, 1]
        assert [buf.name for buf in combined] == ["vbuf1", "vbuf2"]

    def test_empty_groups(self):
        assert combine_buffers([[], []]) == []


class TestPickSplit:
    def test_targets_largest_spilled_multi_tensor_buffer(self):
        big = VirtualBuffer(
            index=0,
            tensors=[
                make_tensor("huge", 0, 1, 1000, reduction=0.1),
                make_tensor("precious", 3, 4, 10, reduction=5.0),
            ],
        )
        small = VirtualBuffer(index=1, tensors=[make_tensor("solo", 6, 7, 50)])
        from repro.lcmm.dnnk import DNNKResult

        result = DNNKResult(
            allocated=[],
            spilled=[big, small],
            onchip_tensors=frozenset(),
            predicted_reduction=0.0,
            capacity_bytes=0,
            used_bytes=0,
        )
        buf, a, b = _pick_split(result)
        assert buf is big
        assert a == "huge"
        assert b == "precious"

    def test_no_candidates_returns_none(self):
        from repro.lcmm.dnnk import DNNKResult

        solo = VirtualBuffer(index=0, tensors=[make_tensor("solo", 0, 1, 10)])
        result = DNNKResult(
            allocated=[],
            spilled=[solo],
            onchip_tensors=frozenset(),
            predicted_reduction=0.0,
            capacity_bytes=0,
            used_bytes=0,
        )
        assert _pick_split(result) is None


class TestSplittingPass:
    def test_misspilling_scenario_recovers_small_tensor(self):
        """Construct the paper's misspilling case directly.

        A huge low-value tensor shares a buffer with a tiny high-value
        tensor; the shared buffer exceeds capacity so DNNK spills both.
        Splitting must rescue the tiny tensor.
        """
        model = LatencyModel(
            build_chain(num_convs=6, channels=128, hw=14),
            small_accel(ddr_efficiency=0.05),
        )
        # Real candidates, fabricated sizes to force the misspill.
        feature = feature_reuse_pass(model.graph, model)
        assert len(feature.candidates) >= 2
        ordered = sorted(feature.candidates, key=lambda t: t.live_range.start)
        a, b = ordered[0], ordered[-1]
        assert not a.live_range.overlaps(b.live_range)
        a.size_bytes = 10_000_000  # force the hull buffer over capacity
        b.size_bytes = 1_000
        graph = InterferenceGraph.from_tensors([a, b])
        weight_graph = InterferenceGraph()
        capacity = 100_000

        def evaluate(onchip):
            return model.total_latency(onchip)

        outcome = buffer_splitting_pass(
            graph, weight_graph, model, capacity, evaluate, granularity=1024
        )
        # Without splitting both tensors spill; with it, b fits.
        assert b.name in outcome.result.onchip_tensors
        assert outcome.false_edges >= 1
        assert outcome.iterations >= 1

    def test_no_split_when_everything_fits(self):
        model = LatencyModel(
            build_chain(num_convs=4, channels=64, hw=14),
            small_accel(ddr_efficiency=0.05),
        )
        feature = feature_reuse_pass(model.graph, model)
        prefetch = weight_prefetch_pass(model.graph, model)

        def evaluate(onchip):
            return model.total_latency(onchip)

        outcome = buffer_splitting_pass(
            feature.interference,
            prefetch.interference,
            model,
            10**9,
            evaluate,
        )
        assert outcome.iterations == 0
        assert outcome.false_edges == 0

    def test_latency_never_degrades(self):
        model = LatencyModel(
            build_chain(num_convs=6, channels=128, hw=14),
            small_accel(ddr_efficiency=0.05),
        )
        feature = feature_reuse_pass(model.graph, model)
        prefetch = weight_prefetch_pass(model.graph, model)
        buffers = combine_buffers([feature.buffers, prefetch.buffers])
        base = dnnk_allocate(buffers, model, 5 * 10**5)
        base_latency = model.total_latency(base.onchip_tensors)

        def evaluate(onchip):
            return model.total_latency(onchip)

        outcome = buffer_splitting_pass(
            feature.interference, prefetch.interference, model, 5 * 10**5, evaluate
        )
        assert outcome.latency <= base_latency + 1e-12


class TestRecolouring:
    """A false edge changes one interference graph, so the splitting
    loop recolours only that graph and republishes its own colourings."""

    @pytest.mark.parametrize(
        "model_name, precision",
        [("vgg16", INT16), ("googlenet", INT8)],  # accept + reject; reject
    )
    def test_one_recolour_per_split(self, monkeypatch, model_name, precision):
        calls = []

        def spy(graph):
            calls.append(graph)
            return color_buffers(graph)

        for module in (feature_reuse, prefetch, splitting, standard):
            monkeypatch.setattr(module, "color_buffers", spy, raising=False)

        graphs = []
        real_split = splitting.buffer_splitting_pass

        def split(feature_graph, weight_graph, *args, **kwargs):
            graphs.extend((feature_graph, weight_graph))
            return real_split(feature_graph, weight_graph, *args, **kwargs)

        allocations = []
        real_allocate = splitting.dnnk_allocate

        def allocate(buffers, *args, **kwargs):
            # Each retry allocates what recolouring both graphs gives.
            assert buffers == combine_buffers([color_buffers(g) for g in graphs])
            allocations.append(buffers)
            return real_allocate(buffers, *args, **kwargs)

        monkeypatch.setattr(standard, "buffer_splitting_pass", split)
        monkeypatch.setattr(splitting, "dnnk_allocate", allocate)

        result = run_lcmm(
            get_model(model_name),
            model_reference_design(model_name, precision, "lcmm"),
            options=LCMMOptions(),
            fallback=False,
        )
        attempts = [
            d
            for d in result.diagnostics
            if d.category in ("split-accepted", "split-rejected")
        ]
        assert attempts
        assert len(allocations) == 1 + len(attempts)
        # Two colouring passes, then the loop's two plus one per attempt;
        # the republish colours nothing.
        assert len(calls) == 2 + 2 + len(attempts)
        # The republished buffers colour the graphs in their final state.
        feature, weights = result.feature_result, result.prefetch_result
        assert feature.buffers == color_buffers(feature.interference)
        assert weights.buffers == color_buffers(weights.interference)
