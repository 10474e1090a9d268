"""Tests for the tile-granularity oracle in :mod:`tests.oracles`."""

import pytest

from repro.analysis.experiments import reference_design
from repro.hw.precision import INT8
from repro.lcmm.framework import run_lcmm
from repro.models import get_model
from repro.perf.latency import LatencyModel
from tests.conftest import build_chain, small_accel
from tests.oracles import network_tile_latency, simulate_tiles


@pytest.fixture(scope="module")
def chain_model():
    return LatencyModel(
        build_chain(num_convs=6, channels=128, hw=28),
        small_accel(ddr_efficiency=0.3),
    )


class TestSingleLayer:
    def test_iteration_count(self, chain_model):
        # 128 channels / tm=16 -> 8; 28x28 / 14x14 -> 4 spatial tiles.
        result = simulate_tiles(chain_model, "c2")
        assert result.iterations == 8 * 2 * 2

    def test_close_to_bulk_model(self, chain_model):
        """The tile pipeline converges to the bulk Eq. 1 max as the
        pipeline fill amortises over many iterations."""
        result = simulate_tiles(chain_model, "c2")
        assert result.total_latency == pytest.approx(
            result.bulk_latency, rel=0.15
        )

    def test_never_faster_than_bulk(self, chain_model):
        # The bulk model assumes perfect overlap from cycle zero; the
        # pipeline adds fill/drain, so it can only be slower.
        for node in chain_model.nodes():
            if node.startswith("c"):
                result = simulate_tiles(chain_model, node)
                assert result.total_latency >= result.bulk_latency * 0.999

    def test_pipeline_fill_is_first_load(self, chain_model):
        result = simulate_tiles(chain_model, "c2")
        assert result.pipeline_fill > 0
        assert result.pipeline_fill < result.total_latency

    def test_onchip_input_removes_load(self, chain_model):
        off = simulate_tiles(chain_model, "c2")
        on = simulate_tiles(chain_model, "c2", frozenset({"f:c1"}))
        assert on.total_latency < off.total_latency

    def test_non_conv_rejected(self):
        graph = get_model("googlenet")
        model = LatencyModel(graph, small_accel())
        with pytest.raises(ValueError, match="no tile-level schedule"):
            simulate_tiles(model, "pool1/3x3_s2")


class TestNetworkLevel:
    def test_all_convs_simulated(self, chain_model):
        # Every conv runs at tile granularity; the rest keep bulk latency.
        convs = {f"c{i}" for i in range(1, 7)}
        assert convs <= set(chain_model.nodes())
        expected = sum(
            simulate_tiles(chain_model, node).total_latency
            if node in convs
            else chain_model.node_latency(node)
            for node in chain_model.nodes()
        )
        assert network_tile_latency(chain_model) == expected

    def test_network_latency_close_to_bulk(self, chain_model):
        tile_total = network_tile_latency(chain_model)
        bulk_total = chain_model.umm_latency()
        assert tile_total == pytest.approx(bulk_total, rel=0.15)
        assert tile_total >= bulk_total * 0.999

    def test_reference_design_agreement(self):
        """On the real benchmark configuration the tile-level and bulk
        models agree within 10% — the from-first-principles check."""
        graph = get_model("googlenet")
        accel = reference_design("googlenet", INT8, "umm")
        model = LatencyModel(graph, accel)
        tile_total = network_tile_latency(model)
        assert tile_total == pytest.approx(model.umm_latency(), rel=0.10)

    def test_lcmm_allocation_respected(self):
        graph = get_model("googlenet")
        accel = reference_design("googlenet", INT8, "lcmm")
        model = LatencyModel(graph, accel)
        lcmm = run_lcmm(graph, accel, model=model)
        umm_tiles = network_tile_latency(model)
        lcmm_tiles = network_tile_latency(model, lcmm.onchip_tensors)
        assert lcmm_tiles < umm_tiles
