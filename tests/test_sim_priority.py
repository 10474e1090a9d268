"""Tests for the simulator's demand-over-prefetch channel arbitration."""

import pytest

from repro.ir.tensor import TensorKind
from repro.lcmm.framework import run_lcmm
from repro.perf.latency import LatencyModel
from repro.sim import EventKind, simulate

from tests.conftest import build_chain, small_accel


@pytest.fixture(scope="module")
def lcmm_setup():
    graph = build_chain(num_convs=8, channels=128, hw=14)
    accel = small_accel(ddr_efficiency=0.05)
    model = LatencyModel(graph, accel)
    lcmm = run_lcmm(graph, accel, model=model)
    return model, lcmm


class TestDemandPriority:
    def test_demand_streams_start_at_node_start(self, lcmm_setup):
        """Demand transfers are never queued behind prefetches: every wt
        TRANSFER event begins exactly when its node begins."""
        model, lcmm = lcmm_setup
        sim = simulate(model, lcmm.onchip_tensors, prefetch=lcmm.prefetch_result)
        for event in sim.events:
            if event.kind is EventKind.TRANSFER and event.detail == "wt":
                assert event.time == pytest.approx(sim.node_spans[event.node][0])

    def test_prefetch_ends_no_earlier_than_idle_allows(self, lcmm_setup):
        """A prefetch can only consume idle channel time, so it never
        completes before issue + load_time."""
        model, lcmm = lcmm_setup
        sim = simulate(model, lcmm.onchip_tensors, prefetch=lcmm.prefetch_result)
        starts = {
            e.node: e.time for e in sim.events if e.kind is EventKind.PREFETCH_START
        }
        loads = {
            node: edge.load_time
            for node, edge in lcmm.prefetch_result.edges.items()
        }
        for e in sim.events:
            if e.kind is EventKind.PREFETCH_END:
                assert e.time >= starts[e.node] + loads[e.node] - 1e-12

    def test_channel_busy_never_exceeds_makespan(self, lcmm_setup):
        model, lcmm = lcmm_setup
        sim = simulate(model, lcmm.onchip_tensors, prefetch=lcmm.prefetch_result)
        for kind in ("if", "wt", "of"):
            assert sim.channel_busy[kind] <= sim.makespan + 1e-12

    def test_wt_busy_accounts_demand_plus_completed_prefetches(self, lcmm_setup):
        model, lcmm = lcmm_setup
        sim = simulate(model, lcmm.onchip_tensors, prefetch=lcmm.prefetch_result)
        demand = sum(
            model.layer(n).slot_latency(TensorKind.WEIGHT, lcmm.onchip_tensors)
            for n in model.nodes()
        )
        completed = sum(
            lcmm.prefetch_result.edges[e.node].load_time
            for e in sim.events
            if e.kind is EventKind.PREFETCH_END
        )
        assert sim.channel_busy["wt"] == pytest.approx(demand + completed, rel=0.01)

    def test_stalls_only_for_unfinished_prefetches(self, lcmm_setup):
        model, lcmm = lcmm_setup
        sim = simulate(model, lcmm.onchip_tensors, prefetch=lcmm.prefetch_result)
        stalled_nodes = {
            e.node for e in sim.events if e.kind is EventKind.STALL
        }
        prefetched = {
            node
            for node in lcmm.prefetch_result.edges
            if f"w:{node}" in lcmm.onchip_tensors
        }
        assert stalled_nodes <= prefetched


class TestHeavyPrefetchScenario:
    def test_giant_prefetch_does_not_delay_demand(self):
        """A huge FC prefetch in flight must not push back the demand
        weight tiles of intervening conv layers (the AlexNet pathology
        the FIFO model suffered from)."""
        from repro.ir.layer import FullyConnected
        from repro.ir.graph import ComputationGraph
        from repro.ir.layer import InputLayer
        from repro.ir.tensor import FeatureMapShape
        from repro.models.common import conv, global_avg_pool

        g = ComputationGraph(name="fcheavy")
        g.add(InputLayer(name="data", shape=FeatureMapShape(64, 28, 28)))
        src = "data"
        for i in range(1, 6):
            src = conv(g, f"c{i}", src, 128, 3)
        src = global_avg_pool(g, "gap", src)
        g.add(FullyConnected(name="fc", inputs=(src,), out_features=4096))
        g.validate()

        accel = small_accel(ddr_efficiency=0.05)
        model = LatencyModel(g, accel)
        lcmm = run_lcmm(g, accel, model=model)
        sim = simulate(model, lcmm.onchip_tensors, prefetch=lcmm.prefetch_result)
        for event in sim.events:
            if event.kind is EventKind.TRANSFER and event.detail == "wt":
                assert event.time == pytest.approx(sim.node_spans[event.node][0])
