"""Tests for repro.sim — the event-driven simulator."""

import dataclasses

import pytest

from repro.errors import AllocationError, ConfigError
from repro.lcmm.framework import run_lcmm
from repro.lcmm.prefetch import weight_prefetch_pass
from repro.perf.latency import LatencyModel
from repro.sim import EventKind, simulate

from tests.conftest import build_chain, build_snippet, small_accel


@pytest.fixture
def starved():
    graph = build_chain(num_convs=6, channels=128, hw=14)
    accel = small_accel(ddr_efficiency=0.1)
    return graph, accel, LatencyModel(graph, accel)


class TestUMMSimulation:
    def test_matches_analytical_model_exactly(self, starved):
        _, _, model = starved
        result = simulate(model)
        # Without prefetch traffic, demand streams never contend: the
        # simulated makespan equals the Eq. 1 sum.
        assert result.makespan == pytest.approx(model.umm_latency())

    def test_node_latencies_match(self, starved):
        _, _, model = starved
        result = simulate(model)
        for name in model.nodes():
            assert result.node_latencies()[name] == pytest.approx(
                model.node_latency(name)
            )

    def test_nodes_execute_in_schedule_order(self, starved):
        _, _, model = starved
        result = simulate(model)
        schedule = model.nodes()
        for earlier, later in zip(schedule, schedule[1:]):
            assert result.node_spans[earlier][1] <= result.node_spans[later][0] + 1e-15

    def test_channel_busy_under_makespan(self, starved):
        _, _, model = starved
        result = simulate(model)
        for kind in ("if", "wt", "of"):
            assert 0.0 <= result.channel_utilization(kind) <= 1.0 + 1e-9

    def test_no_stalls_without_prefetch(self, starved):
        _, _, model = starved
        assert simulate(model).stall_time == 0.0


class TestLCMMSimulation:
    def test_simulated_allocation_close_to_analytical(self, starved):
        graph, accel, model = starved
        lcmm = run_lcmm(graph, accel, model=model)
        sim = simulate(model, lcmm.onchip_tensors, prefetch=lcmm.prefetch_result)
        # Contention can make the simulation slower than the analytical
        # estimate, but never faster (beyond float noise), and the two
        # should agree within 25%.
        assert sim.makespan >= lcmm.latency * 0.99
        assert sim.makespan <= lcmm.latency * 1.25

    def test_simulated_lcmm_beats_simulated_umm(self, starved):
        graph, accel, model = starved
        lcmm = run_lcmm(graph, accel, model=model)
        sim_umm = simulate(model)
        sim_lcmm = simulate(
            model, lcmm.onchip_tensors, prefetch=lcmm.prefetch_result
        )
        assert sim_lcmm.makespan < sim_umm.makespan

    def test_prefetch_events_present(self, starved):
        graph, accel, model = starved
        lcmm = run_lcmm(graph, accel, model=model)
        sim = simulate(model, lcmm.onchip_tensors, prefetch=lcmm.prefetch_result)
        onchip_weights = {n for n in lcmm.onchip_tensors if n.startswith("w:")}
        starts = [e for e in sim.events if e.kind is EventKind.PREFETCH_START]
        assert len(starts) == len(onchip_weights)

    def test_no_node_starts_before_its_prefetch_ends(self, starved):
        graph, accel, model = starved
        lcmm = run_lcmm(graph, accel, model=model)
        sim = simulate(model, lcmm.onchip_tensors, prefetch=lcmm.prefetch_result)
        ends = {
            e.node: e.time for e in sim.events if e.kind is EventKind.PREFETCH_END
        }
        for node, ready in ends.items():
            assert sim.node_spans[node][0] >= ready - 1e-12

    def test_events_time_ordered(self, starved):
        graph, accel, model = starved
        lcmm = run_lcmm(graph, accel, model=model)
        sim = simulate(model, lcmm.onchip_tensors, prefetch=lcmm.prefetch_result)
        times = [e.time for e in sim.events]
        assert times == sorted(times)

    def test_event_str_renders(self, starved):
        _, _, model = starved
        sim = simulate(model)
        assert "node_start" in str(sim.events[0]) or "transfer" in str(sim.events[0])


class TestPrefetchInputs:
    def test_onchip_weight_without_edge_rejected(self, starved):
        """A resident weight no PDG edge loads must not load for free."""
        graph, accel, model = starved
        lcmm = run_lcmm(graph, accel, model=model)
        no_edges = dataclasses.replace(lcmm.prefetch_result, edges={})
        with pytest.raises(AllocationError, match="no prefetch edge loads .*w:c3"):
            simulate(model, frozenset({"w:c3"}), prefetch=no_edges)

    def test_prefetch_excludes_residuals_and_load_window(self, starved):
        """Residuals and prefetch model the same unhidden load; the load
        window would claim the idle time prefetches drain into."""
        graph, accel, model = starved
        lcmm = run_lcmm(graph, accel, model=model)
        onchip, prefetch = lcmm.onchip_tensors, lcmm.prefetch_result
        with pytest.raises(ConfigError):
            simulate(model, onchip, lcmm.residuals, prefetch=prefetch)
        with pytest.raises(ConfigError):
            simulate(model, onchip, prefetch=prefetch, overlap_loads=True)


class TestOnchipFeatureSimulation:
    def test_onchip_features_remove_transfers(self):
        from repro.lcmm.feature_reuse import feature_candidates

        graph = build_snippet()
        accel = small_accel(ddr_efficiency=0.05)
        model = LatencyModel(graph, accel)
        candidates = feature_candidates(graph, model)
        assert candidates, "snippet should have beneficial feature tensors"
        best = max(candidates, key=lambda c: c.latency_reduction)
        baseline = simulate(model).makespan
        pinned = simulate(model, frozenset({best.name})).makespan
        assert pinned < baseline
