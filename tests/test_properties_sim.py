"""Property-based tests for the simulators.

Random-graph invariants of the two simulators: monotonicity in the
on-chip set, agreement between the simulators and the analytical model,
and basic conservation laws of the event timeline.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.lcmm.feature_reuse import feature_candidates
from repro.perf.latency import LatencyModel
from repro.sim import EventKind, simulate

from tests.conftest import small_accel
from tests.oracles import network_tile_latency
from tests.test_properties import random_dags


class TestSimulatorProperties:
    @given(random_dags(), st.sampled_from([0.05, 0.3]))
    @settings(max_examples=20, deadline=None)
    def test_pinning_never_slows_simulation(self, graph, efficiency):
        model = LatencyModel(graph, small_accel(ddr_efficiency=efficiency))
        baseline = simulate(model).makespan
        candidates = feature_candidates(graph, model)
        if not candidates:
            return
        best = max(candidates, key=lambda c: c.latency_reduction)
        pinned = simulate(model, frozenset({best.name})).makespan
        assert pinned <= baseline + 1e-15

    @given(random_dags())
    @settings(max_examples=20, deadline=None)
    def test_event_conservation(self, graph):
        model = LatencyModel(graph, small_accel(ddr_efficiency=0.2))
        sim = simulate(model)
        starts = [e for e in sim.events if e.kind is EventKind.NODE_START]
        ends = [e for e in sim.events if e.kind is EventKind.NODE_END]
        assert len(starts) == len(ends) == len(model.nodes())
        for name in model.nodes():
            start, end = sim.node_spans[name]
            assert end >= start

    @given(random_dags())
    @settings(max_examples=20, deadline=None)
    def test_makespan_is_last_node_end(self, graph):
        model = LatencyModel(graph, small_accel(ddr_efficiency=0.2))
        sim = simulate(model)
        assert sim.makespan == pytest.approx(
            max(end for _, end in sim.node_spans.values())
        )


class TestTileSimulatorProperties:
    @given(random_dags(), st.sampled_from([0.1, 0.5, 1.0]))
    @settings(max_examples=20, deadline=None)
    def test_tile_pipeline_never_faster_than_bulk(self, graph, efficiency):
        model = LatencyModel(graph, small_accel(ddr_efficiency=efficiency))
        tile_total = network_tile_latency(model)
        assert tile_total >= model.umm_latency() * 0.999

    @given(random_dags())
    @settings(max_examples=15, deadline=None)
    def test_tile_pipeline_within_fill_margin(self, graph):
        """The tile model exceeds the bulk model only by pipeline
        fill/drain: per layer the makespan is load + compute + store +
        (n-1) x period against the bulk n x period-ish, so the ratio is
        bounded by (n+2)/n <= 3 (worst at single-iteration layers)."""
        model = LatencyModel(graph, small_accel(ddr_efficiency=0.3))
        tile_total = network_tile_latency(model)
        assert tile_total <= model.umm_latency() * 3.0 + 1e-12