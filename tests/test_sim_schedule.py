"""Property tests for the DMA transfer scheduler.

The guarantees the module docstring of :mod:`repro.sim.simulator`
claims for the load-window policy, checked over random graphs, random
allocations, and fused models:

* conservation — scheduled bytes equal the allocation's demand bytes
  exactly;
* capacity — per channel, streams never overlap and never move bytes
  faster than the interface bandwidth;
* monotonicity — the scheduled makespan never exceeds the analytic
  Eq.-1 total for the same allocation.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir.tensor import TensorKind
from repro.lcmm.fusion import apply_fusion, find_fusion_candidates
from repro.perf.latency import LatencyModel
from repro.sim import demand_bytes, simulate

from tests.conftest import small_accel
from tests.test_properties import random_dags

_KIND_NAMES = {
    TensorKind.IFMAP: "if",
    TensorKind.WEIGHT: "wt",
    TensorKind.OFMAP: "of",
}


@st.composite
def models_with_allocations(draw):
    """A random latency model plus a random (onchip, fractions) pair."""
    graph = draw(random_dags())
    efficiency = draw(st.sampled_from([0.1, 0.3, 1.0]))
    model = LatencyModel(graph, small_accel(ddr_efficiency=efficiency))
    tensors = sorted(
        {slot.tensor for name in model.nodes() for slot in model.layer(name).slots}
    )
    onchip = frozenset(
        t for t in tensors if draw(st.booleans())
    )
    fractions = {
        t: draw(st.sampled_from([0.25, 0.5, 0.75]))
        for t in tensors
        if t not in onchip and draw(st.integers(0, 3)) == 0
    }
    return model, onchip, fractions


class TestSchedulerProperties:
    @given(models_with_allocations())
    @settings(max_examples=30, deadline=None)
    def test_conserves_demand_bytes(self, case):
        model, onchip, fractions = case
        timeline = simulate(
            model, onchip, fractions=fractions, overlap_loads=True
        )
        assert timeline.total_bytes == demand_bytes(
            model, onchip, fractions=fractions
        )

    @given(models_with_allocations())
    @settings(max_examples=30, deadline=None)
    def test_channels_never_overlap_or_exceed_bandwidth(self, case):
        model, onchip, fractions = case
        timeline = simulate(
            model, onchip, fractions=fractions, overlap_loads=True
        )
        for kind, short in _KIND_NAMES.items():
            bandwidth = model.accel.interface_bandwidth(short)
            prev_end = 0.0
            for record in timeline.channel_records(kind):
                assert record.start >= prev_end - 1e-15
                assert record.bytes <= record.duration * bandwidth * (1 + 1e-9)
                prev_end = record.end

    @given(models_with_allocations())
    @settings(max_examples=30, deadline=None)
    def test_makespan_monotone_vs_eq1(self, case):
        model, onchip, fractions = case
        timeline = simulate(
            model, onchip, fractions=fractions, overlap_loads=True
        )
        baseline = model.total_latency(onchip, fractions=fractions)
        assert timeline.baseline == baseline
        assert timeline.makespan <= baseline + 1e-12

    @given(models_with_allocations())
    @settings(max_examples=30, deadline=None)
    def test_node_spans_cover_makespan(self, case):
        model, onchip, fractions = case
        timeline = simulate(
            model, onchip, fractions=fractions, overlap_loads=True
        )
        spans = timeline.node_spans
        assert set(spans) == set(model.nodes())
        assert timeline.makespan == pytest.approx(
            max(end for _, end in spans.values())
        )
        for start, end in spans.values():
            assert end >= start >= 0.0

    @given(random_dags())
    @settings(max_examples=20, deadline=None)
    def test_fused_models_keep_all_properties(self, graph):
        """The scheduler's guarantees survive fusion's zeroed slots."""
        model = LatencyModel(graph, small_accel(ddr_efficiency=0.2))
        edges = find_fusion_candidates(model)
        if not edges:
            return
        fused = apply_fusion(model, edges)
        timeline = simulate(fused, overlap_loads=True)
        assert timeline.total_bytes == demand_bytes(fused)
        assert timeline.total_bytes <= demand_bytes(model)
        assert timeline.makespan <= fused.total_latency() + 1e-12
