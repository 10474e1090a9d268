"""Property-based tests for the extension modules.

Random-input invariants for the allocators (capacity, monotonicity),
serialization (round-trip identity), the double-buffer baseline
(linearity detection) and schedule reordering (dependency preservation).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.sram import URAM_BYTES
from repro.io import graph_from_dict, graph_to_dict
from repro.lcmm.buffers import CandidateTensor, TensorClass, VirtualBuffer
from repro.lcmm.dnnk import dnnk_allocate, greedy_allocate
from repro.lcmm.double_buffer import is_linear
from repro.lcmm.feature_reuse import feature_reuse_pass
from repro.lcmm.liveness import LiveRange
from repro.lcmm.prefetch import weight_prefetch_pass
from repro.lcmm.reorder import reorder_depth_first
from repro.lcmm.splitting import combine_buffers
from repro.perf.latency import LatencyModel

from tests.conftest import small_accel
from tests.oracles import branch_and_bound_allocate, exhaustive_allocate
from tests.test_properties import random_dags


def buffers_for(graph, efficiency: float = 0.05):
    model = LatencyModel(graph, small_accel(ddr_efficiency=efficiency))
    feature = feature_reuse_pass(graph, model)
    prefetch = weight_prefetch_pass(graph, model)
    return model, combine_buffers([feature.buffers, prefetch.buffers])


class TestAllocatorProperties:
    @given(random_dags(), st.integers(min_value=0, max_value=12))
    @settings(max_examples=20, deadline=None)
    def test_dnnk_capacity_and_improvement(self, graph, blocks):
        model, buffers = buffers_for(graph)
        capacity = blocks * URAM_BYTES
        result = dnnk_allocate(buffers, model, capacity)
        used_blocks = sum(
            math.ceil(b.size_bytes / URAM_BYTES) for b in result.allocated
        )
        assert used_blocks * URAM_BYTES <= capacity
        assert model.total_latency(result.onchip_tensors) <= model.umm_latency() + 1e-15

    @given(random_dags(), st.integers(min_value=0, max_value=8))
    @settings(max_examples=12, deadline=None)
    def test_dnnk_matches_exhaustive_within_tolerance(self, graph, blocks):
        model, buffers = buffers_for(graph)
        if len(buffers) > 16:
            return
        capacity = blocks * URAM_BYTES
        dp = dnnk_allocate(buffers, model, capacity)
        opt = exhaustive_allocate(buffers, model, capacity)
        baseline = model.umm_latency()
        dp_gain = baseline - model.total_latency(dp.onchip_tensors)
        opt_gain = baseline - model.total_latency(opt.onchip_tensors)
        assert dp_gain >= 0.85 * opt_gain - 1e-12

    @given(random_dags(), st.integers(min_value=0, max_value=8))
    @settings(max_examples=10, deadline=None)
    def test_branch_and_bound_optimal(self, graph, blocks):
        model, buffers = buffers_for(graph)
        if len(buffers) > 14:
            return
        capacity = blocks * URAM_BYTES
        bb = branch_and_bound_allocate(buffers, model, capacity)
        opt = exhaustive_allocate(buffers, model, capacity)
        assert model.total_latency(bb.onchip_tensors) == pytest.approx(
            model.total_latency(opt.onchip_tensors)
        )

    @given(random_dags())
    @settings(max_examples=15, deadline=None)
    def test_greedy_respects_capacity(self, graph):
        model, buffers = buffers_for(graph)
        capacity = 3 * URAM_BYTES
        result = greedy_allocate(buffers, model, capacity)
        used = sum(
            math.ceil(b.size_bytes / URAM_BYTES) * URAM_BYTES
            for b in result.allocated
        )
        assert used <= capacity


class TestSerializationProperties:
    @given(random_dags())
    @settings(max_examples=30, deadline=None)
    def test_round_trip_identity(self, graph):
        restored = graph_from_dict(graph_to_dict(graph))
        assert restored.schedule() == graph.schedule()
        assert restored.total_macs() == graph.total_macs()
        for name in graph.schedule():
            assert restored.output_shape(name) == graph.output_shape(name)
            assert restored.predecessors(name) == graph.predecessors(name)


class TestReorderProperties:
    @given(random_dags())
    @settings(max_examples=30, deadline=None)
    def test_reorder_is_valid_topological_order(self, graph):
        reordered = reorder_depth_first(graph)
        position = {n: i for i, n in enumerate(reordered.schedule())}
        assert set(position) == set(graph.schedule())
        for name in reordered.schedule():
            for src in reordered.predecessors(name):
                assert position[src] < position[name]

    @given(random_dags())
    @settings(max_examples=30, deadline=None)
    def test_reorder_preserves_linearity_class(self, graph):
        # Reordering never turns a non-linear graph linear or vice versa —
        # linearity depends only on the edge structure for chains.
        before = is_linear(graph)
        after = is_linear(reorder_depth_first(graph))
        if before:
            assert after
