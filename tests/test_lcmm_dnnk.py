"""Tests for repro.lcmm.dnnk — the knapsack allocator.

The key guarantee: on instances small enough to brute-force, DNNK's
allocation is close to the exhaustive optimum (the pivot-compensated DP is
a heuristic, so we allow a small tolerance, but on independent-buffer
instances it must be exactly optimal).
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.sram import URAM_BYTES
from repro.ir.graph import ComputationGraph
from repro.ir.layer import InputLayer
from repro.ir.tensor import FeatureMapShape
from repro.lcmm import dnnk
from repro.lcmm.buffers import VirtualBuffer
from repro.lcmm.dnnk import dnnk_allocate, greedy_allocate
from repro.lcmm.feature_reuse import feature_reuse_pass
from repro.lcmm.prefetch import weight_prefetch_pass
from repro.lcmm.splitting import combine_buffers
from repro.models.common import conv
from repro.perf.engine import AllocationEngine
from repro.perf.latency import LatencyModel

from tests.conftest import build_chain, build_snippet, small_accel
from tests.oracles import exhaustive_allocate, naive_allocators
from tests.test_perf_engine import random_dags


def make_buffers(model):
    feature = feature_reuse_pass(model.graph, model)
    prefetch = weight_prefetch_pass(model.graph, model)
    return combine_buffers([feature.buffers, prefetch.buffers])


@pytest.fixture
def starved_model():
    return LatencyModel(
        build_chain(num_convs=6, channels=128, hw=14),
        small_accel(ddr_efficiency=0.05),
    )


@pytest.fixture
def snippet_starved():
    return LatencyModel(build_snippet(), small_accel(ddr_efficiency=0.05))


class TestBasicBehaviour:
    def test_zero_capacity_allocates_nothing(self, starved_model):
        buffers = make_buffers(starved_model)
        result = dnnk_allocate(buffers, starved_model, 0)
        assert result.allocated == []
        assert result.onchip_tensors == frozenset()
        assert result.used_bytes == 0

    def test_huge_capacity_allocates_everything_useful(self, starved_model):
        buffers = make_buffers(starved_model)
        result = dnnk_allocate(buffers, starved_model, 10**9)
        # Every buffer with a positive context-free exact gain is taken
        # (second-tier buffers whose gain only materialises behind a
        # partner may legitimately stay off even with room to spare).
        baseline = starved_model.umm_latency()
        for buf in buffers:
            standalone = baseline - starved_model.total_latency(
                frozenset(buf.tensor_names)
            )
            if standalone > 1e-12:
                assert buf in result.allocated
        # And the result must realise at least the gain of pinning
        # absolutely everything minus pair effects.
        everything = frozenset(n for b in buffers for n in b.tensor_names)
        assert starved_model.total_latency(result.onchip_tensors) <= (
            starved_model.total_latency(everything) * 1.05 + 1e-12
        )

    def test_capacity_respected(self, starved_model):
        buffers = make_buffers(starved_model)
        capacity = 2 * URAM_BYTES
        result = dnnk_allocate(buffers, starved_model, capacity)
        assert result.used_bytes <= capacity

    def test_onchip_set_matches_allocated_buffers(self, starved_model):
        buffers = make_buffers(starved_model)
        result = dnnk_allocate(buffers, starved_model, 4 * URAM_BYTES)
        expected = frozenset(
            name for b in result.allocated for name in b.tensor_names
        )
        assert result.onchip_tensors == expected

    def test_allocated_and_spilled_partition(self, starved_model):
        buffers = make_buffers(starved_model)
        result = dnnk_allocate(buffers, starved_model, 4 * URAM_BYTES)
        assert len(result.allocated) + len(result.spilled) == len(buffers)

    def test_allocation_reduces_exact_latency(self, starved_model):
        buffers = make_buffers(starved_model)
        result = dnnk_allocate(buffers, starved_model, 10 * URAM_BYTES)
        if result.allocated:
            assert starved_model.total_latency(result.onchip_tensors) < (
                starved_model.umm_latency()
            )

    def test_invalid_arguments(self, starved_model):
        with pytest.raises(ValueError):
            dnnk_allocate([], starved_model, -1)
        with pytest.raises(ValueError):
            dnnk_allocate([], starved_model, 100, granularity=0)

    def test_empty_buffer_list(self, starved_model):
        result = dnnk_allocate([], starved_model, 10 * URAM_BYTES)
        assert result.allocated == []
        assert result.predicted_reduction == 0.0


class TestVersusExhaustive:
    @pytest.mark.parametrize("capacity_blocks", [1, 2, 4, 8])
    def test_near_optimal_on_snippet(self, snippet_starved, capacity_blocks):
        buffers = make_buffers(snippet_starved)
        assert len(buffers) <= 20
        capacity = capacity_blocks * URAM_BYTES
        # Fine granularity so quantisation does not mask the comparison.
        dp = dnnk_allocate(buffers, snippet_starved, capacity, granularity=1024)
        opt = exhaustive_allocate(buffers, snippet_starved, capacity)
        dp_latency = snippet_starved.total_latency(dp.onchip_tensors)
        opt_latency = snippet_starved.total_latency(opt.onchip_tensors)
        baseline = snippet_starved.umm_latency()
        dp_gain = baseline - dp_latency
        opt_gain = baseline - opt_latency
        assert dp_gain >= 0.9 * opt_gain - 1e-12

    def test_complementary_pair_displaces_resident(self):
        # c3's input f:c0 and output f:c3 are each worthless alone but
        # together beat the DP's pick f:c1.  With two blocks and f:c1
        # resident only one block is free, so pair-add cannot fit them:
        # only a pair exchange that evicts f:c1 reaches the optimum.
        g = ComputationGraph(name="pair")
        g.add(InputLayer(name="data", shape=FeatureMapShape(16, 14, 14)))
        spec = [
            ("data", 16, 1), ("data", 32, 1), ("data", 16, 1), ("c0", 16, 1),
            ("data", 16, 1), ("data", 16, 1), ("data", 16, 1), ("data", 16, 1),
            ("c3", 16, 1), ("c1", 16, 3),
        ]
        for i, (src, channels, kernel) in enumerate(spec):
            conv(g, f"c{i}", src, channels, kernel)
        model = LatencyModel(g, small_accel(ddr_efficiency=0.05))
        buffers = make_buffers(model)
        capacity = 2 * URAM_BYTES
        dp = dnnk_allocate(buffers, model, capacity)
        opt = exhaustive_allocate(buffers, model, capacity)
        assert dp.onchip_tensors == opt.onchip_tensors == {"f:c0", "f:c3"}
        with naive_allocators():
            assert dnnk_allocate(buffers, model, capacity).onchip_tensors == {
                "f:c0",
                "f:c3",
            }

    def test_exhaustive_guard(self, starved_model):
        buffers = make_buffers(starved_model)
        with pytest.raises(ValueError):
            exhaustive_allocate(buffers, starved_model, 10**9, max_buffers=1)


class TestGreedyBaseline:
    def test_greedy_rejects_negative_capacity(self, starved_model):
        # Greedy used to return an empty result reporting the negative
        # capacity; it now fails like DNNK does.
        buffers = make_buffers(starved_model)
        with pytest.raises(ValueError, match="capacity_bytes"):
            greedy_allocate(buffers, starved_model, -1)

    def test_greedy_capacity_respected(self, starved_model):
        buffers = make_buffers(starved_model)
        result = greedy_allocate(buffers, starved_model, 3 * URAM_BYTES)
        assert sum(b.size_bytes for b in result.allocated) <= 3 * URAM_BYTES

    def test_dnnk_never_worse_than_greedy_on_snippet(self, snippet_starved):
        buffers = make_buffers(snippet_starved)
        capacity = 4 * URAM_BYTES
        dp = dnnk_allocate(buffers, snippet_starved, capacity, granularity=1024)
        gd = greedy_allocate(buffers, snippet_starved, capacity)
        dp_latency = snippet_starved.total_latency(dp.onchip_tensors)
        gd_latency = snippet_starved.total_latency(gd.onchip_tensors)
        assert dp_latency <= gd_latency * 1.05 + 1e-12


class TestAccounting:
    """used_bytes and predicted_reduction are exact, allocator-independent."""

    @pytest.mark.parametrize("granularity", [1024, URAM_BYTES])
    def test_used_bytes_is_block_rounded(self, starved_model, granularity):
        buffers = make_buffers(starved_model)
        capacity = 6 * URAM_BYTES
        for allocate in (dnnk_allocate, greedy_allocate):
            result = allocate(
                buffers, starved_model, capacity, granularity=granularity
            )
            expected = sum(
                math.ceil(b.size_bytes / granularity) * granularity
                for b in result.allocated
            )
            assert result.used_bytes == expected

    def test_predicted_reduction_matches_exact_rescore(self, starved_model):
        buffers = make_buffers(starved_model)
        result = dnnk_allocate(buffers, starved_model, 6 * URAM_BYTES)
        expected = starved_model.umm_latency() - starved_model.total_latency(
            result.onchip_tensors
        )
        assert result.predicted_reduction == expected

    def test_greedy_predicted_reduction_matches_exact_rescore(self, starved_model):
        buffers = make_buffers(starved_model)
        result = greedy_allocate(buffers, starved_model, 6 * URAM_BYTES)
        expected = starved_model.umm_latency() - starved_model.total_latency(
            result.onchip_tensors
        )
        assert result.predicted_reduction == expected


class TestEngineParity:
    """Each allocator decides identically with the engine-backed gain
    evaluator and with the naive oracle (scalar DP sweep)."""

    @pytest.mark.parametrize("capacity_blocks", [0, 2, 6])
    def test_dnnk_engine_identical(self, starved_model, capacity_blocks):
        buffers = make_buffers(starved_model)
        capacity = capacity_blocks * URAM_BYTES
        with naive_allocators():
            naive = dnnk_allocate(buffers, starved_model, capacity)
        fast = dnnk_allocate(
            buffers, starved_model, capacity, engine=AllocationEngine(starved_model)
        )
        assert fast.onchip_tensors == naive.onchip_tensors
        assert fast.used_bytes == naive.used_bytes
        assert fast.predicted_reduction == naive.predicted_reduction

    def test_greedy_engine_identical(self, starved_model):
        buffers = make_buffers(starved_model)
        capacity = 4 * URAM_BYTES
        with naive_allocators():
            naive = greedy_allocate(buffers, starved_model, capacity)
        fast = greedy_allocate(
            buffers, starved_model, capacity, engine=AllocationEngine(starved_model)
        )
        assert fast.onchip_tensors == naive.onchip_tensors
        assert fast.used_bytes == naive.used_bytes
        assert fast.predicted_reduction == naive.predicted_reduction

    def test_dnnk_engine_near_exhaustive(self, snippet_starved):
        # The engine-backed DP must stay comparable to the optimum.
        buffers = make_buffers(snippet_starved)
        capacity = 4 * URAM_BYTES
        engine = AllocationEngine(snippet_starved)
        dp = dnnk_allocate(
            buffers, snippet_starved, capacity, granularity=1024, engine=engine
        )
        opt = exhaustive_allocate(buffers, snippet_starved, capacity)
        baseline = snippet_starved.umm_latency()
        dp_gain = baseline - snippet_starved.total_latency(dp.onchip_tensors)
        opt_gain = baseline - snippet_starved.total_latency(opt.onchip_tensors)
        assert dp_gain >= 0.9 * opt_gain - 1e-12


@st.composite
def dp_cases(draw):
    """(sizes, units, order, evaluator) for one DP sweep."""
    model = LatencyModel(
        draw(random_dags()),
        small_accel(ddr_efficiency=draw(st.sampled_from([1.0, 0.3, 0.05]))),
    )
    buffers = make_buffers(model)
    granularity = 1024
    sizes = [math.ceil(b.size_bytes / granularity) for b in buffers]
    units = draw(st.integers(min_value=0, max_value=sum(sizes) + 1))
    order = draw(st.permutations(range(len(buffers))))
    evaluator = dnnk._EngineGainEvaluator(AllocationEngine(model), buffers)
    return sizes, units, list(order), evaluator


class TestDPKernels:
    """The scalar sweep is the only DP without numpy or past 63 buffers;
    it must decide exactly like the vectorised one."""

    @pytest.mark.skipif(dnnk._np is None, reason="the vector sweep needs numpy")
    @given(dp_cases())
    @settings(max_examples=60, deadline=None)
    def test_scalar_matches_vector(self, case):
        sizes, units, order, evaluator = case
        assert len(sizes) <= 63
        scalar = dnnk._dp_pass(order, sizes, units, evaluator)
        vector = dnnk._dp_pass_vector(order, sizes, units, evaluator)
        assert scalar == vector

    def test_wide_instance_takes_scalar_path(self, monkeypatch):
        model = LatencyModel(
            build_chain(num_convs=35, channels=32, hw=14),
            small_accel(ddr_efficiency=0.05),
        )
        feature = feature_reuse_pass(model.graph, model)
        prefetch = weight_prefetch_pass(model.graph, model)
        # One buffer per tensor: more buffers than a uint64 mask holds.
        buffers = [
            VirtualBuffer(index=i, tensors=[t])
            for i, t in enumerate(feature.candidates + prefetch.candidates)
        ]
        assert len(buffers) > 63
        calls = []
        scalar = dnnk._dp_pass
        monkeypatch.setattr(
            dnnk, "_dp_pass", lambda *args: calls.append(1) or scalar(*args)
        )
        monkeypatch.setattr(dnnk, "_dp_pass_vector", None)
        capacity = 64 * 1024
        result = dnnk_allocate(buffers, model, capacity, granularity=1024)
        assert calls
        assert result.allocated
        assert result.used_bytes <= capacity
        assert result.predicted_reduction == model.umm_latency() - (
            model.total_latency(result.onchip_tensors)
        )
        with naive_allocators():
            naive = dnnk_allocate(buffers, model, capacity, granularity=1024)
        assert result.onchip_tensors == naive.onchip_tensors
        assert result.predicted_reduction == naive.predicted_reduction


class TestGranularity:
    def test_coarse_granularity_rounds_sizes_up(self, starved_model):
        buffers = make_buffers(starved_model)
        capacity = 3 * URAM_BYTES
        coarse = dnnk_allocate(buffers, starved_model, capacity, granularity=URAM_BYTES)
        fine = dnnk_allocate(buffers, starved_model, capacity, granularity=1024)
        # Finer granularity can only fit more (or equal) value in.
        coarse_latency = starved_model.total_latency(coarse.onchip_tensors)
        fine_latency = starved_model.total_latency(fine.onchip_tensors)
        assert fine_latency <= coarse_latency + 1e-12
