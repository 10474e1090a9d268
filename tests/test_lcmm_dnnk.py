"""Tests for repro.lcmm.dnnk — the knapsack allocator.

The key guarantee: on instances small enough to brute-force, DNNK's
allocation is close to the exhaustive optimum (the pivot-compensated DP is
a heuristic, so we allow a small tolerance, but on independent-buffer
instances it must be exactly optimal).
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.reference import model_reference_design
from repro.hw.precision import precision_by_name
from repro.hw.sram import URAM_BYTES
from repro.ir.graph import ComputationGraph
from repro.ir.layer import InputLayer
from repro.ir.tensor import FeatureMapShape
from repro.lcmm import dnnk
from repro.lcmm.buffers import VirtualBuffer
from repro.lcmm.dnnk import dnnk_allocate, greedy_allocate
from repro.lcmm.feature_reuse import feature_reuse_pass
from repro.lcmm.passes.core import CompilationContext
from repro.lcmm.prefetch import weight_prefetch_pass
from repro.lcmm.splitting import combine_buffers
from repro.models.common import conv
from repro.models.zoo import get_model
from repro.perf.engine import AllocationEngine
from repro.perf.latency import LatencyModel

from tests.conftest import build_chain, build_snippet, small_accel
from tests.oracles import column_dp, exhaustive_allocate, naive_allocators
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
        assert result.allocated == ()
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
        assert result.allocated == ()
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
    evaluator and with the naive oracles (gain walk and column DP)."""

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


class _KeyedGains:
    """A gain evaluator over a fixed table: each buffer's gain shrinks
    with the number of its key bits already taken in the column."""

    def __init__(self, base: list[float], masks: list[int]) -> None:
        self._base = base
        self._gain_mask = masks

    def gain(self, i: int, context: int) -> float:
        return self._base[i] / (1 + bin(context & self._gain_mask[i]).count("1"))


@st.composite
def keyed_dp_cases(draw):
    """(sizes, units, order, evaluator) on small tables, where the
    backtrace often lands on a run or take-interval boundary."""
    n = draw(st.integers(min_value=1, max_value=8))
    sizes = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    base = draw(
        st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, 10.0]), min_size=n, max_size=n)
    )
    masks = draw(st.lists(st.integers(0, 2**n - 1), min_size=n, max_size=n))
    units = draw(st.integers(min_value=0, max_value=sum(sizes) + 1))
    order = draw(st.permutations(range(n)))
    return sizes, units, list(order), _KeyedGains(base, masks)


def _recurring_key(keys: list[int]) -> bool:
    """Whether a key reappears after a run of another key."""
    runs = [k for j, k in enumerate(keys) if j == 0 or keys[j - 1] != k]
    return len(runs) != len(set(runs))


class TestDPKernels:
    """The run-length sweep is DNNK's one DP kernel; it must decide, score
    and call gains exactly like the column-by-column oracle."""

    @given(st.one_of(dp_cases(), keyed_dp_cases()))
    @settings(max_examples=200, deadline=None)
    def test_run_sweep_matches_column_oracle(self, case):
        sizes, units, order, evaluator = case
        assert dnnk._dp_pass(order, sizes, units, evaluator) == column_dp(
            order, sizes, units, evaluator
        )

    @pytest.mark.parametrize(
        "model_name,precision",
        [("densenet121", "int8"), ("googlenet", "int8"), ("inception_v4", "int16")],
    )
    def test_run_sweep_matches_column_oracle_on_zoo_buffers(
        self, model_name, precision
    ):
        # The compile's own buffer list and capacity, in both DP orders.
        graph = get_model(model_name)
        ctx = CompilationContext.create(
            graph,
            model_reference_design(model_name, precision_by_name(precision), "lcmm"),
        )
        buffers = combine_buffers(
            [
                feature_reuse_pass(graph, ctx.model).buffers,
                weight_prefetch_pass(graph, ctx.model).buffers,
            ]
        )
        sizes = [math.ceil(b.size_bytes / URAM_BYTES) for b in buffers]
        units = ctx.capacity // URAM_BYTES
        evaluator = dnnk._EngineGainEvaluator(ctx.engine, buffers)
        density = sorted(
            range(len(buffers)),
            key=lambda i: -buffers[i].total_latency_reduction / max(1, sizes[i]),
        )

        def sweep(kernel, order):
            """The kernel's result and its gain calls as (row, key)."""
            calls = []
            gain = evaluator.gain

            def spy(i, context):
                calls.append((i, context & evaluator._gain_mask[i]))
                return gain(i, context)

            evaluator.gain = spy
            try:
                return kernel(order, sizes, units, evaluator), calls
            finally:
                del evaluator.gain

        for order in (list(range(len(buffers))), density):
            oracle, oracle_calls = sweep(column_dp, order)
            runs, run_calls = sweep(dnnk._dp_pass, order)
            assert runs == oracle
            assert runs[0]
            # One call per distinct (row, key), the oracle's set: the gain
            # memo counters cannot tell the kernels apart.
            assert len(run_calls) == len(set(run_calls))
            assert set(run_calls) == set(oracle_calls)
            # Some row meets one key in two runs apart, so the sweep must
            # score it once and reuse it for both runs.
            rows: dict[int, list[int]] = {}
            for i, key in oracle_calls:
                rows.setdefault(i, []).append(key)
            assert any(_recurring_key(keys) for keys in rows.values())

    def test_naive_allocators_run_only_the_column_oracle(
        self, monkeypatch, starved_model
    ):
        # The differential suite compares against naive_allocators(); if
        # the run sweep ran there too, it would check one DP against itself.
        calls = []
        runs = dnnk._dp_pass
        monkeypatch.setattr(
            dnnk, "_dp_pass", lambda *args: calls.append("runs") or runs(*args)
        )
        buffers = make_buffers(starved_model)
        with naive_allocators():
            assert dnnk._dp_pass is column_dp
            dnnk_allocate(buffers, starved_model, 3 * URAM_BYTES, granularity=1024)
        assert calls == []
        dnnk_allocate(buffers, starved_model, 3 * URAM_BYTES, granularity=1024)
        assert calls

    def test_wide_instance_runs_the_one_kernel(self, monkeypatch):
        model = LatencyModel(
            build_chain(num_convs=35, channels=32, hw=14),
            small_accel(ddr_efficiency=0.05),
        )
        feature = feature_reuse_pass(model.graph, model)
        prefetch = weight_prefetch_pass(model.graph, model)
        # One buffer per tensor, more than a 64-bit mask holds, with the
        # feature maps (the ones worth taking here) last.
        buffers = [
            VirtualBuffer(index=i, tensors=[t])
            for i, t in enumerate(prefetch.candidates + feature.candidates)
        ]
        assert len(buffers) > 64
        sweeps = []
        runs = dnnk._dp_pass

        def checked(*args):
            result = runs(*args)
            sweeps.append(result == column_dp(*args))
            return result

        monkeypatch.setattr(dnnk, "_dp_pass", checked)
        capacity = 256 * 1024
        result = dnnk_allocate(buffers, model, capacity, granularity=1024)
        assert sweeps and all(sweeps)
        # The instance is wide in fact: a buffer past bit 63 is resident.
        assert any(buffers.index(b) > 63 for b in result.allocated)
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
