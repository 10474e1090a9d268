"""The incremental allocation-evaluation engine vs the naive oracles.

The engine's contract is *bit-for-bit* equality with walking the
:class:`LatencyModel` per query — not approximate agreement.  These tests
enforce that contract three ways:

* hypothesis property tests over random DAGs and random allocation states
  (on-chip sets, prefetch residuals, fractional pins);
* apply/undo round-trips returning the exact prior state;
* end-to-end ``run_lcmm`` parity across real models and option
  combinations: the decisions match a re-run on the naive gain
  evaluator down to physical placement, and the latencies and residuals
  match a plain model walk (:mod:`tests.oracles`).
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir.graph import ComputationGraph
from repro.ir.layer import Concat, EltwiseAdd, InputLayer
from repro.ir.tensor import FeatureMapShape, TensorKind, weight_tensor_name
from repro.fingerprint import fingerprint
from repro.lcmm.dnnk import _EngineGainEvaluator
from repro.lcmm.feature_reuse import feature_reuse_pass
from repro.lcmm.framework import LCMMOptions, run_lcmm
from repro.lcmm.passes import (
    CompilationContext,
    PassManager,
    default_pipeline,
    empty_prefetch_result,
    evaluate_allocation,
)
from repro.lcmm.prefetch import weight_prefetch_pass
from repro.lcmm.splitting import combine_buffers
from repro.models.common import conv
from repro.models.zoo import build_googlenet, build_squeezenet
from repro.perf.engine import AllocationEngine, EngineStats
from repro.perf.latency import LatencyModel

from tests.conftest import build_chain, build_snippet, small_accel
from tests.oracles import NaiveGainEvaluator, naive_allocators, naive_walk

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@st.composite
def random_dags(draw):
    """A random conv DAG with occasional concat/eltwise joins."""
    num_layers = draw(st.integers(min_value=2, max_value=9))
    g = ComputationGraph(name="random")
    g.add(InputLayer(name="data", shape=FeatureMapShape(16, 14, 14)))
    names = ["data"]
    shapes = {"data": 16}
    for i in range(num_layers):
        src = names[draw(st.integers(min_value=0, max_value=len(names) - 1))]
        channels = draw(st.sampled_from([16, 32, 48]))
        kernel = draw(st.sampled_from([1, 3]))
        name = f"c{i}"
        conv(g, name, src, channels, kernel)
        names.append(name)
        shapes[name] = channels
    # Join two same-shaped convs when the draw allows, to get multi-input
    # nodes (their if-slots serialise on one interface).
    convs = names[1:]
    if len(convs) >= 2 and draw(st.booleans()):
        a = convs[-1]
        partners = [n for n in convs[:-1] if shapes[n] == shapes[a]]
        if partners and draw(st.booleans()):
            g.add(EltwiseAdd(name="join", inputs=(a, partners[0])))
        else:
            g.add(Concat(name="join", inputs=(a, convs[0])))
    g.validate()
    return g


@st.composite
def engine_cases(draw):
    """(model, onchip, residuals, fractions) over a random DAG."""
    graph = draw(random_dags())
    model = LatencyModel(graph, small_accel())
    tensors = sorted(
        {s.tensor for node in model.nodes() for s in model.layer(node).slots}
    )
    onchip = {t for t in tensors if draw(st.booleans())}
    residuals = {
        t: draw(st.floats(min_value=0.0, max_value=1e-3, allow_nan=False))
        for t in sorted(onchip)
        if draw(st.booleans())
    }
    fractions = {
        t: draw(st.floats(min_value=0.01, max_value=0.99, allow_nan=False))
        for t in tensors
        if t not in onchip and draw(st.booleans())
    }
    return model, frozenset(onchip), residuals, fractions


@st.composite
def refined_option_cases(draw):
    """(graph, options) with fractional fill drawn.

    ``ddr_efficiency=0.1`` in the consuming tests makes most layers
    memory bound, so prefetch edges carry real residuals and the
    fractional fill actually accepts/rejects pins.
    """
    graph = draw(random_dags())
    return graph, LCMMOptions(fractional_fill=draw(st.booleans()))


@st.composite
def evaluator_cases(draw):
    """(model, buffers, contexts) for the DNNK gain evaluators.

    The DDR efficiency spans compute-bound to memory-bound designs, so
    nodes range from fully compute-dominated to several binding kinds.
    """
    graph = draw(random_dags())
    model = LatencyModel(
        graph, small_accel(ddr_efficiency=draw(st.sampled_from([1.0, 0.3, 0.05])))
    )
    buffers = _dnnk_buffers(model)
    full = (1 << len(buffers)) - 1
    contexts = draw(
        st.lists(st.integers(min_value=0, max_value=full), min_size=1, max_size=6)
    )
    return model, buffers, contexts


def _dnnk_buffers(model):
    feature = feature_reuse_pass(model.graph, model)
    prefetch = weight_prefetch_pass(model.graph, model)
    return combine_buffers([feature.buffers, prefetch.buffers])


# ---------------------------------------------------------------------------
# Property: engine state == naive evaluation, bit for bit
# ---------------------------------------------------------------------------


class TestEngineMatchesModel:
    @given(engine_cases())
    @settings(max_examples=60, deadline=None)
    def test_set_state_total_exact(self, case):
        model, onchip, residuals, fractions = case
        engine = AllocationEngine(model)
        engine.set_state(onchip, residuals, fractions)
        expected = model.total_latency(onchip, residuals, fractions)
        assert engine.total() == expected

    @given(engine_cases())
    @settings(max_examples=60, deadline=None)
    def test_per_node_latencies_exact(self, case):
        model, onchip, residuals, fractions = case
        engine = AllocationEngine(model)
        engine.set_state(onchip, residuals, fractions)
        for node in model.nodes():
            expected = model.layer(node).latency(onchip, residuals, fractions)
            assert engine.node_latency(node) == expected

    @given(engine_cases())
    @settings(max_examples=60, deadline=None)
    def test_apply_reaches_same_state_as_set_state(self, case):
        model, onchip, residuals, fractions = case
        engine = AllocationEngine(model)
        engine.apply(add=sorted(onchip), residuals=residuals, fractions=fractions)
        assert engine.total() == model.total_latency(onchip, residuals, fractions)
        assert engine.onchip() == onchip

    @given(engine_cases())
    @settings(max_examples=60, deadline=None)
    def test_apply_delta_is_exact_difference(self, case):
        model, onchip, residuals, fractions = case
        engine = AllocationEngine(model)
        before = engine.total()
        delta = engine.apply(
            add=sorted(onchip), residuals=residuals, fractions=fractions
        )
        # The delta accumulates per-node differences; it must agree with
        # the totals to float-sum tolerance and the totals stay exact.
        assert abs((before + delta) - engine.total()) <= 1e-12 * max(1.0, before)
        assert engine.total() == model.total_latency(onchip, residuals, fractions)

    @given(engine_cases())
    @settings(max_examples=60, deadline=None)
    def test_undo_restores_exact_state(self, case):
        model, onchip, residuals, fractions = case
        engine = AllocationEngine(model)
        base_total = engine.total()
        base_nodes = engine.node_latency_list()
        engine.apply(add=sorted(onchip), residuals=residuals, fractions=fractions)
        engine.undo()
        assert engine.total() == base_total
        assert engine.node_latency_list() == base_nodes
        assert engine.onchip() == frozenset()


class TestEngineMechanics:
    def test_umm_state_matches_model(self, snippet_model):
        engine = AllocationEngine(snippet_model)
        assert engine.total() == snippet_model.umm_latency()
        assert engine.node_latency_list() == [
            snippet_model.layer(n).latency() for n in snippet_model.nodes()
        ]

    def test_undo_without_transition_raises(self, snippet_model):
        engine = AllocationEngine(snippet_model)
        with pytest.raises(RuntimeError):
            engine.undo()

    def test_set_state_is_undo_barrier(self, snippet_model):
        engine = AllocationEngine(snippet_model)
        engine.apply(add=["w:C1"])
        engine.set_state(frozenset())
        with pytest.raises(RuntimeError):
            engine.undo()

    def test_unknown_tensor_names_ignored(self, snippet_model):
        engine = AllocationEngine(snippet_model)
        assert engine.apply(add=["nope"]) == 0.0
        assert engine.total() == snippet_model.umm_latency()

    def test_stats_counters_advance(self, snippet_model):
        stats = EngineStats()
        engine = AllocationEngine(snippet_model, stats=stats)
        assert stats.full_rescores == 1
        evals = stats.node_evaluations
        engine.apply(add=["w:C1"])
        engine.undo()
        assert stats.applies == 1
        assert stats.undos == 1
        assert stats.node_evaluations > evals
        payload = stats.as_dict()
        assert payload["applies"] == 1
        assert "pass_seconds" in payload


class TestAllocatorProbe:
    """evaluate_allocation is the allocator's scoring hot path: one
    engine transition per probe (plus one residual patch at most)."""

    def test_probe_without_residuals_is_one_transition(self, snippet_model):
        engine = AllocationEngine(snippet_model)
        onchip = frozenset(["w:C1"])
        before = engine.stats.applies
        residuals, latency = evaluate_allocation(
            empty_prefetch_result(), onchip, engine
        )
        assert engine.stats.applies - before == 1
        assert residuals == {}
        assert latency == snippet_model.total_latency(onchip, {})
        assert engine.onchip() == onchip

    def test_probe_with_residuals_is_at_most_two_transitions(self):
        graph = build_snippet()
        model = LatencyModel(graph, small_accel(ddr_efficiency=0.1))
        prefetch = weight_prefetch_pass(graph, model)
        engine = AllocationEngine(model)
        onchip = frozenset(weight_tensor_name(n) for n in prefetch.edges)
        before = engine.stats.applies
        residuals, latency = evaluate_allocation(prefetch, onchip, engine)
        assert engine.stats.applies - before == (2 if residuals else 1)
        assert latency == model.total_latency(onchip, residuals)
        assert engine.total() == latency


class TestPrunedGainEvaluator:
    """The engine-backed DNNK evaluator prunes compute-dominated slot
    kinds from its memo keys and gain loop; every query must still equal
    the naive oracle's bit for bit."""

    @given(evaluator_cases())
    @settings(max_examples=60, deadline=None)
    def test_queries_match_oracle(self, case):
        model, buffers, contexts = case
        oracle = NaiveGainEvaluator(model, buffers)
        fast = _EngineGainEvaluator(AllocationEngine(model), buffers)
        n = len(buffers)
        # One evaluator instance across all contexts, so memo hits under
        # the pruned keys are checked as well as fresh computations.
        for ctx in contexts:
            chosen = {i for i in range(n) if ctx >> i & 1}
            assert fast.total_latency(chosen) == oracle.total_latency(chosen)
            for i in range(n):
                assert fast.gain(i, ctx) == oracle.gain(i, ctx)
                drop = i if ctx >> i & 1 else None
                add = None if ctx >> i & 1 else i
                assert fast.move_delta(ctx, add, drop) == oracle.move_delta(
                    ctx, add, drop
                )
                for b in range(i + 1, n):
                    assert fast.pair_delta(ctx, i, b) == oracle.pair_delta(ctx, i, b)

    def test_compute_dominated_buffer_has_zero_gain(self):
        # At full DDR efficiency the chain is compute-bound on every node:
        # no slot kind can bind, so no context bit can matter.
        model = LatencyModel(build_chain(), small_accel(ddr_efficiency=1.0))
        buffers = _dnnk_buffers(model)
        oracle = NaiveGainEvaluator(model, buffers)
        fast = _EngineGainEvaluator(AllocationEngine(model), buffers)
        full = (1 << len(buffers)) - 1
        assert buffers
        for i, buf in enumerate(buffers):
            nodes = {n for t in buf.tensors for n in t.affected_nodes}
            assert not any(model.layer(n).is_memory_bound for n in nodes)
            assert fast._gain_mask[i] == 0
            for ctx in (0, full, full & ~(1 << i)):
                gain = fast.gain(i, ctx)
                assert gain == 0.0 and gain == oracle.gain(i, ctx)


    # -- edge-case models ------------------------------------------------
    # A wide concat fan-in gives one node nine if-slots on one interface
    # (``random_dags`` joins at most two), and ``LatencyModel.from_layers``
    # plants the terms the evaluator's exact shortcuts must not take:
    # the compute-floor rule and the dominated-kind pruning both assume
    # non-negative, non-NaN terms, and an infinite compute turns a
    # per-node difference into inf - inf = NaN.

    @pytest.mark.parametrize("efficiency", [1.0, 0.3, 0.05])
    def test_wide_fan_in_matches_oracle(self, efficiency):
        model = LatencyModel(_fan_in_graph(), small_accel(ddr_efficiency=efficiency))
        _assert_evaluators_agree(model, _dnnk_buffers(model))

    @pytest.mark.parametrize(
        "edit", ["negative_slot", "nan_slot", "inf_slot", "inf_compute"]
    )
    def test_edge_terms_match_oracle(self, edit):
        base = LatencyModel(_fan_in_graph(), small_accel(ddr_efficiency=0.05))
        buffers = _dnnk_buffers(base)
        _assert_evaluators_agree(_edited_fan_in(base, edit), buffers)

    def test_negative_term_below_compute_still_binds_when_removed(self):
        # The node sits at its compute with nothing on chip only because
        # of the negative term; taking that term's buffer lifts the if
        # sum above compute.  A floor rule without its guard would call
        # this gain 0.0.
        base = LatencyModel(_fan_in_graph(), small_accel(ddr_efficiency=0.05))
        buffers = _dnnk_buffers(base)
        model = _edited_fan_in(base, "negative_slot")
        layer = model.layer("fuse")
        assert model.node_latency("fuse") == layer.compute
        assert model.node_latency("fuse", frozenset({"f:p0"})) > layer.compute
        fast = _EngineGainEvaluator(AllocationEngine(model), buffers)
        oracle = NaiveGainEvaluator(model, buffers)
        p0 = next(i for i, b in enumerate(buffers) if "f:p0" in b.tensor_names)
        assert fast.gain(p0, 0) < 0.0
        assert fast.gain(p0, 0) == oracle.gain(p0, 0)


def _fan_in_graph(width: int = 9) -> ComputationGraph:
    """``width`` convs concatenated into one 1x1 conv, ``fuse``."""
    g = ComputationGraph(name="fan_in")
    g.add(InputLayer(name="data", shape=FeatureMapShape(16, 14, 14)))
    producers = tuple(conv(g, f"p{i}", "data", 16, 3) for i in range(width))
    g.add(Concat(name="cat", inputs=producers))
    conv(g, "fuse", "cat", 32, 1)
    g.validate()
    return g


def _edited_fan_in(model: LatencyModel, edit: str) -> LatencyModel:
    """``model`` with one term of the fan-in node ``fuse`` replaced.

    The slot edits raise compute to five if-slots' worth and leave the
    node exactly at its compute with nothing on chip, so taking the
    first if-slot's buffer is what moves it.
    """
    layers = {name: model.layer(name) for name in model.nodes()}
    fuse = layers["fuse"]
    lat = fuse.slots[0].latency
    assert fuse.slots[0].kind is TensorKind.IFMAP
    first = {"negative_slot": -5 * lat, "nan_slot": math.nan, "inf_slot": math.inf}
    if edit == "inf_compute":
        layers["fuse"] = replace(fuse, compute=math.inf)
    else:
        slots = [replace(fuse.slots[0], latency=first[edit]), *fuse.slots[1:]]
        layers["fuse"] = replace(fuse, compute=5 * lat, slots=slots)
    return LatencyModel.from_layers(model.graph, model.accel, layers)


def _same(a: float, b: float) -> bool:
    """Equal, or both NaN."""
    return a == b or (math.isnan(a) and math.isnan(b))


def _assert_evaluators_agree(model, buffers, samples: int = 12) -> None:
    """Every total, gain and delta of the engine-backed evaluator equals
    the naive oracle's (NaN-aware), over the empty, full and seeded
    random contexts, on one evaluator instance so memo hits are checked
    as well as fresh walks."""
    oracle = NaiveGainEvaluator(model, buffers)
    fast = _EngineGainEvaluator(AllocationEngine(model), buffers)
    n = len(buffers)
    assert n >= 2
    full = (1 << n) - 1
    rng = random.Random(n)
    contexts = [0, full, *(rng.randint(0, full) for _ in range(samples))]
    for ctx in contexts:
        chosen = {i for i in range(n) if ctx >> i & 1}
        assert _same(fast.total_latency(chosen), oracle.total_latency(chosen))
        for i in range(n):
            assert _same(fast.gain(i, ctx), oracle.gain(i, ctx)), (ctx, i)
            drop = i if ctx >> i & 1 else None
            add = None if ctx >> i & 1 else i
            assert _same(
                fast.move_delta(ctx, add, drop), oracle.move_delta(ctx, add, drop)
            )
            for b in range(i + 1, n):
                assert _same(fast.pair_delta(ctx, i, b), oracle.pair_delta(ctx, i, b))


# ---------------------------------------------------------------------------
# End-to-end parity: run_lcmm vs the naive oracles
# ---------------------------------------------------------------------------


def _assert_runs_identical(graph, accel, options):
    """Decisions equal a re-run on the naive gain evaluator; latencies
    and residuals equal a plain latency-model walk."""
    model = LatencyModel(graph, accel)
    fast = run_lcmm(graph, accel, options=options, model=model)
    with naive_allocators():
        naive = run_lcmm(
            graph, accel, options=options, model=LatencyModel(graph, accel)
        )
    assert fast.onchip_tensors == naive.onchip_tensors
    assert fast.fractions == naive.fractions
    assert fast.splitting_iterations == naive.splitting_iterations
    assert (
        fast.dnnk_result.predicted_reduction
        == naive.dnnk_result.predicted_reduction
    )
    placement = lambda r: [
        (b.name, b.uram_blocks, b.bram36_blocks, tuple(b.virtual.tensor_names))
        for b in r.physical_buffers
    ]
    assert placement(fast) == placement(naive)
    assert fingerprint(fast) == fingerprint(naive)
    latency, node_latencies, residuals = naive_walk(fast, model)
    assert fast.latency == latency
    assert fast.node_latencies == node_latencies
    assert fast.residuals == residuals
    assert fast.engine_stats is not None


class TestRunParity:
    @pytest.mark.parametrize(
        "options",
        [
            LCMMOptions(),
            LCMMOptions(fractional_fill=True),
            LCMMOptions(use_greedy=True),
            LCMMOptions(splitting=False),
        ],
        ids=["default", "fractional", "greedy", "nosplit"],
    )
    def test_snippet_parity(self, options):
        _assert_runs_identical(build_snippet(), small_accel(), options)

    def test_starved_snippet_parity(self):
        # A memory-starved design leaves prefetches unhidden, so the
        # residual arithmetic is exercised, not just the empty case.
        accel = small_accel(ddr_efficiency=0.1)
        options = LCMMOptions()
        assert run_lcmm(build_snippet(), accel, options=options).residuals
        _assert_runs_identical(build_snippet(), accel, options)

    def test_squeezenet_parity(self):
        _assert_runs_identical(build_squeezenet(), small_accel(), LCMMOptions())

    def test_googlenet_parity(self):
        _assert_runs_identical(
            build_googlenet(),
            small_accel(),
            LCMMOptions(fractional_fill=True),
        )

    @given(refined_option_cases())
    @settings(max_examples=20, deadline=None)
    def test_refined_fractional_parity_random(self, case):
        graph, options = case
        _assert_runs_identical(graph, small_accel(ddr_efficiency=0.1), options)

    @given(refined_option_cases())
    @settings(max_examples=15, deadline=None)
    def test_pipeline_leaves_engine_on_accepted_state(self, case):
        # A rejected split or fractional pin probes a trial allocation;
        # the pipeline must park the engine back on the accepted state so
        # later incremental work starts from the right baseline.
        graph, options = case
        ctx = CompilationContext.create(
            graph, small_accel(ddr_efficiency=0.1), options=options
        )
        PassManager(default_pipeline(options)).run(ctx)
        score = ctx.require("score")
        assert ctx.engine.onchip() == score.onchip
        assert ctx.engine.total() == score.latency
        for node, expected in score.node_latencies.items():
            assert ctx.engine.node_latency(node) == expected

    def test_engine_stats_report_passes(self):
        result = run_lcmm(build_snippet(), small_accel())
        stats = result.engine_stats
        assert stats is not None
        executed = [name for name, _ in result.pass_timings]
        assert executed == [
            "feature_reuse", "weight_prefetch", "allocate_splitting",
            "score", "placement",
        ]
        for name in executed:
            assert name in stats.pass_seconds
        assert stats.node_evaluations > 0
