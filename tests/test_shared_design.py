"""Every compile of one design shares its latency model and analyses.

The feature-reuse and weight-prefetch results, the engine tables, the
allocator outcomes and the fused model are memoised on the
:class:`~repro.perf.latency.LatencyModel`, and a process keeps one
model per design (:func:`~repro.perf.latency.design_model`) for every
compile and DSE score of it.  Sharing is sound
only while no pass edits an artifact it did not create: these tests pin
that the splitting pass leaves its inputs alone, that a shared allocator
outcome cannot be edited, that no configuration re-runs a knapsack an
earlier one solved, and that shared compiles equal fresh ones in any
order.
"""

from __future__ import annotations

import dataclasses
import json
import random
import threading
import time
from collections import OrderedDict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.reference import model_reference_design
from repro.cache.batch import (
    FUSED_CONFIGS,
    STANDARD_CONFIGS,
    batch_compile,
    compile_job,
    standard_options,
    zoo_design,
)
from repro.errors import ReproError
from repro.fingerprint import fingerprint
from repro.hw.precision import INT8, precision_by_name
from repro.lcmm import dnnk
from repro.lcmm.feature_reuse import feature_reuse_pass
from repro.lcmm.framework import LCMMOptions, run_lcmm, umm_only_result
from repro.lcmm.passes import CompilationContext
from repro.lcmm.passes.standard import evaluate_allocation
from repro.lcmm.prefetch import weight_prefetch_pass
from repro.lcmm.splitting import buffer_splitting_pass
from repro.lcmm.validate import validate_buffers
from repro.models.common import conv
from repro.models.zoo import get_model, list_models
from repro.perf import latency
from repro.perf.engine import AllocationEngine
from repro.perf.latency import LatencyModel, design_model
from repro.robustness.inject import FaultPlan, injected
from repro.serve.jobs import run_dse_job

from tests.conftest import build_chain, small_accel
from tests.strategies import accelerators, graphs

GOLDEN_DIR = Path(__file__).parent / "golden"


def _googlenet_int8():
    return get_model("googlenet"), model_reference_design("googlenet", INT8, "lcmm")


class TestSplittingLeavesItsInputs:
    def test_input_graphs_keep_no_false_edges(self):
        graph, accel = _googlenet_int8()
        ctx = CompilationContext.create(graph, accel)
        model, engine = ctx.model, ctx.engine
        feature = feature_reuse_pass(graph, model)
        prefetch = weight_prefetch_pass(graph, model)
        edges = (feature.interference.edge_count(), prefetch.interference.edge_count())

        outcome = buffer_splitting_pass(
            feature.interference,
            prefetch.interference,
            model,
            ctx.capacity,
            lambda onchip: evaluate_allocation(prefetch, onchip, engine)[1],
            engine=engine,
        )

        assert not feature.interference.false_edges()
        assert not prefetch.interference.false_edges()
        assert (
            feature.interference.edge_count(),
            prefetch.interference.edge_count(),
        ) == edges
        added = outcome.feature_graph.false_edges() | outcome.weight_graph.false_edges()
        assert added
        assert (
            outcome.feature_graph.edge_count() + outcome.weight_graph.edge_count()
            == sum(edges) + len(added)
        )

    def test_published_results_hold_the_edges(self):
        graph, accel = _googlenet_int8()
        model = LatencyModel(graph, accel)
        result = run_lcmm(graph, accel, options=LCMMOptions(), model=model, fallback=False)
        published = (
            result.feature_result.interference.false_edges()
            | result.prefetch_result.interference.false_edges()
        )
        assert published
        validate_buffers(result)
        # The next compile of this model starts from the unsplit analyses.
        again = run_lcmm(
            graph, accel, options=LCMMOptions(splitting=False), model=model
        )
        assert not again.feature_result.interference.false_edges()
        assert not again.prefetch_result.interference.false_edges()


class TestModelSharing:
    def test_compiles_of_one_model_share_the_analyses(self):
        graph, accel = _googlenet_int8()
        model = LatencyModel(graph, accel)
        dnnk = run_lcmm(graph, accel, options=LCMMOptions(splitting=False), model=model)
        greedy = run_lcmm(
            graph, accel, options=LCMMOptions(use_greedy=True, splitting=False),
            model=model,
        )
        assert greedy.feature_result is dnnk.feature_result
        assert greedy.prefetch_result is dnnk.prefetch_result

    def test_engines_share_the_model_tables(self):
        graph, accel = _googlenet_int8()
        model = LatencyModel(graph, accel)
        first, second = AllocationEngine(model), AllocationEngine(model)
        assert second.base_node_lat is first.base_node_lat
        assert second.total() == first.total() == model.umm_latency()
        # Only the engine that built the tables walked the nodes.
        assert first.stats.full_rescores == 1
        assert first.stats.node_evaluations == len(model.nodes())
        assert second.stats.full_rescores == 0
        assert second.stats.node_evaluations == 0
        # Allocation state stays per engine.
        assert first.apply(add=list(first.tensor_index)) < 0.0
        assert second.total() == model.umm_latency()


def _golden(model_name: str, config: str) -> dict:
    stem = f"{model_name}.fused" if config in FUSED_CONFIGS else model_name
    return json.loads((GOLDEN_DIR / f"{stem}.json").read_text())[config]


SHARED_DESIGNS = [(name, "int8") for name in list_models()] + [
    (name, "int16") for name in ("googlenet", "resnet50", "bert_base")
]


@pytest.mark.parametrize("model_name, precision", SHARED_DESIGNS)
def test_shared_model_matches_fresh_compiles(model_name, precision):
    """Six configs on one model, in two shuffled orders, equal fresh compiles."""
    graph = get_model(model_name)
    accel = model_reference_design(model_name, precision_by_name(precision), "lcmm")

    def compile_config(config: str, model: LatencyModel) -> dict:
        options = standard_options(config)
        if options is None:
            return fingerprint(umm_only_result(graph, accel, model=model))
        return fingerprint(run_lcmm(graph, accel, options=options, model=model))

    fresh = {
        config: compile_config(config, LatencyModel(graph, accel))
        for config in STANDARD_CONFIGS
    }
    if precision == "int8":
        assert fresh == {config: _golden(model_name, config) for config in fresh}
    for seed in (0, 1):
        order = list(STANDARD_CONFIGS)
        random.Random(seed).shuffle(order)
        model = LatencyModel(graph, accel)
        shared = {config: compile_config(config, model) for config in order}
        assert shared == fresh, order


#: The configurations that run DNNK: ``splitting`` starts from ``dnnk``'s
#: knapsack, and the fused ones also reallocate on one fused model.
DNNK_CONFIGS = ("dnnk", "splitting", "fused", "fused_sched")


def _dp_run(order, sizes, units, evaluator) -> tuple:
    """What one DP sweep decides from: the model's slots, buffers, order, capacity."""
    engine = evaluator._engine
    return (
        tuple(engine.compute),
        tuple(engine.slot_lats),
        tuple(tuple(b.tensor_names) for b in evaluator._buffers),
        tuple(order),
        tuple(sizes),
        units,
    )


class TestAllocatorMemo:
    @pytest.mark.parametrize("model_name", list_models())
    def test_no_configuration_reruns_a_dp(self, monkeypatch, model_name):
        graph = get_model(model_name)
        accel = model_reference_design(model_name, INT8, "lcmm")
        runs: list[tuple] = []
        sweep = dnnk._dp_pass

        def spy(*args):
            runs.append(_dp_run(*args))
            return sweep(*args)

        monkeypatch.setattr(dnnk, "_dp_pass", spy)
        for seed in (0, 1):
            order = list(DNNK_CONFIGS)
            random.Random(seed).shuffle(order)
            model = LatencyModel(graph, accel)
            done: set[tuple] = set()
            for config in order:
                runs.clear()
                result = run_lcmm(
                    graph, accel, options=standard_options(config), model=model
                )
                assert fingerprint(result) == _golden(model_name, config)
                assert not done & set(runs), (order, config)
                done.update(runs)
            assert done

    def test_shared_result_is_read_only(self):
        graph, accel = _googlenet_int8()
        model = LatencyModel(graph, accel)
        options = standard_options("dnnk")
        shared = run_lcmm(graph, accel, options=options, model=model).dnnk_result
        victim = shared.allocated[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            shared.allocated = ()
        with pytest.raises(AttributeError):
            shared.spilled.append(victim)
        with pytest.raises(TypeError):
            shared.allocated[0] = shared.spilled[0]
        later = run_lcmm(graph, accel, options=options, model=model)
        assert later.dnnk_result is shared
        assert later.engine_stats.gain_cache_misses == 0
        assert fingerprint(later) == _golden("googlenet", "dnnk")

    def test_shared_buffers_are_read_only(self):
        """Appending a spilled tensor to an allocated buffer of a shared
        result once changed the next ``dnnk`` and ``greedy`` compiles of
        the model; buffers and their tensors are immutable now."""
        graph, accel = _googlenet_int8()
        model = LatencyModel(graph, accel)
        shared = run_lcmm(
            graph, accel, options=standard_options("dnnk"), model=model
        ).dnnk_result
        buf = shared.allocated[0]
        spilled = shared.spilled[0].tensors[0]
        with pytest.raises(AttributeError):
            buf.tensors.append(spilled)
        with pytest.raises(dataclasses.FrozenInstanceError):
            buf.tensors = buf.tensors + (spilled,)
        with pytest.raises(dataclasses.FrozenInstanceError):
            buf.tensors[0].size_bytes = 1
        for config in ("dnnk", "greedy"):
            options = standard_options(config)
            on_shared = run_lcmm(graph, accel, options=options, model=model)
            on_fresh = run_lcmm(
                graph, accel, options=options, model=LatencyModel(graph, accel)
            )
            assert fingerprint(on_shared) == fingerprint(on_fresh)
            assert fingerprint(on_shared) == _golden("googlenet", config)

    @settings(max_examples=30, deadline=None)
    @given(graph=graphs(), accel=accelerators(), data=st.data())
    def test_random_designs_compile_as_fresh(self, graph, accel, data):
        """Any order of configs on one model equals each on a fresh model."""
        budget = data.draw(st.integers(0, accel.device.sram_bytes), label="budget")
        options = [
            standard_options(config) for config in STANDARD_CONFIGS if config != "umm"
        ] + [LCMMOptions(sram_budget=budget), LCMMOptions(fractional_fill=True)]

        def outcome(options: LCMMOptions, model: LatencyModel):
            try:
                result = run_lcmm(graph, accel, options=options, model=model)
            except ReproError as exc:
                return type(exc).__name__
            return fingerprint(result)

        model = LatencyModel(graph, accel)
        for each in data.draw(st.permutations(options), label="order"):
            shared = outcome(each, model)
            fresh = outcome(each, LatencyModel(graph, accel))
            assert shared == fresh, each
            if isinstance(fresh, dict):
                assert shared["latency_hex"] == fresh["latency_hex"]


class TestBatchModelMemo:
    def test_pooled_batch_matches_in_process(self, tmp_path):
        """Grouped pool tasks answer in job order, partial misses included."""
        models = ["squeezenet", "alexnet"]
        # Leaves squeezenet's misses non-contiguous in job order.
        stored = {("squeezenet", "dnnk"), ("squeezenet", "fused"), ("alexnet", "umm")}
        reports = {}
        for workers in (1, 2):
            cache_dir = tmp_path / f"w{workers}"
            for model_name, config in sorted(stored):
                compile_job(model_name, config, "int8", str(cache_dir))
            reports[workers] = batch_compile(
                models=models, cache_dir=cache_dir, workers=workers
            )

        def rows(report):
            return [
                (
                    o.model, o.config, o.compile_key, o.cache_hit, o.latency,
                    o.degradation_level, o.degradation_path, o.fingerprint,
                )
                for o in report.outcomes
            ]

        pooled, serial = reports[2], reports[1]
        assert pooled.workers == 2
        assert rows(pooled) == rows(serial)
        assert [o.cache_hit for o in pooled.outcomes] == [
            (m, c) in stored for m in models for c in STANDARD_CONFIGS
        ]
        assert pooled.verify_golden(GOLDEN_DIR) == []

    def test_model_memo_stays_bounded(self, fresh_designs):
        designs = [
            (name, "int8") for name in list_models()[: latency._MODEL_LRU + 2]
        ]
        for name, precision in designs:
            compile_job(name, "umm", precision, None)
        assert _cached_designs() == [
            zoo_design(*design) for design in designs[-latency._MODEL_LRU :]
        ]

    def test_one_model_per_design(self, fresh_designs):
        batch_compile(models=["alexnet"], configs=["umm", "dnnk", "splitting"])
        assert _cached_designs() == [zoo_design("alexnet", "int8")]

    def test_one_graph_per_model(self, fresh_designs):
        """Every precision of a model compiles on one graph and one FloorTable."""
        for precision in ("int8", "int16"):
            compile_job("alexnet", "dnnk", precision, None)
        int8, int16 = fresh_designs.values()
        assert int8.accel != int16.accel
        assert int8.graph is int16.graph
        assert int8._table is int16._table

    def test_hits_build_no_model(self, tmp_path, monkeypatch):
        configs = ["umm", "dnnk"]
        batch_compile(models=["alexnet"], configs=configs, cache_dir=tmp_path)
        monkeypatch.setattr(latency, "_DESIGN_CACHE", OrderedDict())
        warm = batch_compile(models=["alexnet"], configs=configs, cache_dir=tmp_path)
        assert warm.all_hits
        assert not latency._DESIGN_CACHE


class TestOneModelPerCompile:
    @pytest.mark.parametrize(
        "point, level",
        [(None, 0), ("pass.allocate_splitting", 1), ("pass.placement", 3)],
    )
    def test_degradation_chain_builds_one_model(self, monkeypatch, point, level):
        # Without a model, ``run_lcmm`` builds one and every attempt of
        # the degradation chain, the UMM floor included, shares it.
        builds = []
        init = LatencyModel.__init__

        def counted(self, graph, accel):
            builds.append(accel)
            init(self, graph, accel)

        monkeypatch.setattr(LatencyModel, "__init__", counted)
        graph = get_model("alexnet")
        accel = model_reference_design("alexnet", INT8, "lcmm")
        plans = [FaultPlan(point, mode="raise")] if point else []
        with injected(*plans):
            result = run_lcmm(graph, accel)
        assert result.degradation_level == level
        assert builds == [accel]


@pytest.fixture
def fresh_designs(monkeypatch):
    """An empty design cache for this test; the process's is restored after."""
    cache = OrderedDict()
    monkeypatch.setattr(latency, "_DESIGN_CACHE", cache)
    return cache


def _cached_designs() -> list:
    """The (graph, design) pairs the design cache holds, least recent first."""
    return [(model.graph, model.accel) for model in latency._DESIGN_CACHE.values()]


class TestDesignModel:
    """One design cache serves every compile and DSE score of a design."""

    def test_compile_then_dse_build_one_model(self, fresh_designs, monkeypatch):
        builds = []
        init = LatencyModel.__init__

        def counted(self, graph, accel):
            builds.append(accel)
            init(self, graph, accel)

        monkeypatch.setattr(LatencyModel, "__init__", counted)
        compile_job("alexnet", "dnnk", "int8", None)
        payload = run_dse_job("alexnet", "int8", 2.0, 1, None)
        assert payload["points"]
        assert builds == [zoo_design("alexnet", "int8")[1]]

    def test_grown_graph_gets_a_new_model(self, fresh_designs):
        graph, accel = build_chain(num_convs=2), small_accel()
        before = design_model(graph, accel)
        assert design_model(graph, accel) is before

        conv(graph, "c3", "c2", 64, 1)

        after = design_model(graph, accel)
        assert after is not before
        assert after.nodes() == ["c1", "c2", "c3"]
        assert design_model(graph, accel) is after

    def test_threads_share_one_model(self, fresh_designs, monkeypatch):
        init = LatencyModel.__init__

        def slow(self, graph, accel):
            # Widens the window in which both threads miss the cache.
            time.sleep(0.05)
            init(self, graph, accel)

        monkeypatch.setattr(LatencyModel, "__init__", slow)
        graph, accel = build_chain(), small_accel()
        start = threading.Barrier(2)
        models = []

        def ask():
            start.wait()
            models.append(design_model(graph, accel))

        threads = [threading.Thread(target=ask) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(models) == 2 and models[0] is models[1]
        assert list(fresh_designs.values()) == [models[0]]
