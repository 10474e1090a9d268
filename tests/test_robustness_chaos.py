"""Chaos suite: every registered fault point, injected, must degrade cleanly.

The fault-tolerance guarantee under test (ISSUE 3 acceptance criterion):
with a fault injected at *any* registered fault point during
:func:`run_lcmm`, the compiler still returns a result that

* passes :func:`validate_result` (all structural invariants hold),
* is never slower than the UMM baseline, and
* records its degradation level in the result diagnostics whenever the
  fault actually fired.

And with injection disabled, results are bit-for-bit identical to a run
that never touched the harness.

Seeds come from ``CHAOS_SEED`` (default 0) so CI can sweep them; set
``CHAOS_ZOO=1`` to run the persistent-fault matrix over the full model
zoo instead of the fast two-model default.
"""

import os

import pytest

# Importing these modules declares the production fault points.
import repro.lcmm.passes.standard  # noqa: F401
import repro.perf.dse  # noqa: F401
import repro.perf.engine  # noqa: F401
from repro.errors import ReproError
from repro.fingerprint import fingerprint
from repro.lcmm.framework import LCMMOptions, run_lcmm, umm_only_result
from repro.lcmm.validate import validate_result
from repro.models.zoo import get_model, list_models
from repro.perf.latency import LatencyModel
from repro.robustness.inject import (
    FaultPlan,
    disarm_all,
    injected,
    registered_fault_points,
)

from tests.conftest import small_accel

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))

MODELS = (
    list_models() if os.environ.get("CHAOS_ZOO") == "1"
    else ["squeezenet", "googlenet"]
)

#: Every point the production code registers.  ``crash`` would kill the
#: test runner at in-parent points, so the chaos matrix uses ``raise``.
FAULT_POINTS = sorted(registered_fault_points())


@pytest.fixture(autouse=True)
def _clean_slate():
    disarm_all()
    yield
    disarm_all()


def _build(model_name):
    graph = get_model(model_name)
    accel = small_accel(ddr_efficiency=0.1)
    model = LatencyModel(graph, accel)
    return graph, accel, model


def _fingerprint(result):
    return (
        repr(result.latency),
        sorted(result.onchip_tensors),
        sorted((b.name, tuple(t.name for t in b.virtual.tensors))
               for b in result.physical_buffers),
        sorted((k, repr(v)) for k, v in result.residuals.items()),
    )


class TestPersistentFaults:
    @pytest.mark.parametrize("model_name", MODELS)
    @pytest.mark.parametrize("point", FAULT_POINTS)
    def test_degrades_cleanly(self, model_name, point):
        graph, accel, model = _build(model_name)
        with injected(FaultPlan(point, mode="raise", seed=CHAOS_SEED)) as armed:
            result = run_lcmm(graph, accel, model=model)
            fired = armed[point].fires
        validate_result(result, model)
        assert result.latency <= model.umm_latency() + 1e-12
        if fired:
            # The fault hit the executed path: the result must admit it.
            assert result.degradation_level >= 1
            assert result.degradation_path
            assert any(d.category == "degraded" for d in result.diagnostics)
        else:
            # Point not on this configuration's path (e.g. dse.chunk, or
            # an optional pass): the run must be entirely unaffected.
            assert result.degradation_level == 0

    @pytest.mark.parametrize("point", FAULT_POINTS)
    def test_no_fallback_surfaces_the_fault(self, point):
        graph, accel, model = _build("squeezenet")
        with injected(FaultPlan(point, mode="raise", seed=CHAOS_SEED)) as armed:
            try:
                result = run_lcmm(graph, accel, model=model, fallback=False)
            except ReproError:
                assert armed[point].fires >= 1  # a real fault, surfaced
            else:
                assert armed[point].fires == 0  # point never on the path
                validate_result(result, model)


class TestTransientFaults:
    @pytest.mark.parametrize("model_name", MODELS)
    def test_single_fire_recovers(self, model_name):
        graph, accel, model = _build(model_name)
        plan = FaultPlan(
            "pass.allocate_splitting", mode="raise", seed=CHAOS_SEED, max_fires=1
        )
        with injected(plan) as armed:
            result = run_lcmm(graph, accel, model=model)
        assert armed[plan.point].fires == 1
        validate_result(result, model)
        assert result.latency <= model.umm_latency() + 1e-12
        assert result.degradation_level >= 1


class TestUmmFloor:
    @pytest.mark.parametrize("model_name", MODELS)
    def test_floor_is_valid_and_fault_free(self, model_name):
        # The last link of the degradation chain uses no pass machinery
        # and no engine, so it must survive *any* armed fault untouched.
        graph, accel, model = _build(model_name)
        plans = [
            FaultPlan(p, mode="raise", seed=CHAOS_SEED) for p in FAULT_POINTS
        ]
        with injected(*plans):
            floor = umm_only_result(graph, accel, model=model)
        validate_result(floor, model)
        assert repr(floor.latency) == repr(model.umm_latency())

    @pytest.mark.parametrize("model_name", MODELS)
    def test_all_points_armed_still_terminates(self, model_name):
        graph, accel, model = _build(model_name)
        plans = [
            FaultPlan(p, mode="raise", seed=CHAOS_SEED) for p in FAULT_POINTS
        ]
        with injected(*plans):
            result = run_lcmm(graph, accel, model=model)
        validate_result(result, model)
        assert result.latency <= model.umm_latency() + 1e-12
        assert result.pipeline_description == "umm-only"


class TestFusionDegradation:
    """Faults in the fusion-era passes walk the full fallback chain.

    A fused pipeline (``fuse_layers`` + ``transfer_schedule``) must
    degrade *fused -> unfused -> greedy -> UMM floor*: the fused attempt
    is abandoned whole (its label is recorded in ``degradation_path``),
    the landed result carries no fused edges, and stacking more faults
    keeps pushing the run down the same chain it would walk without
    fusion.
    """

    FUSED_OPTIONS = LCMMOptions(fuse_layers=True, transfer_schedule=True)

    @pytest.mark.parametrize("model_name", MODELS)
    @pytest.mark.parametrize(
        "point", ["pass.fuse_layers", "pass.transfer_schedule"]
    )
    def test_fused_fault_lands_unfused(self, model_name, point):
        graph, accel, model = _build(model_name)
        with injected(FaultPlan(point, mode="raise", seed=CHAOS_SEED)) as armed:
            result = run_lcmm(
                graph, accel, model=model, options=self.FUSED_OPTIONS
            )
            assert armed[point].fires >= 1
        validate_result(result, model)
        assert result.degradation_level == 1
        assert result.degradation_path == ("fused-dnnk-splitting",)
        assert result.fused_edges == ()
        assert result.transfer_timeline is None
        assert result.latency <= model.umm_latency() + 1e-12

    def test_stacked_faults_walk_the_whole_chain(self):
        graph, accel, model = _build("squeezenet")
        chain = [
            ("pass.fuse_layers",),
            ("pass.fuse_layers", "pass.allocate_dnnk"),
            ("pass.fuse_layers", "pass.allocate_dnnk", "pass.allocate_greedy"),
        ]
        paths = []
        for points in chain:
            plans = [
                FaultPlan(p, mode="raise", seed=CHAOS_SEED) for p in points
            ]
            with injected(*plans):
                result = run_lcmm(
                    graph, accel, model=model, options=self.FUSED_OPTIONS
                )
            validate_result(result, model)
            assert result.degradation_level == len(points)
            assert result.fused_edges == ()
            assert result.latency <= model.umm_latency() + 1e-12
            paths.append(result.degradation_path)
        assert paths[0] == ("fused-dnnk-splitting",)
        # Each extra fault extends the recorded path by the next link.
        assert paths[1][: len(paths[0])] == paths[0] and len(paths[1]) == 2
        assert paths[2][: len(paths[1])] == paths[1] and len(paths[2]) == 3

    @pytest.mark.parametrize("model_name", MODELS)
    def test_transient_fusion_fault_recovers(self, model_name):
        graph, accel, model = _build(model_name)
        plan = FaultPlan(
            "pass.fuse_layers", mode="raise", seed=CHAOS_SEED, max_fires=1
        )
        with injected(plan) as armed:
            result = run_lcmm(
                graph, accel, model=model, options=self.FUSED_OPTIONS
            )
        assert armed[plan.point].fires == 1
        validate_result(result, model)
        assert result.degradation_level >= 1
        assert result.degradation_path[0] == "fused-dnnk-splitting"


class TestSharedModelFaults:
    """A fault in one compile leaves nothing half-made on its model.

    Every compile of a design shares the allocator outcomes and the fused
    model memoised on its latency model, so a fault on the first compile
    must not leave a partial outcome there: the next compile of the
    design equals a compile on a fresh model.
    """

    CONFIGS = (
        LCMMOptions(splitting=False),
        LCMMOptions(),
        LCMMOptions(fuse_layers=True),
        LCMMOptions(fuse_layers=True, transfer_schedule=True),
    )

    @pytest.mark.parametrize("model_name", MODELS)
    @pytest.mark.parametrize("point", ["pass.allocate_splitting", "engine.set_state"])
    def test_next_compile_equals_fresh(self, model_name, point):
        graph, accel, model = _build(model_name)
        plan = FaultPlan(point, mode="raise", seed=CHAOS_SEED, max_fires=1)
        with injected(plan) as armed:
            faulted = run_lcmm(graph, accel, model=model, options=self.CONFIGS[2])
        assert armed[point].fires == 1
        assert faulted.degradation_level >= 1
        validate_result(faulted, model)
        for options in self.CONFIGS:
            shared = run_lcmm(graph, accel, model=model, options=options)
            fresh = run_lcmm(
                graph, accel, model=LatencyModel(graph, accel), options=options
            )
            assert shared.degradation_level == 0
            assert fingerprint(shared) == fingerprint(fresh), options


class TestPersistentPoolLifecycle:
    """``dse.chunk`` faults against a caller-owned worker pool.

    The guarantee: a hang or crash in a pooled chunk triggers
    the fresh-pool retry path (the executor is refreshed, results stay
    exact) without losing the pool — the pool object survives the fault
    and stays usable until its owner closes it.
    """

    def _sweep(self, pool=None, **kwargs):
        from repro.perf.dse import WorkerStats
        from tests.conftest import build_chain, sweep_base

        graph = pool.graph if pool is not None else build_chain()
        accel = small_accel()
        stats = WorkerStats()
        points = sweep_base(
            graph, accel, 10 * 2**20, workers=2, stats=stats, pool=pool,
            **kwargs,
        )
        return [(p.accel.tile, p.umm_latency) for p in points], stats

    @staticmethod
    def _pool():
        from repro.perf.pool import ScorerPool
        from tests.conftest import build_chain

        return ScorerPool(build_chain(), 2)

    def test_crash_refreshes_executor_not_pool(self):
        clean, _ = self._sweep()
        with injected(FaultPlan("dse.chunk", mode="crash", seed=CHAOS_SEED)):
            armed_pool = self._pool()
            try:
                chaotic, stats = self._sweep(pool=armed_pool)
                # The executor was replaced, the pool object survived.
                assert not armed_pool.closed
                assert armed_pool.generation >= 1
            finally:
                armed_pool.close()
        assert chaotic == clean  # exact results despite the dying workers
        assert stats.pool_broken and stats.serial_chunks >= 1

    def test_hang_refreshes_executor_not_pool(self):
        clean, _ = self._sweep()
        plan = FaultPlan(
            "dse.chunk", mode="hang", hang_seconds=30.0, seed=CHAOS_SEED
        )
        with injected(plan):
            armed_pool = self._pool()
            try:
                chaotic, stats = self._sweep(
                    pool=armed_pool, chunk_timeout=0.2, chunk_retries=1
                )
                # The stranded (uncancellable) hung worker cost the
                # executor its life, not the pool.
                assert not armed_pool.closed
                assert armed_pool.generation >= 1
            finally:
                armed_pool.close()
        assert chaotic == clean
        assert stats.timeouts >= 1 and stats.serial_chunks >= 1

    def test_disarming_retires_the_armed_pool(self):
        # Workers get fault plans via the initializer, so a pool carries
        # the plans armed when it was built: an armed pool recovers from
        # its faults, and once it is closed a clean sweep builds a clean
        # pool of its own.
        clean, _ = self._sweep()
        with injected(FaultPlan("dse.chunk", mode="crash", seed=CHAOS_SEED)):
            armed = self._pool()
            try:
                _, armed_stats = self._sweep(pool=armed)
            finally:
                armed.close()
        assert armed.plans and armed.closed and armed_stats.recovered()
        after_points, after_stats = self._sweep()
        assert after_points == clean and not after_stats.recovered()


class TestDeterminism:
    @pytest.mark.parametrize("model_name", MODELS)
    def test_disabled_injection_is_bit_for_bit_identical(self, model_name):
        graph, accel, model = _build(model_name)
        baseline = _fingerprint(run_lcmm(graph, accel, model=model))
        # Arm, run, disarm: the harness must leave no residue.
        with injected(FaultPlan("pass.score", mode="raise", seed=CHAOS_SEED)):
            run_lcmm(graph, accel, model=model)
        after = _fingerprint(run_lcmm(graph, accel, model=model))
        assert after == baseline

    def test_degraded_runs_are_reproducible(self):
        graph, accel, model = _build("squeezenet")
        plan = FaultPlan("pass.allocate_splitting", mode="raise", seed=CHAOS_SEED)
        with injected(plan):
            first = _fingerprint(run_lcmm(graph, accel, model=model))
        with injected(plan):
            second = _fingerprint(run_lcmm(graph, accel, model=model))
        assert first == second
