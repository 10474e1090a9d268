"""Unit tests for the fault-injection harness itself."""

import pytest

from repro.errors import ConfigError, InjectedFault, ReproError
from repro.robustness.inject import (
    ArmedFault,
    FaultPlan,
    active_plans,
    arm,
    declare_fault_point,
    disarm,
    disarm_all,
    fault_point,
    injected,
    install_plans,
    registered_fault_points,
)


@pytest.fixture(autouse=True)
def _clean_slate():
    disarm_all()
    yield
    disarm_all()


class TestPlanValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault mode"):
            FaultPlan("p", mode="explode")

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match="rate"):
            FaultPlan("p", rate=1.5)

    def test_plans_are_picklable(self):
        import pickle

        plan = FaultPlan("dse.chunk", mode="hang", rate=0.5, seed=7, max_fires=3)
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestRegistry:
    def test_core_points_declared_on_import(self):
        import repro.lcmm.passes.standard  # noqa: F401 - registers passes
        import repro.perf.dse  # noqa: F401
        import repro.perf.engine  # noqa: F401

        points = registered_fault_points()
        assert "pass.allocate_dnnk" in points
        assert "pass.score" in points
        assert "engine.set_state" in points
        assert "dse.chunk" in points

    def test_declare_is_idempotent(self):
        declare_fault_point("test.point", "first")
        declare_fault_point("test.point", "second")
        assert registered_fault_points()["test.point"] == "first"


class TestFiring:
    def test_unarmed_point_is_free(self):
        fault_point("test.nothing-armed")  # must not raise

    def test_armed_point_raises(self):
        arm(FaultPlan("test.p"))
        with pytest.raises(InjectedFault):
            fault_point("test.p")

    def test_injected_fault_is_repro_error(self):
        assert issubclass(InjectedFault, ReproError)

    def test_context_travels_into_the_error(self):
        arm(FaultPlan("test.p"))
        with pytest.raises(InjectedFault) as info:
            fault_point("test.p", pass_name="score", chunk=3)
        assert info.value.pass_name == "score"
        assert info.value.details["chunk"] == 3

    def test_disarm_stops_firing(self):
        arm(FaultPlan("test.p"))
        disarm("test.p")
        fault_point("test.p")

    def test_max_fires_limits_transient_fault(self):
        armed = arm(FaultPlan("test.p", max_fires=1))
        with pytest.raises(InjectedFault):
            fault_point("test.p")
        fault_point("test.p")  # spent; must pass
        assert armed.hits == 2
        assert armed.fires == 1

    def test_rate_zero_never_fires(self):
        armed = arm(FaultPlan("test.p", rate=0.0))
        for _ in range(20):
            fault_point("test.p")
        assert armed.hits == 20 and armed.fires == 0

    def test_seeded_activation_is_deterministic(self):
        def pattern(seed: int) -> list[bool]:
            disarm_all()
            arm(FaultPlan("test.p", rate=0.5, seed=seed))
            fired = []
            for _ in range(32):
                try:
                    fault_point("test.p")
                    fired.append(False)
                except InjectedFault:
                    fired.append(True)
            return fired

        assert pattern(3) == pattern(3)
        assert pattern(3) != pattern(4)  # different stream

    def test_hang_mode_sleeps_then_continues(self):
        import time

        arm(FaultPlan("test.p", mode="hang", hang_seconds=0.05))
        start = time.monotonic()
        fault_point("test.p")  # must not raise
        assert time.monotonic() - start >= 0.05


class TestContextManager:
    def test_injected_disarms_on_exit(self):
        with injected(FaultPlan("test.p")) as armed:
            assert "test.p" in armed
            with pytest.raises(InjectedFault):
                fault_point("test.p")
        fault_point("test.p")  # disarmed

    def test_injected_disarms_on_exception(self):
        with pytest.raises(RuntimeError):
            with injected(FaultPlan("test.p")):
                raise RuntimeError("boom")
        fault_point("test.p")

    def test_yields_counters(self):
        with injected(FaultPlan("test.p", rate=0.0)) as armed:
            fault_point("test.p")
            assert armed["test.p"].hits == 1


class TestCacheFaultPoints:
    """The cache absorbs its own fault points: never fails a compile."""

    def test_cache_get_fault_is_a_counted_miss(self, tmp_path):
        from repro.cache.store import CompilationCache

        primer = CompilationCache(tmp_path)
        primer.put("a" * 64, {"x": 1})
        # Fresh instance so the lookup must go to disk (no memory hit).
        cache = CompilationCache(tmp_path)
        with injected(FaultPlan("cache.get")):
            assert cache.get("a" * 64) is None
        assert cache.stats.errors == 1
        assert cache.stats.misses == 1
        # Disarmed: the artifact was never harmed.
        assert cache.get("a" * 64) == {"x": 1}

    def test_cache_put_fault_drops_disk_but_memory_serves(self, tmp_path):
        from repro.cache.store import CompilationCache

        cache = CompilationCache(tmp_path)
        with injected(FaultPlan("cache.put")):
            cache.put("b" * 64, {"y": 2})
        assert cache.stats.errors == 1
        assert cache.stats.stores == 1  # the store still counts
        # Memory LRU remembers the value...
        assert cache.get("b" * 64) == {"y": 2}
        # ...but nothing reached disk: a fresh instance misses.
        assert CompilationCache(tmp_path).get("b" * 64) is None

    def test_compile_is_correct_under_cache_faults(self, tmp_path):
        from repro.cache.batch import standard_options, zoo_design
        from repro.fingerprint import fingerprint
        from repro.lcmm.framework import run_lcmm

        graph, accel = zoo_design("alexnet", "int8")
        options = standard_options("dnnk")
        clean = run_lcmm(graph, accel, options=options)
        with injected(FaultPlan("cache.get"), FaultPlan("cache.put")):
            from repro.serve.jobs import run_compile_job

            payload = run_compile_job("alexnet", "dnnk", "int8", str(tmp_path))
        assert payload["degradation_level"] == 0
        assert payload["fingerprint"] == fingerprint(clean)

    def test_disarm_restores_normal_cache_behaviour(self, tmp_path):
        from repro.cache.store import CompilationCache

        cache = CompilationCache(tmp_path)
        with injected(FaultPlan("cache.put")):
            cache.put("c" * 64, 1)
        cache.put("c" * 64, 2)
        assert CompilationCache(tmp_path).get("c" * 64) == 2
        assert cache.stats.errors == 1  # only the armed write failed


class TestWorkerHandoff:
    def test_active_plans_snapshot(self):
        plan = FaultPlan("test.p", mode="hang")
        arm(plan)
        assert active_plans() == (plan,)

    def test_install_plans_rearms(self):
        plan = FaultPlan("test.p")
        snapshot = (plan,)
        disarm_all()
        install_plans(snapshot)
        with pytest.raises(InjectedFault):
            fault_point("test.p")
