"""Unit tests for the serving primitives: breaker, quota, deadline,
Prometheus rendering, and the error -> exit-code/HTTP-status taxonomy."""

import time

import pytest

from repro.errors import (
    AllocationError,
    CapacityError,
    ConfigError,
    DeadlineExceeded,
    GraphValidationError,
    InjectedFault,
    ModelNotFoundError,
    OverloadedError,
    PassError,
    ReproError,
    WorkerError,
    exit_code,
    http_status,
)
from repro.obs.export import prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.robustness.deadline import (
    check_deadline,
    current_deadline,
    deadline_scope,
    remaining,
)
from repro.serve.breaker import CircuitBreaker
from repro.serve.quota import QuotaManager, TokenBucket


class FakeClock:
    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestCircuitBreaker:
    def test_starts_closed_and_allows(self):
        breaker = CircuitBreaker()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_opens_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, clock=clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.opens == 1

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_after_cooldown_with_bounded_probes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_seconds=10.0, half_open_probes=1, clock=clock
        )
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(10.0)
        assert breaker.state == "half-open"
        assert breaker.allow()  # the one probe
        assert not breaker.allow()  # no second concurrent probe

    def test_half_open_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_failure_reopens_and_restarts_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.opens == 2
        assert breaker.retry_after() == pytest.approx(5.0)
        clock.advance(2.0)
        assert breaker.retry_after() == pytest.approx(3.0)

    def test_retry_after_zero_when_not_open(self):
        assert CircuitBreaker().retry_after() == 0.0


class TestTokenBucket:
    def test_burst_then_empty(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=clock)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=clock)
        bucket.try_acquire()
        bucket.try_acquire()
        clock.advance(0.5)  # +1 token
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_retry_after_is_honest(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=0.5, burst=1.0, clock=clock)
        bucket.try_acquire()
        assert bucket.retry_after() == pytest.approx(2.0)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ConfigError):
            TokenBucket(rate=0.0, burst=1.0)


class TestQuotaManager:
    def test_disabled_admits_everything(self):
        quota = QuotaManager(rate=None)
        for _ in range(100):
            allowed, retry_after = quota.admit("anyone")
            assert allowed and retry_after == 0.0

    def test_tenants_are_isolated(self):
        clock = FakeClock()
        quota = QuotaManager(rate=1.0, burst=1.0, clock=clock)
        assert quota.admit("a")[0]
        assert not quota.admit("a")[0]
        assert quota.admit("b")[0]  # b's bucket is untouched by a

    def test_shed_carries_retry_after(self):
        clock = FakeClock()
        quota = QuotaManager(rate=0.5, burst=1.0, clock=clock)
        quota.admit("a")
        allowed, retry_after = quota.admit("a")
        assert not allowed
        assert retry_after == pytest.approx(2.0)

    def test_tenant_map_is_bounded(self):
        quota = QuotaManager(rate=1.0, burst=1.0, max_tenants=4)
        for i in range(20):
            quota.admit(f"tenant-{i}")
        assert quota.snapshot()["tenants"] <= 4


class TestDeadlineScope:
    def test_no_deadline_by_default(self):
        assert current_deadline() is None
        assert remaining() is None
        check_deadline("anywhere")  # free and silent

    def test_scope_installs_and_restores(self):
        with deadline_scope(10.0) as installed:
            assert installed is not None
            assert 9.0 < remaining() <= 10.0
        assert current_deadline() is None

    def test_expired_scope_raises_with_checkpoint(self):
        with deadline_scope(0.0):
            with pytest.raises(DeadlineExceeded) as info:
                check_deadline("pass.score")
        assert info.value.details["checkpoint"] == "pass.score"
        assert info.value.details["over_seconds"] >= 0.0

    def test_nested_scope_keeps_the_tighter_deadline(self):
        with deadline_scope(10.0) as outer:
            with deadline_scope(1.0) as inner:
                assert inner < outer
            with deadline_scope(100.0) as widened:
                assert widened == outer  # inner scopes cannot extend

    def test_epoch_form_anchors_wall_clock(self):
        with deadline_scope(None, epoch=time.time() + 5.0):
            assert 4.0 < remaining() <= 5.0

    def test_seconds_and_epoch_are_mutually_exclusive(self):
        with pytest.raises(ConfigError):
            with deadline_scope(1.0, epoch=time.time()):
                pass

    def test_none_scope_is_a_passthrough(self):
        with deadline_scope(2.0):
            before = current_deadline()
            with deadline_scope(None):
                assert current_deadline() == before

    def test_deadline_exceeded_is_repro_error_and_timeout(self):
        assert issubclass(DeadlineExceeded, ReproError)
        assert issubclass(DeadlineExceeded, TimeoutError)


class TestPrometheusText:
    def test_counters_gauges_histograms_render(self):
        reg = MetricsRegistry()
        reg.counter("serve.requests", "requests seen").inc(route="/healthz")
        reg.counter("serve.requests").inc(2.0, route="/v1/compile")
        reg.gauge("serve.inflight", "active now").set(3)
        reg.histogram("serve.request_seconds", "latency").observe(0.25, route="/x")
        text = prometheus_text(reg.snapshot())
        assert "# TYPE serve_requests counter" in text
        assert 'serve_requests{route="/v1/compile"} 2' in text
        assert "# TYPE serve_inflight gauge" in text
        assert "serve_inflight 3" in text
        assert "# TYPE serve_request_seconds summary" in text
        assert 'serve_request_seconds_count{route="/x"} 1' in text
        assert 'serve_request_seconds_sum{route="/x"} 0.25' in text

    def test_names_and_label_values_are_sanitized(self):
        reg = MetricsRegistry()
        reg.counter("cache.hit", "hits").inc(namespace='we"ird')
        text = prometheus_text(reg.snapshot())
        assert "cache_hit" in text
        assert '\\"' in text  # the quote in the label value is escaped

    def test_empty_snapshot_renders_empty(self):
        assert prometheus_text({}) == ""


class TestErrorTaxonomyMapping:
    @pytest.mark.parametrize(
        "exc,code",
        [
            (ModelNotFoundError("nope"), 2),
            (ConfigError("bad flag"), 2),
            (GraphValidationError("cycle"), 2),
            (CapacityError("does not fit"), 2),
            (PassError("pass blew up"), 1),
            (WorkerError("pool died"), 1),
            (AllocationError("invariant"), 1),
            (InjectedFault("chaos"), 1),
            (ReproError("generic"), 1),
        ],
    )
    def test_exit_codes(self, exc, code):
        assert exit_code(exc) == code

    @pytest.mark.parametrize(
        "exc,status",
        [
            (ModelNotFoundError("nope"), 400),
            (ConfigError("bad"), 400),
            (GraphValidationError("cycle"), 400),
            (CapacityError("infeasible"), 422),
            (OverloadedError("shed"), 429),
            (DeadlineExceeded("late"), 504),
            (WorkerError("pool died"), 503),
            (PassError("bug"), 500),
            (ReproError("generic"), 500),
        ],
    )
    def test_http_statuses(self, exc, status):
        assert http_status(exc) == status


class TestJobKey:
    def test_alias_keys_as_its_canonical_name(self):
        from repro.serve.jobs import job_key

        assert job_key("GN", "dnnk", "int8") == job_key("googlenet", "dnnk", "int8")
        assert job_key(" ResNet-50 ", "umm", "int8") == job_key("resnet50", "umm", "int8")

    def test_unknown_model_raises_like_get_model(self):
        from repro.models.zoo import get_model
        from repro.serve.jobs import job_key

        with pytest.raises(ModelNotFoundError) as built:
            get_model("lenet")
        with pytest.raises(ModelNotFoundError) as keyed:
            job_key("lenet", "dnnk", "int8")
        assert str(keyed.value) == str(built.value)

    def test_warm_key_builds_no_graph(self, monkeypatch):
        from repro.models import zoo
        from repro.serve.jobs import job_key

        first = job_key("googlenet", "splitting", "int8")
        built = []
        for name, builder in list(zoo.MODEL_BUILDERS.items()):
            monkeypatch.setitem(
                zoo.MODEL_BUILDERS,
                name,
                lambda builder=builder: built.append(1) or builder(),
            )
        assert job_key("googlenet", "splitting", "int8") == first
        assert job_key("gn", "splitting", "int8") == first
        assert built == []
