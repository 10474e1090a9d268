"""End-to-end tests of the serving daemon in inline (thread-pool) mode.

These exercise the full front door — admission, quotas, the bounded
queue, single-flight coalescing, deadlines, degradation labeling — over
real HTTP on a loopback socket, with jobs running on in-process threads
so the whole suite stays fast.  Crash-mode chaos (which needs process
isolation) lives in ``test_serve_chaos.py``.
"""

import json
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.obs.metrics import registry, reset_registry
from repro.robustness.inject import FaultPlan, disarm_all, injected
from repro.serve import ServerConfig, ServerThread, ServiceConfig


@pytest.fixture(autouse=True)
def _clean_slate():
    disarm_all()
    reset_registry()
    yield
    disarm_all()


def request(server: ServerThread, method: str, path: str, payload=None, timeout=60):
    conn = HTTPConnection(server.host, server.port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body, {"Content-Type": "application/json"})
        response = conn.getresponse()
        raw = response.read()
        headers = dict(response.getheaders())
    finally:
        conn.close()
    try:
        decoded = json.loads(raw)
    except (ValueError, UnicodeDecodeError):
        decoded = raw
    return response.status, decoded, headers


@pytest.fixture
def server(tmp_path):
    thread = ServerThread(
        ServiceConfig(inline=True, workers=2, cache_dir=str(tmp_path / "cache"))
    ).start()
    yield thread
    thread.stop()


class TestHappyPath:
    def test_cold_then_warm_compile(self, server):
        status, cold, _ = request(
            server, "POST", "/v1/compile", {"model": "alexnet", "config": "dnnk"}
        )
        assert status == 200
        assert cold["cache_hit"] is False
        assert cold["degradation_level"] == 0
        assert cold["latency"] > 0
        assert cold["fingerprint"]
        assert cold["request_id"]

        status, warm, _ = request(
            server, "POST", "/v1/compile", {"model": "alexnet", "config": "dnnk"}
        )
        assert status == 200
        assert warm["cache_hit"] is True
        # Served artifacts are bit-identical to a fresh compile.
        assert warm["fingerprint"] == cold["fingerprint"]
        assert warm["latency"] == cold["latency"]

    def test_umm_config_served(self, server):
        status, payload, _ = request(
            server, "POST", "/v1/compile", {"model": "alexnet", "config": "umm"}
        )
        assert status == 200
        assert payload["degradation_level"] == 0

    def test_dse_request(self, server):
        status, payload, _ = request(
            server, "POST", "/v1/dse", {"model": "alexnet", "budget_mb": 2.0, "top": 3}
        )
        assert status == 200
        assert payload["feasible_points"] > 0
        assert len(payload["points"]) == 3
        assert payload["points"][0]["umm_latency"] > 0

    def test_healthz_and_readyz(self, server):
        assert request(server, "GET", "/healthz")[0] == 200
        status, payload, _ = request(server, "GET", "/readyz")
        assert status == 200
        assert payload["ready"] is True

    def test_stats_endpoint(self, server):
        request(server, "POST", "/v1/compile", {"model": "alexnet", "config": "umm"})
        status, payload, _ = request(server, "GET", "/v1/stats")
        assert status == 200
        assert payload["server"]["requests"] >= 1
        assert payload["service"]["breaker"]["state"] == "closed"
        assert payload["service"]["pool"]["kind"] == "InlineWorkers"

    def test_metrics_endpoint_is_prometheus_text(self, server):
        request(server, "POST", "/v1/compile", {"model": "alexnet", "config": "umm"})
        status, body, headers = request(server, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode()
        assert "# TYPE serve_requests counter" in text
        assert 'serve_requests{route="/v1/compile",status="200"}' in text
        assert "serve_inflight" in text

    def test_request_trace_download(self, server):
        _, payload, _ = request(
            server, "POST", "/v1/compile", {"model": "alexnet", "config": "umm"}
        )
        status, trace, _ = request(
            server, "GET", f"/v1/requests/{payload['request_id']}/trace"
        )
        assert status == 200
        record = trace["trace"]
        assert record["path"] == "/v1/compile"
        assert record["status"] == 200
        names = [event["name"] for event in record["events"]]
        assert names == ["admitted", "slot-acquired", "finished"]

    def test_unknown_trace_404(self, server):
        assert request(server, "GET", "/v1/requests/r999999/trace")[0] == 404


class TestDseModelNames:
    """DSE requests validate the name without building the graph."""

    def test_no_zoo_builder_runs_on_the_server_side(self, server, monkeypatch):
        from repro.cache import batch
        from repro.models import zoo

        # The job builds its graph once per process; start with none built.
        monkeypatch.setattr(batch, "_GRAPH_MEMO", {})
        threads = []
        for name, builder in list(zoo.MODEL_BUILDERS.items()):
            monkeypatch.setitem(
                zoo.MODEL_BUILDERS,
                name,
                lambda builder=builder: threads.append(
                    threading.current_thread().name
                ) or builder(),
            )
        status, _, _ = request(
            server, "POST", "/v1/dse", {"model": "alexnet", "budget_mb": 2.0, "top": 1}
        )
        assert status == 200
        # Only the job's own build, on a worker thread.
        assert len(threads) == 1 and threads[0].startswith("serve-inline")

    def test_alias_gets_the_canonical_payload(self, server):
        def dse(model):
            status, payload, _ = request(
                server, "POST", "/v1/dse", {"model": model, "budget_mb": 2.0, "top": 3}
            )
            assert status == 200
            return {k: v for k, v in payload.items() if k not in ("seconds", "request_id")}

        assert dse("gn") == dse("googlenet")
        assert dse("gn")["model"] == "googlenet"

    def test_unknown_model_answers_like_get_model(self, server):
        from repro.errors import ModelNotFoundError, http_status
        from repro.models.zoo import get_model

        with pytest.raises(ModelNotFoundError) as built:
            get_model("nosuchnet")
        status, payload, _ = request(server, "POST", "/v1/dse", {"model": "nosuchnet"})
        assert status == http_status(built.value)
        assert payload["error"]["type"] == "ModelNotFoundError"
        assert payload["error"]["message"] == str(built.value)


class TestErrorMapping:
    def test_unknown_model_is_400(self, server):
        status, payload, _ = request(
            server, "POST", "/v1/compile", {"model": "nosuchnet"}
        )
        assert status == 400
        assert payload["error"]["type"] == "ModelNotFoundError"
        assert "unknown model" in payload["error"]["message"]

    def test_infeasible_budget_is_422(self, server):
        for budget_mb in (0.00001, -1):
            status, payload, _ = request(
                server, "POST", "/v1/dse", {"model": "alexnet", "budget_mb": budget_mb}
            )
            assert status == 422
            assert payload["error"]["type"] == "CapacityError"

    def test_unknown_config_is_400(self, server):
        status, payload, _ = request(
            server, "POST", "/v1/compile", {"model": "alexnet", "config": "warp9"}
        )
        assert status == 400
        assert payload["error"]["type"] == "ConfigError"

    def test_missing_model_is_400(self, server):
        assert request(server, "POST", "/v1/compile", {"config": "umm"})[0] == 400

    def test_invalid_json_is_400(self, server):
        conn = HTTPConnection(server.host, server.port, timeout=10)
        try:
            conn.request(
                "POST", "/v1/compile", "{nope", {"Content-Type": "application/json"}
            )
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_unknown_route_404_and_method_405(self, server):
        assert request(server, "GET", "/nope")[0] == 404
        assert request(server, "PUT", "/v1/compile", {})[0] == 405

    def test_bad_deadline_is_400(self, server):
        status, _, _ = request(
            server,
            "POST",
            "/v1/compile",
            {"model": "alexnet", "deadline_seconds": -1},
        )
        assert status == 400


class TestDegradationLabeling:
    def test_degraded_result_is_labeled_in_body_and_metrics(self, tmp_path):
        # No cache: a degraded result must never be served silently, and
        # the framework would refuse to cache it anyway.
        thread = ServerThread(ServiceConfig(inline=True, workers=1)).start()
        try:
            with injected(FaultPlan("pass.allocate_splitting", mode="raise")):
                status, payload, _ = request(
                    thread,
                    "POST",
                    "/v1/compile",
                    {"model": "alexnet", "config": "splitting"},
                )
            assert status == 200
            assert payload["degradation_level"] > 0
            assert payload["degradation_path"]  # names the abandoned attempts
            assert (
                registry().counter("serve.degraded_results").value() >= 1
            )
        finally:
            thread.stop()

    def test_strict_pipeline_failure_with_deadline_is_structured(self, tmp_path):
        # A worker-side injected failure at the serve boundary (before
        # the degradation chain can absorb it) surfaces as a structured
        # 500, never a hung request or an unlabeled success.
        thread = ServerThread(ServiceConfig(inline=True, workers=1)).start()
        try:
            with injected(FaultPlan("serve.worker", mode="raise")):
                status, payload, _ = request(
                    thread, "POST", "/v1/compile", {"model": "alexnet"}
                )
            assert status == 500
            assert payload["error"]["type"] == "InjectedFault"
        finally:
            thread.stop()


class TestDeadlines:
    def test_worker_hang_past_deadline_is_504(self):
        thread = ServerThread(ServiceConfig(inline=True, workers=1)).start()
        try:
            with injected(
                FaultPlan("serve.worker", mode="hang", hang_seconds=1.0)
            ):
                start = time.perf_counter()
                status, payload, _ = request(
                    thread,
                    "POST",
                    "/v1/compile",
                    {"model": "alexnet", "deadline_seconds": 0.2},
                )
                elapsed = time.perf_counter() - start
            assert status == 504
            assert payload["error"]["type"] == "DeadlineExceeded"
            assert elapsed < 5.0  # bounded, not wedged
            # The daemon still works afterwards.
            status, _, _ = request(
                thread, "POST", "/v1/compile", {"model": "alexnet", "config": "umm"}
            )
            assert status == 200
        finally:
            thread.stop()

    def test_deadline_clamped_to_max(self):
        thread = ServerThread(
            ServiceConfig(inline=True, workers=1, max_deadline=7.0)
        ).start()
        try:
            status, payload, _ = request(
                thread,
                "POST",
                "/v1/compile",
                {"model": "alexnet", "config": "umm", "deadline_seconds": 9999},
            )
            assert status == 200
            assert payload["deadline_seconds"] == 7.0
        finally:
            thread.stop()


class TestSingleFlight:
    def test_concurrent_identical_requests_coalesce(self):
        thread = ServerThread(ServiceConfig(inline=True, workers=2)).start()
        try:
            # The leader hangs briefly in the worker so the follower
            # reliably arrives while the job is in flight.
            results = []

            def hit():
                results.append(
                    request(
                        thread,
                        "POST",
                        "/v1/compile",
                        {"model": "resnet50", "config": "dnnk"},
                    )
                )

            with injected(
                FaultPlan(
                    "serve.worker", mode="hang", hang_seconds=0.5, max_fires=1
                )
            ):
                workers = [threading.Thread(target=hit) for _ in range(2)]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join()
            assert all(status == 200 for status, _, _ in results)
            fingerprints = {
                json.dumps(payload["fingerprint"], sort_keys=True)
                for _, payload, _ in results
            }
            assert len(fingerprints) == 1  # one result, shared
            assert any(payload.get("coalesced") for _, payload, _ in results)
            assert registry().counter("serve.coalesced").value() >= 1
        finally:
            thread.stop()


class TestLoadShedding:
    def test_queue_overflow_sheds_429_with_retry_after(self):
        thread = ServerThread(
            ServiceConfig(inline=True, workers=1),
            ServerConfig(max_inflight=1, queue_depth=0),
        ).start()
        try:
            statuses = []
            lock = threading.Lock()

            def hit(index):
                # Distinct keys so single-flight cannot absorb the burst.
                status, payload, headers = request(
                    thread,
                    "POST",
                    "/v1/compile",
                    {"model": "alexnet", "config": "dnnk", "tenant": f"t{index}"},
                )
                with lock:
                    statuses.append((status, payload, headers))

            with injected(
                FaultPlan(
                    "serve.worker", mode="hang", hang_seconds=0.6, max_fires=1
                )
            ):
                first = threading.Thread(target=hit, args=(0,))
                first.start()
                time.sleep(0.15)  # let the leader occupy the only slot
                status, payload, headers = request(
                    thread,
                    "POST",
                    "/v1/compile",
                    {"model": "resnet50", "config": "dnnk"},
                )
                first.join()
            assert status == 429
            assert payload["error"]["type"] == "OverloadedError"
            assert payload["error"]["context"]["reason"] == "queue"
            assert int(headers["Retry-After"]) >= 1
            assert statuses[0][0] == 200  # the admitted request finished
            assert registry().counter("serve.shed").value(reason="queue") >= 1
        finally:
            thread.stop()

    def test_tenant_quota_sheds_429(self):
        thread = ServerThread(
            ServiceConfig(inline=True, workers=1),
            ServerConfig(quota_rate=0.5, quota_burst=1.0),
        ).start()
        try:
            body = {"model": "alexnet", "config": "umm", "tenant": "greedy"}
            assert request(thread, "POST", "/v1/compile", body)[0] == 200
            status, payload, headers = request(thread, "POST", "/v1/compile", body)
            assert status == 429
            assert payload["error"]["context"]["reason"] == "quota"
            assert int(headers["Retry-After"]) >= 1
            # Another tenant is unaffected.
            other = {"model": "alexnet", "config": "umm", "tenant": "patient"}
            assert request(thread, "POST", "/v1/compile", other)[0] == 200
        finally:
            thread.stop()


class TestDrain:
    def test_drain_rejects_new_work_and_reports_clean(self, tmp_path):
        thread = ServerThread(
            ServiceConfig(inline=True, workers=1, cache_dir=str(tmp_path))
        ).start()
        request(thread, "POST", "/v1/compile", {"model": "alexnet", "config": "umm"})
        assert thread.stop() is True  # nothing in flight: clean drain
