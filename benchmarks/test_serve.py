"""Bench: the serving daemon's front door under load.

Drives a live (inline-worker) ``lcmm serve`` instance over real HTTP
and turns the daemon's value proposition into numbers and assertions,
written to ``BENCH_serve.json``:

* **cold vs warm**: every (model, config) pair is compiled once cold
  (cache miss) and then re-requested warm; the warm p50 must be at
  least **10x** lower than the cold p50 (asserted) — a daemon that
  recompiles on every request is just a slow CLI;
* **fidelity**: every served fingerprint — cold and warm — must be
  bit-identical to the pinned golden regression fingerprints in
  ``tests/golden`` (asserted);
* **throughput**: concurrent warm clients measure requests/second
  through the full admission / single-flight / deadline machinery;
* **overload**: at 2x the admission capacity the daemon must shed the
  excess with structured 429s (and serve the rest) rather than queue
  unboundedly (asserted: sheds some, serves some, every response is
  one or the other).
"""

from __future__ import annotations

import json
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from http.client import HTTPConnection
from pathlib import Path

from repro.robustness.inject import FaultPlan, disarm_all, injected
from repro.serve import ServerConfig, ServerThread, ServiceConfig

from conftest import write_bench

_GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"
_MIN_WARM_SPEEDUP = 10.0

#: The served matrix: heavyweight models so the cold pass has real work
#: to amortize, plus small ones so the warm path's constant cost shows.
_MATRIX = [
    ("alexnet", "dnnk"),
    ("alexnet", "splitting"),
    ("squeezenet", "splitting"),
    ("googlenet", "splitting"),
    ("mobilenet_v1", "dnnk"),
    ("resnet50", "splitting"),
    ("inception_v4", "splitting"),
    ("resnet152", "dnnk"),
]
_WARM_ROUNDS = 5
_THROUGHPUT_CLIENTS = 4
_THROUGHPUT_REQUESTS = 60


def _post(server: ServerThread, payload: dict, timeout: float = 300.0):
    conn = HTTPConnection(server.host, server.port, timeout=timeout)
    try:
        conn.request(
            "POST",
            "/v1/compile",
            json.dumps(payload),
            {"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        body = json.loads(response.read())
    finally:
        conn.close()
    return response.status, body


def _quantile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def _golden(model: str, config: str) -> dict:
    return json.loads((_GOLDEN_DIR / f"{model}.json").read_text())[config]


def test_serve_cold_warm_throughput_and_overload():
    disarm_all()
    results: dict = {}
    with tempfile.TemporaryDirectory(prefix="lcmm-bench-serve-") as cache_dir:
        thread = ServerThread(
            ServiceConfig(inline=True, workers=_THROUGHPUT_CLIENTS, cache_dir=cache_dir),
            ServerConfig(max_inflight=_THROUGHPUT_CLIENTS, queue_depth=16),
        ).start()
        try:
            # ---- cold pass: every request is a real compile ----------
            cold: list[float] = []
            for model, config in _MATRIX:
                start = time.perf_counter()
                status, body = _post(thread, {"model": model, "config": config})
                cold.append(time.perf_counter() - start)
                assert status == 200, body
                assert body["cache_hit"] is False
                assert body["degradation_level"] == 0
                assert body["fingerprint"] == _golden(model, config), (
                    f"{model}.{config}: served fingerprint diverges from golden"
                )

            # ---- warm pass: every request is an artifact lookup ------
            warm: list[float] = []
            for _ in range(_WARM_ROUNDS):
                for model, config in _MATRIX:
                    start = time.perf_counter()
                    status, body = _post(thread, {"model": model, "config": config})
                    warm.append(time.perf_counter() - start)
                    assert status == 200 and body["cache_hit"] is True
                    assert body["fingerprint"] == _golden(model, config)

            # ---- concurrent warm throughput --------------------------
            def one_request(i: int) -> float:
                model, config = _MATRIX[i % len(_MATRIX)]
                start = time.perf_counter()
                status, body = _post(thread, {"model": model, "config": config})
                assert status == 200 and body["cache_hit"] is True
                return time.perf_counter() - start

            start = time.perf_counter()
            with ThreadPoolExecutor(max_workers=_THROUGHPUT_CLIENTS) as pool:
                latencies = list(pool.map(one_request, range(_THROUGHPUT_REQUESTS)))
            wall = time.perf_counter() - start
            throughput = _THROUGHPUT_REQUESTS / wall
        finally:
            assert thread.stop() is True

        cold_p50, cold_p99 = _quantile(cold, 0.5), _quantile(cold, 0.99)
        warm_p50, warm_p99 = _quantile(warm, 0.5), _quantile(warm, 0.99)
        speedup = cold_p50 / warm_p50
        assert speedup >= _MIN_WARM_SPEEDUP, (
            f"warm p50 only {speedup:.1f}x below cold p50 "
            f"({warm_p50 * 1e3:.2f} ms vs {cold_p50 * 1e3:.1f} ms); "
            f"need >= {_MIN_WARM_SPEEDUP:.0f}x"
        )

        # ---- overload: 2x admission capacity, fresh empty cache ------
        capacity = 2  # max_inflight + queue_depth
        offered = 4 * capacity  # concurrent clients at hard 2x the backlog cap
        with tempfile.TemporaryDirectory(prefix="lcmm-bench-shed-") as shed_dir:
            overload = ServerThread(
                ServiceConfig(inline=True, workers=1, cache_dir=shed_dir),
                ServerConfig(max_inflight=1, queue_depth=1),
            ).start()
            try:
                # Every job body stalls 0.3 s, so the offered burst piles
                # up against the backlog cap instead of draining instantly.
                with injected(
                    FaultPlan("serve.worker", mode="hang", hang_seconds=0.3)
                ):
                    def one_overload(i: int) -> int:
                        model, config = _MATRIX[i % len(_MATRIX)]
                        status, body = _post(
                            overload, {"model": model, "config": config}
                        )
                        if status == 429:
                            assert body["error"]["type"] == "OverloadedError"
                        else:
                            assert status == 200, body
                        return status

                    with ThreadPoolExecutor(max_workers=offered) as pool:
                        statuses = list(pool.map(one_overload, range(offered)))
            finally:
                assert overload.stop() is True

        served = statuses.count(200)
        shed = statuses.count(429)
        assert served + shed == offered  # every response structured
        assert served >= 1, "overload must not shed everything"
        assert shed >= 1, "2x overload must shed the excess, not queue it"
        shed_rate = shed / offered

    results["serve"] = {
        "matrix_jobs": len(_MATRIX),
        "cold_p50_ms": cold_p50 * 1e3,
        "cold_p99_ms": cold_p99 * 1e3,
        "warm_p50_ms": warm_p50 * 1e3,
        "warm_p99_ms": warm_p99 * 1e3,
        "warm_over_cold_p50": speedup,
        "min_warm_over_cold_p50": _MIN_WARM_SPEEDUP,
        "warm_throughput_rps": throughput,
        "throughput_clients": _THROUGHPUT_CLIENTS,
        "throughput_p99_ms": _quantile(latencies, 0.99) * 1e3,
        "overload": {
            "offered": offered,
            "capacity": capacity,
            "served": served,
            "shed": shed,
            "shed_rate": shed_rate,
        },
        "golden_verified": True,
    }
    write_bench("BENCH_serve.json", results)
    print(
        f"\nserve bench: cold p50 {cold_p50 * 1e3:.1f} ms, warm p50 "
        f"{warm_p50 * 1e3:.2f} ms ({speedup:.0f}x), {throughput:.0f} rps warm, "
        f"overload shed {shed}/{offered} ({shed_rate:.0%}), golden verified"
    )
