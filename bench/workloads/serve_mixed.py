"""serve-mixed: the ``lcmm serve`` daemon, cold then warm.

``lcmm serve --port 0 --cache <fresh> --workers max(1, nproc-1)`` runs as
a subprocess with its process pool (not ``--inline``).

* **Cold phase** (closed loop, one connection): each of the 216 keys
  (12 models x 6 configurations x int8/int16/fp32) is requested once, in
  seeded order.  Every request is a compile, a pool hand-off and a cache
  write.  int16 and fp32 double and quadruple the tensor bytes against
  the same SRAM, the paper's capacity-pressure axis.
* **Warm phase** (open loop over the same keys, Zipf(1.1) by seeded
  rank): a reference step at 100 req/s, a ladder of 150/200/250/300
  req/s, then a closed-loop saturation step on every connection.  Every
  request is a cache read through HTTP and admission, so a front-door
  change moves this phase and a compiler change moves the cold one.

In the open loop request *i* is due at ``t0 + i / rate`` and its latency
is measured from that due time, so waiting for a free connection counts
against it; the generator's lateness is reported too.  A ladder step
meets the limit when its p99 is at most 50 ms, nothing failed, nothing
was shed with 429, and the lateness over its last second stays under
50 ms (no growing backlog).

Operation: one warm request at the reference rate.  Round: the cold pass.
"""

from __future__ import annotations

import itertools
import json
import os
import queue
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from http.client import HTTPConnection, HTTPException

from bench import stats
from bench.common import (
    CONFIGS,
    MAX_CLIENTS,
    ROOT,
    SETUP_REPEATS,
    Outcome,
    SpeedTrack,
    child_env,
    dir_bytes,
    golden,
    layer,
    maybe_tracing,
    temp_dir,
)

PRECISIONS = ("int8", "int16", "fp32")
REFERENCE_RATE = 100.0
LADDER = (150.0, 200.0, 250.0, 300.0)
ZIPF_S = 1.1
LIMIT_P99_MS = 50.0
LIMIT_LATENESS_MS = 50.0

#: Requests timed between two host-speed samples in the cold phase.
BLOCK_REQUESTS = 12

#: Seconds of warm load between two host-speed samples.
BLOCK_SECONDS = 0.5

#: Requests drawn from one seeded popularity ranking before it is redrawn.
RANKING_REQUESTS = 25

#: Shares of ``--seconds`` the warm phase spends on the reference step,
#: on each ladder step and on the closed-loop saturation step.  The cold
#: pass is a fixed 216 requests before them.
REFERENCE_SHARE = 0.7
STEP_SHARE = 0.05
SATURATION_SHARE = 0.1

#: Warm requests whose server-side trace the traced run fetches.
TRACE_SAMPLES = 60

#: How far the four serve parts may miss the client latency they explain.
MAX_PARTS_ERROR = 0.10


def _workers() -> int:
    return max(1, (os.cpu_count() or 1) - 1)


class Client:
    """One keep-alive HTTP connection to the daemon."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn = HTTPConnection("127.0.0.1", port, timeout=60)

    def call(self, method: str, path: str, payload: dict | None = None) -> tuple[int, object]:
        body = json.dumps(payload) if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self.conn.request(method, path, body, headers)
            response = self.conn.getresponse()
            raw = response.read()
        except (OSError, HTTPException):
            self.conn.close()
            self.conn = HTTPConnection("127.0.0.1", self.port, timeout=60)
            return 0, {}
        if response.headers.get_content_type() == "application/json":
            return response.status, json.loads(raw)
        return response.status, raw.decode()

    def compile(self, key: tuple[str, str, str]) -> tuple[int, dict]:
        model, config, precision = key
        with layer("serve", route="/v1/compile"):
            return self.call(
                "POST", "/v1/compile", {"model": model, "config": config, "precision": precision}
            )

    def close(self) -> None:
        self.conn.close()


class Server:
    """``lcmm serve`` in a subprocess, from spawn to ``/readyz`` 200."""

    def __init__(self, cache_dir, workers: int) -> None:
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--cache", str(cache_dir), "--workers", str(workers),
            ],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            line = self.proc.stdout.readline()
            match = re.search(r"listening on [^:\s]+:(\d+)", line)
            if match is None:
                raise RuntimeError(f"lcmm serve did not start: {line!r}")
            self.port = int(match.group(1))
            client = Client(self.port)
            deadline = time.monotonic() + 60
            while client.call("GET", "/readyz")[0] != 200:
                if time.monotonic() > deadline:
                    raise RuntimeError("lcmm serve never became ready")
                time.sleep(0.005)
            client.close()
        except BaseException:
            self.proc.kill()
            self.proc.communicate()
            raise
        self.setup_s = time.perf_counter() - start

    def stop(self) -> bool:
        """SIGTERM, wait; whether the daemon drained cleanly and exited 0."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            return False
        return self.proc.returncode == 0 and "drained cleanly" in out


@dataclass
class Sample:
    due: float
    sent: float
    done: float
    status: int
    key: tuple
    body: dict

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def lateness_ms(self) -> float:
        return (self.sent - self.due) * 1e3


def open_loop(port: int, rate: float, picks: list) -> list[Sample]:
    """Send ``picks`` at ``rate`` req/s over :data:`MAX_CLIENTS` connections."""
    pending: queue.Queue = queue.Queue()
    samples: list[Sample] = []

    def connection() -> None:
        client = Client(port)
        while (item := pending.get()) is not None:
            due, key = item
            sent = time.perf_counter()
            status, body = client.compile(key)
            samples.append(Sample(due, sent, time.perf_counter(), status, key, body))
        client.close()

    threads = [threading.Thread(target=connection, daemon=True) for _ in range(MAX_CLIENTS)]
    for thread in threads:
        thread.start()
    t0 = time.perf_counter() + 0.01
    for i, key in enumerate(picks):
        due = t0 + i / rate
        delay = due - time.perf_counter()
        if delay > 0:
            with layer("loadgen.wait"):
                time.sleep(delay)
        pending.put((due, key))
    for _ in threads:
        pending.put(None)
    for thread in threads:
        thread.join()
    return samples


def closed_loop(port: int, seconds: float, picks: list) -> tuple[float, list[Sample]]:
    """Every connection sends back to back for ``seconds``; (elapsed, samples)."""
    samples: list[Sample] = []
    stop = time.perf_counter() + seconds
    cursor = itertools.count()
    lock = threading.Lock()

    def connection() -> None:
        client = Client(port)
        while time.perf_counter() < stop:
            with lock:
                key = picks[next(cursor) % len(picks)]
            sent = time.perf_counter()
            status, body = client.compile(key)
            samples.append(Sample(sent, sent, time.perf_counter(), status, key, body))
        client.close()

    start = time.perf_counter()
    threads = [threading.Thread(target=connection) for _ in range(MAX_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start, samples


def _meets_limit(samples: list[Sample]) -> bool:
    if not samples:
        return False
    if any(s.status != 200 for s in samples):  # failures and 429s alike
        return False
    if stats.percentile([s.latency_ms for s in samples], 99) > LIMIT_P99_MS:
        return False
    last_due = max(s.due for s in samples)
    tail = [s.lateness_ms for s in samples if s.due >= last_due - 1.0]
    return max(tail) < LIMIT_LATENESS_MS


def _server_parts(client: Client, picks: list) -> dict[str, float]:
    """Split sampled warm requests into admission, queue wait, service, transport.

    From ``/v1/requests/{id}/trace``: ``queue_wait`` runs from the
    ``admitted`` to the ``slot-acquired`` event, ``service`` from there to
    ``finished``, and ``admission`` is the rest of the server's own
    ``seconds``.  ``transport`` is estimated independently, as the median
    of client round trip minus server seconds over ``/healthz`` probes, so
    the four parts summed against the client latency is a real check.
    """
    parts: dict[str, list[float]] = {k: [] for k in ("admission", "queue_wait", "service")}
    client_ms: list[float] = []
    transport: list[float] = []
    for key in picks:
        start = time.perf_counter()
        status, body = client.compile(key)
        rtt = time.perf_counter() - start
        if status != 200:
            continue
        with layer("serve.trace"):
            _, trace = client.call("GET", f"/v1/requests/{body['request_id']}/trace")
        record = trace.get("trace", {}) if isinstance(trace, dict) else {}
        events = {e["name"]: e["at"] for e in record.get("events", [])}
        if not {"admitted", "slot-acquired", "finished"} <= events.keys():
            continue
        inside = events["finished"] - events["admitted"]
        parts["queue_wait"].append((events["slot-acquired"] - events["admitted"]) * 1e3)
        parts["service"].append((events["finished"] - events["slot-acquired"]) * 1e3)
        parts["admission"].append((record["seconds"] - inside) * 1e3)
        client_ms.append(rtt * 1e3)

        start = time.perf_counter()
        with layer("serve", route="/healthz"):
            status, health = client.call("GET", "/healthz")
        rtt = time.perf_counter() - start
        with layer("serve.trace"):
            _, trace = client.call("GET", f"/v1/requests/{health['request_id']}/trace")
        transport.append((rtt - trace["trace"]["seconds"]) * 1e3)
    out = {f"serve.{k}_ms": stats.median(v) for k, v in parts.items() if v}
    if client_ms and transport:
        out["serve.transport_ms"] = stats.median(transport)
        server_side = sum(sum(v) for v in parts.values())
        explained = server_side + len(client_ms) * out["serve.transport_ms"]
        out["serve.parts_error_frac"] = abs(explained - sum(client_ms)) / sum(client_ms)
    return out


def _metric(text: str, name: str) -> float:
    """Sum of one counter's series in a Prometheus exposition."""
    pattern = re.compile(rf"^{re.escape(name)}(?:\{{[^}}]*\}})? (\S+)$", re.M)
    return sum(float(value) for value in pattern.findall(text))


def run(seed: int, seconds: float, traced: bool) -> Outcome:
    from repro.models.zoo import list_models

    outcome = Outcome()
    tally = outcome.tally
    workers = _workers()
    rng = random.Random(seed)
    keys = [(m, c, p) for m in list_models() for c in CONFIGS for p in PRECISIONS]
    cold_order = list(keys)
    rng.shuffle(cold_order)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(keys))]

    def zipf_picks(count: int) -> list:
        """``count`` requests, Zipf over seeded rankings of the keys.

        A warm hit on densenet121 takes three to four times as long as
        one on vgg16, so one ranking per run would make the run's cost
        hinge on which few keys the seed made hot.  Popularity shifts
        instead: the ranking is redrawn every :data:`RANKING_REQUESTS`
        requests.
        """
        picks: list = []
        while len(picks) < count:
            ranked = list(keys)
            rng.shuffle(ranked)
            picks += rng.choices(ranked, weights, k=min(RANKING_REQUESTS, count - len(picks)))
        return picks

    track = SpeedTrack()
    setup: list[float] = []
    server = cache = None
    for attempt in range(SETUP_REPEATS):
        cache = temp_dir("serve-")
        try:
            server = Server(cache, workers)
        except BaseException:
            shutil.rmtree(cache, ignore_errors=True)
            raise
        setup.append(server.setup_s * track.factor())
        if attempt < SETUP_REPEATS - 1:
            tally.op(server.stop(), "lcmm serve did not drain cleanly")
            shutil.rmtree(cache, ignore_errors=True)
    outcome.timing("setup_s", setup)

    cold_fp: dict[tuple, dict] = {}

    def check(sample_key: tuple, status: int, body: dict, cold: bool) -> None:
        model, config, precision = sample_key
        if status != 200:  # 429s included: a shed request is a failed one
            tally.op(False, f"{model}.{config}.{precision}: HTTP {status}")
            return
        problem = ""
        if body.get("cache_hit") == cold:
            phase = "cold" if cold else "warm"
            problem = f"{model}.{config}.{precision}: cache_hit={body.get('cache_hit')} in the {phase} phase"
        elif precision == "int8" and body["fingerprint"] != golden(model, config):
            problem = f"{model}.{config}: served fingerprint differs from tests/golden"
        elif not cold and body["fingerprint"] != cold_fp.get(sample_key):
            problem = f"{model}.{config}.{precision}: warm fingerprint differs from cold"
        if cold:
            cold_fp[sample_key] = body.get("fingerprint")
        tally.op(not problem, problem)

    try:
        with maybe_tracing(traced, outcome):
            client = Client(server.port)
            cold_ms: list[float] = []
            for first in range(0, len(cold_order), BLOCK_REQUESTS):
                block_ms = []
                for key in cold_order[first : first + BLOCK_REQUESTS]:
                    start = time.perf_counter()
                    status, body = client.compile(key)
                    block_ms.append((time.perf_counter() - start) * 1e3)
                    check(key, status, body, cold=True)
                factor = track.factor()
                cold_ms.extend(ms * factor for ms in block_ms)
            cold_s = sum(cold_ms) / 1e3
            outcome.layers["serve.cold_p50_ms"] = stats.median(cold_ms)
            outcome.layers["serve.cold_p95_ms"] = stats.percentile(cold_ms, 95)
            outcome.layers["cache.store.stores"] = sum(1 for _ in cache.rglob("*.pkl"))
            with layer("cache.store"):
                outcome.layers["cache.store.bytes_written"] = dir_bytes(cache)

            latencies: list[float] = []
            lateness: list[float] = []
            for _ in range(max(1, round(REFERENCE_SHARE * seconds / BLOCK_SECONDS))):
                block = open_loop(
                    server.port, REFERENCE_RATE, zipf_picks(int(REFERENCE_RATE * BLOCK_SECONDS))
                )
                factor = track.factor()
                latencies.extend(s.latency_ms * factor for s in block)
                lateness.extend(s.lateness_ms for s in block)
                for s in block:
                    check(s.key, s.status, s.body, cold=False)
            ladder = []
            for rate in LADDER:
                step = open_loop(server.port, rate, zipf_picks(int(rate * STEP_SHARE * seconds)))
                track.factor()  # keeps the next interval's factor local to it
                ladder.append((rate, _meets_limit(step)))
                for s in step:
                    check(s.key, s.status, s.body, cold=False)
            saturated_rps = []
            for _ in range(max(1, round(SATURATION_SHARE * seconds / BLOCK_SECONDS))):
                elapsed, saturated = closed_loop(server.port, BLOCK_SECONDS, zipf_picks(2000))
                saturated_rps.append(len(saturated) / (elapsed * track.factor()))
                for s in saturated:
                    check(s.key, s.status, s.body, cold=False)
            if traced:
                outcome.layers.update(_server_parts(client, zipf_picks(TRACE_SAMPLES)))
                error = outcome.layers.get("serve.parts_error_frac", 1.0)
                if error > MAX_PARTS_ERROR:
                    tally.fail(
                        f"admission + queue wait + service + transport miss the "
                        f"client latency by {error:.1%} (> {MAX_PARTS_ERROR:.0%})"
                    )
            with layer("serve", route="/v1/stats"):
                _, snapshot = client.call("GET", "/v1/stats")
            with layer("serve", route="/metrics"):
                _, metrics_text = client.call("GET", "/metrics")
            client.close()
    finally:
        tally.op(server.stop(), "lcmm serve did not drain cleanly")
        shutil.rmtree(cache, ignore_errors=True)

    outcome.timing("round_s", [cold_s])
    outcome.timing("op_p50_ms", latencies)
    outcome.e2e["throughput_per_s"] = len(cold_order) / cold_s

    met = [rate for rate, ok in ladder if ok]
    cache_stats = snapshot["service"]["cache"]
    outcome.layers.update(
        {
            "serve.max_rps": max(met) if met else 0.0,
            "serve.saturated_rps": stats.median(saturated_rps),
            "serve.gen_lateness_p99_ms": stats.percentile(lateness, 99),
            "serve.hit_ratio": cache_stats["hit_rate"],
            "serve.warm_hits": _metric(metrics_text, "serve_warm_hits"),
            "serve.coalesced": _metric(metrics_text, "serve_coalesced"),
            "serve.shed": snapshot["server"]["shed"],
            "serve.errors": snapshot["server"]["errors"],
            "cache.store.hits": cache_stats["hits"],
            "cache.store.memory_hits": cache_stats["memory_hits"],
            "cache.store.errors": cache_stats["errors"],
            "bench.rounds": 1,
        }
    )
    tail_p, tail_ms = stats.tail(latencies)
    outcome.named = {
        "serve_cold_p50_ms": (outcome.layers["serve.cold_p50_ms"], "ms"),
        "serve_cold_p95_ms": (outcome.layers["serve.cold_p95_ms"], "ms"),
        "serve_warm_p50_ms": (outcome.e2e["op_p50_ms"], "ms"),
        f"serve_warm_{stats.tail_name(tail_p)}_ms": (tail_ms, "ms"),
        "serve_max_rps": (outcome.layers["serve.max_rps"], "req/s"),
    }
    outcome.info.update(
        workers=workers,
        connections=MAX_CLIENTS,
        keys=len(keys),
        reference_rate=REFERENCE_RATE,
        ladder={str(rate): ok for rate, ok in ladder},
        warm_requests=len(latencies),
        host_speed=stats.median(track.samples),
    )
    return outcome
