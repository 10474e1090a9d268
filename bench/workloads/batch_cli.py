"""batch-cli: what a ``batch-compile`` user pays per invocation.

Pairs of fresh processes, each::

    python -m repro.cli batch-compile <the 12 models, seeded order> \\
        --cache <fresh> --workers min(2, nproc) --configs <all 6> \\
        --verify-golden tests/golden

first cold into a fresh cache directory (cache writes), then the same
command warm (cache reads, with ``--require-all-hits``).  Interpreter
start and imports, which the in-process workloads hide, are part of the
cost.  Fresh processes matter: ``cache.batch`` memoises graphs and keys
per process, so in-process repeats would time a warm memo no CLI user
sees.

Operation: one warm invocation.  Round: one cold invocation.
"""

from __future__ import annotations

import random
import re
import shutil
import subprocess
import sys
import time

from bench import stats
from bench.common import (
    CONFIGS,
    GOLDEN_DIR,
    MAX_CLIENTS,
    ROOT,
    Outcome,
    SpeedTrack,
    child_env,
    dir_bytes,
    layer,
    maybe_tracing,
    python_setup,
    rounds_until,
    temp_dir,
)

SETUP_CODE = "import repro.cli\n"

_REPORT = re.compile(r"(\d+) jobs in ([\d.]+)s \(workers=(\d+)\): (\d+) cache hits, (\d+) misses")


def _invoke(models: list[str], cache, warm: bool) -> tuple[float, subprocess.CompletedProcess]:
    """One CLI run: its wall seconds and the finished process."""
    argv = [
        sys.executable, "-m", "repro.cli", "batch-compile", *models,
        "--cache", str(cache),
        "--workers", str(MAX_CLIENTS),
        "--configs", ",".join(CONFIGS),
        "--verify-golden", str(GOLDEN_DIR),
    ]
    if warm:
        argv.append("--require-all-hits")
    start = time.perf_counter()
    with layer("cli", phase="warm" if warm else "cold"):
        proc = subprocess.run(
            argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=170
        )
    return time.perf_counter() - start, proc


def run(seed: int, seconds: float, traced: bool) -> Outcome:
    from repro.models.zoo import list_models

    outcome = Outcome()
    setup = python_setup(SETUP_CODE)
    outcome.timing("setup_s", setup)

    # The seed fixes the model order, and with it how jobs shard over workers.
    models = list_models()
    random.Random(seed).shuffle(models)
    jobs = len(models) * len(CONFIGS)
    track = SpeedTrack()
    cold_s: list[float] = []
    warm_s: list[float] = []
    report_s: dict[bool, list[float]] = {False: [], True: []}
    overhead_s: list[float] = []
    written: list[int] = []
    stored: list[int] = []
    hits: list[int] = []

    def invocation(cache, warm: bool) -> float:
        wall, proc = _invoke(models, cache, warm)
        factor = track.factor()
        (warm_s if warm else cold_s).append(wall * factor)
        match = _REPORT.search(proc.stdout)
        phase = "warm" if warm else "cold"
        expected_hits = jobs if warm else 0
        if proc.returncode != 0:
            outcome.tally.op(False, f"{phase} batch-compile exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        elif match is None or int(match.group(1)) != jobs or int(match.group(4)) != expected_hits:
            outcome.tally.op(False, f"{phase} batch-compile report unexpected: {proc.stdout.strip()[-200:]}")
        else:
            outcome.tally.op(True)
            report = float(match.group(2))
            report_s[warm].append(report * factor)
            overhead_s.append((wall - report) * factor)
            if warm:
                hits.append(int(match.group(4)))
        return wall

    def body() -> float:
        start = time.perf_counter()
        cache = temp_dir("batch-")
        try:
            invocation(cache, warm=False)
            with layer("cache.store"):
                stored.append(sum(1 for _ in cache.rglob("*.pkl")))
                written.append(dir_bytes(cache))
            invocation(cache, warm=True)
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        return time.perf_counter() - start

    with maybe_tracing(traced, outcome):
        rounds_until(seconds, body)

    outcome.timing("round_s", cold_s)
    outcome.timing("op_p50_ms", [s * 1e3 for s in warm_s])
    outcome.e2e["throughput_per_s"] = jobs * len(cold_s) / sum(cold_s)

    outcome.layers.update(
        {
            "cache.batch.cold_report_s": stats.median(report_s[False] or [0.0]),
            "cache.batch.warm_report_s": stats.median(report_s[True] or [0.0]),
            "cli.process_overhead_s": stats.median(overhead_s or [0.0]),
            "cache.store.stores": stats.median(stored),
            "cache.store.bytes_written": stats.median(written),
            "cache.store.hits": stats.median(hits or [0]),
            "bench.rounds": len(cold_s),
        }
    )
    outcome.named = {
        "batch_cold_s": (outcome.e2e["round_s"], "s"),
        "batch_warm_s": (stats.median(warm_s), "s"),
    }
    outcome.info.update(
        workers=MAX_CLIENTS, jobs_per_invocation=jobs, host_speed=stats.median(track.samples)
    )
    return outcome
