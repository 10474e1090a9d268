"""compile-zoo: the golden matrix, compiled with no cache.

Closed loop, one thread: the 12-model zoo times the six standard
configurations at the int8 reference designs, through ``run_lcmm`` /
``umm_only_result``.  One untimed warm-up matrix, then whole matrices in
a seeded job order until the time budget is spent.  No cache, HTTP or
pool work happens here, so a compiler-pass change shows in this workload
and nowhere else.

Operation: one compile job.  Round: one 72-job matrix.
"""

from __future__ import annotations

import random
import time
from collections import defaultdict

from bench import stats
from bench.common import (
    CONFIGS,
    Outcome,
    SpeedTrack,
    golden,
    layer,
    maybe_tracing,
    python_setup,
    rounds_until,
)

SETUP_CODE = (
    "import repro.lcmm.framework, repro.lcmm.validate, repro.fingerprint\n"
    "import repro.analysis.experiments, repro.cache.batch\n"
    "from repro.models.zoo import get_model, list_models\n"
    "[get_model(m) for m in list_models()]\n"
)

ENGINE_COUNTERS = ("node_evaluations", "full_rescores", "applies", "undos")


class _Matrix:
    """The zoo's (graph, design, latency model) triples and the job list."""

    def __init__(self, outcome: Outcome) -> None:
        from repro.analysis.experiments import BENCHMARKS, reference_design
        from repro.hw.precision import INT8
        from repro.models.zoo import get_model, list_models
        from repro.perf.latency import LatencyModel

        self.models = list_models()
        self.designs = {}
        build_s = 0.0
        for name in self.models:
            start = time.perf_counter()
            with layer("models", model=name):
                graph = get_model(name)
            build_s += time.perf_counter() - start
            accel = reference_design(
                name if name in BENCHMARKS else "resnet152", INT8, "lcmm"
            )
            self.designs[name] = (graph, accel, LatencyModel(graph, accel))
        outcome.layers["models.get_model_ms"] = build_s * 1e3
        self.jobs = [(m, c) for m in self.models for c in CONFIGS]


#: Jobs timed between two host-speed samples (~0.2 s of compiling).
BLOCK_JOBS = 12


def _compile_round(
    matrix: _Matrix, order: list, outcome: Outcome, track: SpeedTrack
) -> tuple[dict[str, float], list[float]]:
    """Compile every job once; check each result outside the timed call.

    Returns the round's per-layer sums and the per-job milliseconds, both
    scaled to reference speed block by block.
    """
    from repro.cache.batch import standard_options
    from repro.errors import ReproError
    from repro.fingerprint import fingerprint
    from repro.lcmm.framework import run_lcmm, umm_only_result
    from repro.lcmm.validate import validate_result

    acc: dict[str, float] = defaultdict(float)
    job_ms: list[float] = []
    block: dict[str, float] = defaultdict(float)  # times, until scaled
    block_ms: list[float] = []
    speedups: list[float] = []
    umm_latency: dict[str, float] = {}
    latency: dict[tuple[str, str], float] = {}
    hits = lookups = 0
    for index, (model, config) in enumerate(order, 1):
        graph, accel, latency_model = matrix.designs[model]
        options = standard_options(config)
        start = time.perf_counter()
        with layer("lcmm", model=model, config=config):
            if options is None:
                result = umm_only_result(graph, accel)
            else:
                result = run_lcmm(graph, accel, options=options)
        wall = time.perf_counter() - start
        block_ms.append(wall * 1e3)
        block["matrix_s"] += wall
        block[f"compile_ms.{model}"] += wall * 1e3
        if options is None:
            block["lcmm.umm_ms"] += wall * 1e3
            umm_latency[model] = result.latency
        else:
            passes = dict(result.pass_timings)
            for name, seconds in passes.items():
                block[f"lcmm.pass.{name}_ms"] += seconds * 1e3
            block["lcmm.driver_ms"] += (wall - sum(passes.values())) * 1e3
            engine = result.engine_stats
            if engine is not None:
                for counter in ENGINE_COUNTERS:
                    acc[f"perf.engine.{counter}"] += getattr(engine, counter)
                hits += engine.gain_cache_hits
                lookups += engine.gain_cache_hits + engine.gain_cache_misses
            latency[(model, config)] = result.latency

        start = time.perf_counter()
        with layer("fingerprint"):
            fp = fingerprint(result)
        block["fingerprint.ms"] += (time.perf_counter() - start) * 1e3
        problem = ""
        if fp != golden(model, config):
            problem = f"{model}.{config}: fingerprint differs from tests/golden"
        else:
            try:
                with layer("lcmm.validate"):
                    validate_result(result, latency_model)
            except ReproError as exc:
                problem = f"{model}.{config}: validate_result: {exc}"
        outcome.tally.op(not problem, problem)

        if index % BLOCK_JOBS == 0 or index == len(order):
            factor = track.factor()
            for key, value in block.items():
                acc[key] += value * factor
            job_ms.extend(ms * factor for ms in block_ms)
            block.clear()
            block_ms.clear()

    for (model, _), value in latency.items():
        speedups.append(umm_latency[model] / value)
    acc["lcmm.speedup_geomean"] = stats.geomean(speedups)
    acc["perf.engine.gain_cache_hit_ratio"] = hits / lookups if lookups else 0.0
    return acc, job_ms


def run(seed: int, seconds: float, traced: bool) -> Outcome:
    outcome = Outcome()
    setup = python_setup(SETUP_CODE)
    outcome.timing("setup_s", setup)

    matrix = _Matrix(outcome)
    rng = random.Random(seed)
    track = SpeedTrack()
    _compile_round(matrix, list(matrix.jobs), outcome, track)  # warm-up, untimed

    def measure(budget: float, rounds: list) -> None:
        def body() -> float:
            order = list(matrix.jobs)
            rng.shuffle(order)
            start = time.perf_counter()
            rounds.append(_compile_round(matrix, order, outcome, track))
            return time.perf_counter() - start

        rounds_until(budget, body)

    plain: list[tuple] = []
    traced_rounds: list[tuple] = []
    if traced:
        # Half the budget untraced, half traced: the gap between the two
        # matrix times is the tracing overhead.
        measure(seconds / 2, plain)
        with maybe_tracing(True, outcome):
            measure(seconds / 2, traced_rounds)
    else:
        measure(seconds, plain)

    matrix_s = [acc["matrix_s"] for acc, _ in plain]
    jobs_ms = [ms for _, job_ms in plain for ms in job_ms]
    outcome.timing("round_s", matrix_s)
    outcome.timing("op_p50_ms", jobs_ms)
    outcome.e2e["throughput_per_s"] = len(jobs_ms) / sum(matrix_s)

    per_layer = [acc for acc, _ in traced_rounds or plain]
    for key in sorted({k for acc in per_layer for k in acc} - {"matrix_s"}):
        outcome.layers[key] = stats.median([acc.get(key, 0.0) for acc in per_layer])
    tail_p, tail_ms = stats.tail(jobs_ms)
    outcome.named = {
        "compile_matrix_s": (outcome.e2e["round_s"], "s"),
        f"compile_{stats.tail_name(tail_p)}_ms": (tail_ms, "ms"),
        "lcmm_speedup_geomean": (outcome.layers["lcmm.speedup_geomean"], "x"),
    }
    if traced_rounds:
        traced_s = stats.median([acc["matrix_s"] for acc, _ in traced_rounds])
        outcome.layers["bench.trace_overhead_frac"] = traced_s / stats.median(matrix_s) - 1
    outcome.layers["bench.rounds"] = len(plain) + len(traced_rounds)
    outcome.info.update(
        threads=1, jobs_per_round=len(matrix.jobs), host_speed=stats.median(track.samples)
    )
    return outcome
