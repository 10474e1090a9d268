"""dse-space: exploded design-space sweeps on warm persistent pools.

Each round runs ``explore_space`` (pruning on, ``workers=min(2, nproc)``,
one pool per model, warmed before timing) for googlenet, resnet50 and
bert_base, in a seeded order.  Each model is swept over
``large_space().sample(500, seed)`` and over ``small_space()``.  No
LCMM pass runs here.  The sampled large space (a few hundred bases, one
or two tiles each) is dominated by the per-base roofline bounds; the small space (36
bases, ~48 tiles each) by tile scoring, so a change to either path shows
in one half and not the other.

Operation: one model's pair of sweeps.  Round: all three models.
"""

from __future__ import annotations

import random
import time
from collections import defaultdict

from bench import stats
from bench.common import (
    MAX_CLIENTS,
    Outcome,
    SpeedTrack,
    layer,
    maybe_tracing,
    python_setup,
    rounds_until,
)

MODELS = ("googlenet", "resnet50", "bert_base")

#: Tile-buffer budget of every sweep (the ``BENCH_dse_scale`` budget).
BUDGET = 4 * 2**20

#: Points drawn from the large space per seed.
SAMPLE = 500

SETUP_CODE = (
    "from repro.models.zoo import get_model\n"
    "from repro.perf.pool import ScorerPool\n"
    "import repro.perf.space\n"
    f"pools = [ScorerPool(get_model(m), {MAX_CLIENTS}) for m in {MODELS!r}]\n"
    "executors = [p.ensure()[0] for p in pools]\n"
    "for p, e in zip(pools, executors):\n"
    "    p.close()\n"
    "    e.shutdown(wait=True)\n"
)

_SPACE_COUNTS = (
    ("feasible_points", "total_points"),
    ("scored_points", "scored_points"),
    ("pruned_dominated_points", "pruned_dominated"),
    ("pruned_bounded_points", "pruned_bounded"),
    ("bases_total", "bases_total"),
    ("bases_pruned", "bases_pruned"),
)

_POOL_COUNTS = (
    ("chunks", "chunks"),
    ("chunks_reused", "chunks_reused_pool"),
    ("retries", "retries"),
    ("serial_chunks", "serial_chunks"),
    ("failures", "failures"),
)


def run(seed: int, seconds: float, traced: bool) -> Outcome:
    from repro.models.zoo import get_model
    from repro.perf.dse import WorkerStats
    from repro.perf.pool import ScorerPool
    from repro.perf.space import explore_space, large_space, small_space

    outcome = Outcome()
    setup = python_setup(SETUP_CODE)
    outcome.timing("setup_s", setup)

    workers = MAX_CLIENTS
    spaces = {"large": large_space().sample(SAMPLE, seed), "small": small_space()}
    graphs, pools, executors = {}, {}, []
    start = time.perf_counter()
    for name in MODELS:
        graphs[name] = get_model(name)
    outcome.layers["models.get_model_ms"] = (time.perf_counter() - start) * 1e3
    init_s = 0.0
    try:
        for name in MODELS:
            pools[name] = ScorerPool(graphs[name], workers, trace=traced)
            executor, seconds_up = pools[name].ensure()
            executors.append(executor)
            init_s += seconds_up
        outcome.layers["perf.pool.init_s"] = init_s

        # The unpruned reference every timed sweep's best design must equal.
        reference = {}
        for name in MODELS:
            for kind, space in spaces.items():
                best = explore_space(
                    graphs[name], space, BUDGET, workers=workers, pool=pools[name], prune=False
                ).best
                reference[(name, kind)] = (best.accel, best.umm_latency)

        rng = random.Random(seed)
        track = SpeedTrack()
        rounds: list[tuple[float, dict]] = []
        pair_ms: list[float] = []
        sweep_s: dict[str, list[float]] = {"large": [], "small": []}

        def body() -> float:
            order = list(MODELS)
            rng.shuffle(order)
            acc: dict[str, float] = defaultdict(float)
            round_start = time.perf_counter()
            round_s = 0.0
            for name in order:
                pair = 0.0
                for kind, space in spaces.items():
                    worker_stats = WorkerStats()
                    start = time.perf_counter()
                    with layer("perf.space", model=name, space=kind):
                        result = explore_space(
                            graphs[name], space, BUDGET,
                            workers=workers, pool=pools[name], stats=worker_stats,
                        )
                    elapsed = (time.perf_counter() - start) * track.factor()
                    pair += elapsed
                    sweep_s[kind].append(elapsed)
                    for metric, attr in _SPACE_COUNTS:
                        acc[f"perf.space.{metric}"] += getattr(result, attr)
                    for metric, attr in _POOL_COUNTS:
                        acc[f"perf.pool.{metric}"] += getattr(worker_stats, attr)
                    got = (result.best.accel, result.best.umm_latency)
                    outcome.tally.op(
                        got == reference[(name, kind)],
                        f"{name}/{kind}: pruned best {result.best.accel.name} "
                        "differs from the unpruned reference",
                    )
                pair_ms.append(pair * 1e3)
                round_s += pair
            rounds.append((round_s, acc))
            return time.perf_counter() - round_start

        with maybe_tracing(traced, outcome):
            rounds_until(seconds, body)
    finally:
        for pool in pools.values():
            pool.close()
        for executor in executors:
            executor.shutdown(wait=True)

    round_s = [r for r, _ in rounds]
    outcome.timing("round_s", round_s)
    outcome.timing("op_p50_ms", pair_ms)
    per_round = [acc for _, acc in rounds]
    decided = sum(acc["perf.space.feasible_points"] for acc in per_round)
    outcome.e2e["throughput_per_s"] = decided / sum(round_s)

    for key in sorted({k for acc in per_round for k in acc}):
        outcome.layers[key] = stats.median([acc[key] for acc in per_round])
    feasible = outcome.layers["perf.space.feasible_points"]
    outcome.layers["perf.space.scored_ratio"] = outcome.layers["perf.space.scored_points"] / feasible
    for kind, samples in sweep_s.items():
        outcome.layers[f"perf.space.{kind}_sweep_s"] = stats.median(samples)
    outcome.layers["bench.rounds"] = len(rounds)
    outcome.named = {"dse_points_per_s": (outcome.e2e["throughput_per_s"], "1/s")}
    outcome.info.update(
        workers=workers,
        models=list(MODELS),
        sample=SAMPLE,
        budget=BUDGET,
        host_speed=stats.median(track.samples),
    )
    return outcome
