"""Bench: cold vs warm batch-compile through the compilation cache.

The cache's value proposition is that a warmed cache turns a zoo-wide
batch compile into pure artifact lookups.  This file turns that into
numbers and assertions, written to ``BENCH_cache.json``:

* a **cold** batch compile of the full model zoo times the four standard
  configurations (umm, dnnk, greedy, splitting) populates a fresh cache
  directory — every job is a miss;
* a **warm** second pass over the identical matrix must be served
  entirely from the cache (asserted: 100 % hits) and complete at least
  **10x** faster than the cold pass (asserted);
* both passes' result fingerprints must be bit-identical to the golden
  regression fingerprints in ``tests/golden`` for every (model, config)
  pair (asserted) — a cache that changes results is worse than no cache.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.cache import STANDARD_CONFIGS, batch_compile
from repro.models.zoo import list_models

from conftest import write_bench

_GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"
_MIN_SPEEDUP = 10.0


def test_warm_batch_compile_speedup():
    models = list_models()
    configs = list(STANDARD_CONFIGS)
    with tempfile.TemporaryDirectory(prefix="lcmm-bench-cache-") as cache_dir:
        start = time.perf_counter()
        cold = batch_compile(models=models, configs=configs, cache_dir=cache_dir)
        cold_seconds = time.perf_counter() - start

        start = time.perf_counter()
        warm = batch_compile(models=models, configs=configs, cache_dir=cache_dir)
        warm_seconds = time.perf_counter() - start

    assert cold.misses == len(models) * len(configs), "cold pass must compile all"
    assert warm.all_hits, (
        f"warm pass missed the cache on {warm.misses} of "
        f"{len(warm.outcomes)} jobs"
    )

    # Cached artifacts must be bit-identical to the pinned golden results.
    assert cold.verify_golden(_GOLDEN_DIR) == []
    warm_problems = warm.verify_golden(_GOLDEN_DIR)
    assert warm_problems == [], "\n".join(warm_problems)
    assert [o.fingerprint for o in warm.outcomes] == [
        o.fingerprint for o in cold.outcomes
    ]

    speedup = cold_seconds / warm_seconds
    assert speedup >= _MIN_SPEEDUP, (
        f"warm batch compile only {speedup:.1f}x faster than cold "
        f"({warm_seconds * 1e3:.1f} ms vs {cold_seconds * 1e3:.1f} ms); "
        f"need >= {_MIN_SPEEDUP:.0f}x"
    )

    write_bench(
        "BENCH_cache.json",
        {
            "batch_compile_zoo": {
                "models": len(models),
                "configs": configs,
                "jobs": len(cold.outcomes),
                "cold_seconds": cold_seconds,
                "warm_seconds": warm_seconds,
                "speedup": speedup,
                "min_speedup": _MIN_SPEEDUP,
                "warm_hit_rate": warm.hits / len(warm.outcomes),
                "golden_verified": True,
            },
        },
    )
    print(
        f"\ncache bench: {len(cold.outcomes)} jobs cold {cold_seconds:.2f}s, "
        f"warm {warm_seconds * 1e3:.0f} ms ({speedup:.0f}x), "
        f"{warm.hits}/{len(warm.outcomes)} warm hits, golden verified"
    )
