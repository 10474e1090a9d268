"""Bench: exploded design-space sweep — scaling, pruning, exactness.

Sweeps a >=10^4-point design space (a ~2k-point one under
``BENCH_SMOKE=1``) over GoogLeNet with roofline/dominance pruning on,
times ``workers=4`` on one held pool against ``workers=1``, and
writes the results to ``BENCH_dse_scale.json`` at the repo root (under
``.bench_out/smoke/`` for a smoke run).

Two guarantees are asserted here, not just measured:

* pruning is exact — the best design and score are bit-identical with
  pruning on and off;
* on a >=4-core runner, ``workers=4`` must reach a 3x speedup over
  ``workers=1`` on the pruned sweep (skip-with-reason on smaller
  machines, where the recorded numbers still document what the host
  achieved).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.hw.precision import INT8, INT16
from repro.models import get_model
from repro.perf.pool import ScorerPool
from repro.perf.space import DesignSpace, explore_space, small_space
from repro.perf.systolic import SystolicArray

from conftest import SMOKE, write_bench

_REPEATS = 2 if SMOKE else 3
_BUDGET = 4 * 2**20


def _bench_space() -> DesignSpace:
    """The swept space: ~2k points for smoke, >=10^4 for the full bench."""
    if SMOKE:
        return small_space()
    return DesignSpace(
        arrays=(
            SystolicArray(rows=32, cols=16, simd=11),
            SystolicArray(rows=16, cols=16, simd=8),
            SystolicArray(rows=8, cols=8, simd=8),
        ),
        precisions=(INT16, INT8),
        frequencies=(150e6, 190e6, 230e6, 250e6),
        ddr_efficiencies=(0.6, 0.8, 1.0),
        tm_values=(8, 16, 24, 32, 48, 64, 96, 128),
        tn_values=(8, 16, 32, 64),
        spatial_values=(7, 14, 28, 56, 112),
    )


def _best_of(fn, repeats: int = _REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_space_sweep_scaling():
    graph = get_model("googlenet")
    space = _bench_space()
    if not SMOKE:
        assert space.size() >= 10_000

    # Exactness first: the pruned sweep must land on the bit-identical
    # best design the full sweep finds.
    pruned = explore_space(graph, space, _BUDGET, prune=True)
    full = explore_space(graph, space, _BUDGET, prune=False)
    assert pruned.best.accel == full.best.accel
    assert pruned.best.umm_latency == full.best.umm_latency

    # One pool for the warm-up and the timed workers=4 sweeps.
    pool = ScorerPool(graph, 4)
    try:
        explore_space(graph, space, _BUDGET, pool=pool)  # warm pool
        w1_s = _best_of(lambda: explore_space(graph, space, _BUDGET, workers=1))
        w4_s = _best_of(lambda: explore_space(graph, space, _BUDGET, pool=pool))
    finally:
        pool.close()
    speedup = w1_s / w4_s
    cores = os.cpu_count() or 1

    payload = {
        "model": graph.name,
        "smoke": SMOKE,
        "cpu_count": cores,
        "space_points": space.size(),
        "feasible_points": pruned.total_points,
        "scored_points": pruned.scored_points,
        "pruned_dominated": pruned.pruned_dominated,
        "pruned_bounded": pruned.pruned_bounded,
        "bases_pruned_whole": pruned.bases_pruned,
        "best_design": pruned.best.accel.name,
        "best_tile": str(pruned.best.accel.tile),
        "best_umm_latency": pruned.best.umm_latency,
        "pruning_best_identical": True,  # asserted above
        "workers1_seconds": w1_s,
        "workers4_seconds": w4_s,
        "speedup_workers4_over_workers1": speedup,
    }
    write_bench("BENCH_dse_scale.json", payload)
    print(
        f"\nspace sweep ({pruned.total_points} feasible pts, "
        f"{pruned.scored_points} scored, {cores} cores): "
        f"w=1 {w1_s * 1e3:.2f} ms, w=4 {w4_s * 1e3:.2f} ms ({speedup:.2f}x)"
    )

    if cores < 4:
        pytest.skip(
            f"3x scaling criterion needs a >=4-core runner, host has {cores}; "
            "timings recorded in BENCH_dse_scale.json"
        )
    assert speedup >= 3.0
