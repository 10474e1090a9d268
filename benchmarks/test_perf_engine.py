"""Bench: the incremental evaluation engine on its two hot paths.

Times the two acceptance workloads of the engine work and writes the
results to ``BENCH_engine.json`` at the repo root:

* ``run_lcmm`` on GoogLeNet (prebuilt graph and latency model, timing
  the pipeline only), with the engine's evaluation counters;
* a 64-point tile DSE sweep, old per-tile ``LatencyModel`` scoring vs
  ``explore_space`` on the one base (sweep scorer, ``workers=4``).

Results are checked against the golden fingerprint and the per-tile
model respectively (and bit-for-bit against the naive oracles in the
tier-1 suite); this file measures only wall time and evaluation counts.
Set ``BENCH_SMOKE=1`` to cut repeats for CI smoke runs; a smoke run
writes under ``.bench_out/smoke/`` instead (``conftest.bench_path``).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace

import pytest

from repro.analysis.experiments import reference_design
from repro.fingerprint import fingerprint
from repro.hw.precision import INT8, INT16
from repro.lcmm.framework import run_lcmm
from repro.models import get_model
from repro.perf.dse import candidate_tiles
from repro.perf.latency import LatencyModel
from repro.perf.pool import ScorerPool
from repro.perf.space import SampledSpace, explore_space

from conftest import ROOT, SMOKE, bench_path, write_bench

_REPEATS = 2 if SMOKE else 5


def _best_of(fn, repeats: int = _REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _sweep(graph, base, budget, tiles, pool=None):
    """Every feasible tile of one base design, ascending UMM latency.

    Scores on ``pool`` when one is given, serially otherwise.
    """
    space = SampledSpace([(base, tiles)])
    return explore_space(graph, space, budget, pool=pool, prune=False).points


def _record(section: str, payload: dict) -> None:
    path = bench_path("BENCH_engine.json")
    data = json.loads(path.read_text()) if path.exists() else {}
    data[section] = payload
    write_bench("BENCH_engine.json", data)


def test_run_lcmm_engine():
    graph = get_model("googlenet")
    accel = reference_design("googlenet", INT8, "lcmm")
    model = LatencyModel(graph, accel)

    result = run_lcmm(graph, accel, model=model)
    golden = json.loads((ROOT / "tests" / "golden" / "googlenet.json").read_text())
    assert fingerprint(result) == golden["splitting"]

    engine_s = _best_of(lambda: run_lcmm(graph, accel, model=model))
    _record(
        "run_lcmm_googlenet",
        {
            "engine_seconds": engine_s,
            "repeats": _REPEATS,
            "engine_stats": result.engine_stats.as_dict(),
        },
    )
    print(f"\nrun_lcmm googlenet: engine {engine_s * 1e3:.2f} ms (best of {_REPEATS})")


def test_dse_sweep_speedup():
    graph = get_model("inception_v4")
    base = reference_design("inception_v4", INT16, "lcmm")
    tiles = candidate_tiles(tn_values=(16, 32, 64, 128))
    assert len(tiles) == 64
    budget = 8 * 2**20

    def old_sweep():
        feasible = [
            t for t in tiles if t.tile_buffer_bytes(base.precision.bytes) <= budget
        ]
        return {
            t: LatencyModel(graph, replace(base, tile=t)).umm_latency()
            for t in feasible
        }

    # One pool for the warm-up and the timed sweeps.
    pool = ScorerPool(graph, 4)

    def new_sweep():
        return _sweep(graph, base, budget, tiles, pool=pool)

    try:
        old_scores = old_sweep()
        new_points = new_sweep()
        assert len(new_points) == len(old_scores)
        for point in new_points:
            assert point.umm_latency == old_scores[point.accel.tile]

        old_s = _best_of(old_sweep)
        new_s = _best_of(new_sweep)
        serial_s = _best_of(lambda: _sweep(graph, base, budget, tiles))
    finally:
        pool.close()
    speedup = old_s / new_s
    _record(
        "dse_sweep_64pt_inception_v4",
        {
            "points": len(new_points),
            "old_seconds": old_s,
            "new_seconds_workers4": new_s,
            "new_seconds_workers1": serial_s,
            "speedup_workers4": speedup,
            "speedup_workers1": old_s / serial_s,
        },
    )
    print(
        f"\ndse sweep ({len(new_points)} pts): old {old_s * 1e3:.2f} ms, "
        f"new(w=4) {new_s * 1e3:.2f} ms ({speedup:.2f}x), "
        f"new(w=1) {serial_s * 1e3:.2f} ms ({old_s / serial_s:.2f}x)"
    )
    assert speedup >= 2.0


def test_dse_pool_beats_serial_on_multicore():
    """Regression: the pooled sweep must now *win*, not lose, vs serial.

    The pre-pool parallel path was slower than the serial fast path
    (the BENCH_engine.json staleness this PR fixes).  On a >=4-core
    runner a warm persistent pool with one chunk per worker has to beat one
    worker on a sweep large enough to amortise the chunk IPC.
    """
    cores = os.cpu_count() or 1
    if cores < 4:
        # CI's dse-multicore job sets DSE_REQUIRE_MULTICORE=1 so the
        # scaling regression cannot silently skip *everywhere* — a
        # mis-provisioned runner fails loudly instead of green-skipping.
        if os.environ.get("DSE_REQUIRE_MULTICORE"):
            pytest.fail(
                f"DSE_REQUIRE_MULTICORE is set but the runner has only "
                f"{cores} core(s); the pool-scaling regression needs >=4"
            )
        pytest.skip(
            f"pool-scaling regression needs a >=4-core runner, host has {cores}"
        )
    graph = get_model("inception_v4")
    base = reference_design("inception_v4", INT16, "lcmm")
    tiles = candidate_tiles(
        tm_values=(8, 16, 24, 32, 48, 64, 96, 128),
        tn_values=(8, 16, 32, 64),
        spatial_values=(7, 14, 28, 56, 112),
    )
    budget = 8 * 2**20

    pool = ScorerPool(graph, 4)
    try:
        parallel = _sweep(graph, base, budget, tiles, pool=pool)
        serial = _sweep(graph, base, budget, tiles)
        key = lambda pts: [(p.accel.tile, p.umm_latency) for p in pts]
        assert key(parallel) == key(serial)

        # The warm-up sweep above leaves the pool hot; time what a
        # session holding one pool sees on repeated sweeps.
        serial_s = _best_of(lambda: _sweep(graph, base, budget, tiles))
        pooled_s = _best_of(lambda: _sweep(graph, base, budget, tiles, pool=pool))
    finally:
        pool.close()
    speedup = serial_s / pooled_s
    _record(
        "dse_pool_scaling_inception_v4",
        {
            "points": len(parallel),
            "cpu_count": cores,
            "workers1_seconds": serial_s,
            "workers4_seconds": pooled_s,
            "speedup_workers4_over_workers1": speedup,
        },
    )
    print(
        f"\ndse pool scaling ({len(parallel)} pts, {cores} cores): "
        f"w=1 {serial_s * 1e3:.2f} ms, w=4 {pooled_s * 1e3:.2f} ms "
        f"({speedup:.2f}x)"
    )
    assert speedup > 1.0
