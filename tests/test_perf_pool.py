"""Tests for repro.perf.pool: the reusable DSE worker pool."""

import pytest

from repro.perf import pool as pool_mod
from repro.perf.dse import WorkerStats
from repro.errors import ConfigError
from repro.perf.pool import (
    ScorerPool,
    adaptive_chunk_size,
    decode_tiles,
    encode_tiles,
)
from repro.perf.tiling import TileConfig

from tests.conftest import (
    build_chain,
    child_pids,
    small_accel,
    sweep_base,
    wait_for_exit,
)


class TestWireEncoding:
    def test_roundtrip(self):
        tiles = [TileConfig(16, 32, 7, 14), TileConfig(128, 64, 56, 56)]
        assert decode_tiles(encode_tiles(tiles)) == tiles

    def test_empty(self):
        assert decode_tiles(encode_tiles([])) == []

    def test_packing_density(self):
        tiles = [TileConfig(8, 8, 7, 7)] * 100
        encoded = encode_tiles(tiles)
        assert len(encoded) == 100 * pool_mod.TILE_WORDS


class TestAdaptiveChunking:
    def test_cold_pool_falls_back_to_fixed_split(self):
        # No measurement yet: the historical four-rounds-per-worker split.
        assert adaptive_chunk_size(64, 4, None) == 4

    def test_sized_to_target_seconds(self):
        # 1 ms per point, 50 ms target -> 50-point chunks.
        assert adaptive_chunk_size(10_000, 4, 1e-3) == 50

    def test_every_worker_gets_a_chunk(self):
        # Huge per-point cost: chunk of 1, never 0.
        assert adaptive_chunk_size(100, 4, 10.0) == 1
        # Tiny per-point cost: chunks grow until workers would idle.
        assert adaptive_chunk_size(8, 4, 1e-9) == 2

    def test_rounds_per_worker_capped(self):
        size = adaptive_chunk_size(10_000_000, 2, 1e-9)
        rounds = 10_000_000 / (size * 2)
        assert rounds <= pool_mod._MAX_ROUNDS_PER_WORKER

    def test_zero_points(self):
        assert adaptive_chunk_size(0, 4, 1e-3) == 1


class TestScorerPool:
    def test_lazy_until_ensure(self):
        pool = ScorerPool(build_chain(), 2)
        assert not pool.is_warm()
        executor, elapsed = pool.ensure()
        assert pool.is_warm() and elapsed > 0.0
        again, elapsed2 = pool.ensure()
        assert again is executor and elapsed2 == 0.0
        pool.close()

    def test_refresh_bumps_generation_not_identity(self):
        graph = build_chain()
        pool = ScorerPool(graph, 1)
        pool.ensure()
        pool.refresh()
        assert pool.generation == 1
        assert not pool.is_warm()
        assert pool.graph is graph and not pool.closed
        pool.ensure()  # comes back up with identical initargs
        assert pool.is_warm()
        pool.close()

    def test_close_is_idempotent_and_final(self):
        pool = ScorerPool(build_chain(), 1)
        pool.close()
        pool.close()
        with pytest.raises(RuntimeError):
            pool.ensure()

    def test_invalid_workers(self):
        with pytest.raises(ConfigError):
            ScorerPool(build_chain(), 0)

    def test_observe_feeds_ewma(self):
        pool = ScorerPool(build_chain(), 2)
        assert pool.per_point_seconds is None
        pool.observe(10, 0.01)
        assert pool.per_point_seconds == pytest.approx(1e-3)
        pool.observe(10, 0.03)
        assert pool.per_point_seconds == pytest.approx(2e-3)
        # Degenerate samples are ignored, not divide-by-zeroed.
        pool.observe(0, 0.5)
        pool.observe(10, 0.0)
        assert pool.per_point_seconds == pytest.approx(2e-3)


class TestPoolReuseAcrossSweeps:
    def test_second_sweep_reuses_warm_pool(self):
        graph = build_chain()
        base = small_accel()
        budget = 10 * 2**20
        pool = ScorerPool(graph, 2)
        try:
            # ``workers`` is omitted: the given pool sets the count, so
            # the sweep scores on it rather than serially.
            cold = WorkerStats()
            first = sweep_base(graph, base, budget, pool=pool, stats=cold)
            assert cold.chunks > 0 and cold.chunks_reused_pool == 0
            assert pool.is_warm()
            warm = WorkerStats()
            second = sweep_base(graph, base, budget, pool=pool, stats=warm)
            key = lambda points: [(p.accel.tile, p.umm_latency) for p in points]
            assert key(second) == key(first)
            assert warm.chunks_reused_pool == warm.chunks > 0
            assert warm.init_seconds == 0.0
            assert pool.generation == 0 and not pool.closed
        finally:
            pool.close()

    def test_explicit_pool_is_caller_owned(self):
        graph = build_chain()
        base = small_accel()
        pool = ScorerPool(graph, 2)
        try:
            sweep_base(graph, base, 10 * 2**20, workers=2, pool=pool)
            assert pool.is_warm() and not pool.closed
        finally:
            pool.close()

    def test_conflicting_workers_rejected(self):
        # A given pool sets the worker count; a different count is a
        # caller error, not a silent override.
        pool = ScorerPool(build_chain(), 2)
        try:
            with pytest.raises(ConfigError, match="pool"):
                sweep_base(
                    build_chain(), small_accel(), 10 * 2**20, workers=3,
                    pool=pool,
                )
            assert not pool.is_warm()
        finally:
            pool.close()

    def test_private_pool_leaves_no_worker_behind(self):
        # Without a pool the sweep builds a private one, tracing when
        # tracing is on, and closes it before returning: the chunks'
        # worker spans are merged and the worker processes exit.
        from repro import obs

        graph = build_chain()
        base = small_accel()
        before = child_pids()
        serial = sweep_base(graph, base, 10 * 2**20)
        with obs.tracing("main") as tracer:
            pooled = sweep_base(graph, base, 10 * 2**20, workers=2)
        key = lambda points: [(p.accel.tile, p.umm_latency) for p in points]
        assert key(pooled) == key(serial)
        chunk_processes = {
            record.process
            for record in tracer.records
            if record.name == "dse.chunk"
        }
        assert chunk_processes
        assert all(p.startswith("dse-worker-") for p in chunk_processes)
        assert not wait_for_exit(child_pids() - before)

    def test_calibration_scores_count_toward_results(self):
        # A cold pool calibrates on a parent-scored prefix; those scores
        # must appear in the result exactly once.
        graph = build_chain()
        base = small_accel()
        serial = sweep_base(graph, base, 10 * 2**20)
        pool = ScorerPool(graph, 2)
        try:
            pooled = sweep_base(graph, base, 10 * 2**20, pool=pool)
        finally:
            pool.close()
        key = lambda points: [(p.accel.tile, p.umm_latency) for p in points]
        assert key(pooled) == key(serial)
        assert pool.per_point_seconds is not None
