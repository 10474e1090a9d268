"""Tests for repro.perf.pool: the persistent DSE worker pool."""

import pytest

from repro.perf import pool as pool_mod
from repro.perf.dse import WorkerStats
from repro.perf.pool import (
    ScorerPool,
    adaptive_chunk_size,
    decode_tiles,
    encode_tiles,
    persistent_pool,
)
from repro.perf.tiling import TileConfig
from repro.robustness.inject import FaultPlan, injected

from tests.conftest import build_chain, small_accel, sweep_base


@pytest.fixture(autouse=True)
def _fresh_registry():
    """Each test starts and ends without a registered persistent pool."""
    pool_mod.close_pool()
    yield
    pool_mod.close_pool()


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
        fp = pool.graph_fp
        pool.ensure()
        pool.refresh()
        assert pool.generation == 1
        assert not pool.is_warm()
        assert pool.graph_fp == fp and not pool.closed
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
        from repro.errors import ConfigError

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

    def test_describe_reports_lifetime(self):
        pool = ScorerPool(build_chain(), 2)
        d = pool.describe()
        assert d["workers"] == 2 and not d["warm"] and d["generation"] == 0


class TestPersistentRegistry:
    def test_same_identity_reuses_the_pool(self):
        graph = build_chain()
        first = persistent_pool(graph, 2)
        assert persistent_pool(graph, 2) is first

    def test_worker_count_change_replaces_the_pool(self):
        graph = build_chain()
        first = persistent_pool(graph, 2)
        second = persistent_pool(graph, 3)
        assert second is not first and first.closed

    def test_graph_change_replaces_the_pool(self):
        first = persistent_pool(build_chain(num_convs=2), 2)
        second = persistent_pool(build_chain(num_convs=3), 2)
        assert second is not first and first.closed

    def test_armed_fault_plans_change_the_identity(self):
        # A reused pool's workers would not have newly-armed plans
        # installed; arming plans must therefore force a fresh pool.
        graph = build_chain()
        clean = persistent_pool(graph, 2)
        with injected(FaultPlan("dse.chunk", mode="raise", max_fires=0)):
            armed = persistent_pool(graph, 2)
            assert armed is not clean
        after = persistent_pool(graph, 2)
        assert after is not armed

    def test_close_pool_clears_the_registry(self):
        pool = persistent_pool(build_chain(), 2)
        pool_mod.close_pool()
        assert pool.closed and pool_mod.active_pool() is None


class TestPoolReuseAcrossSweeps:
    def test_second_sweep_reuses_warm_pool(self):
        graph = build_chain()
        base = small_accel()
        budget = 10 * 2**20
        cold = WorkerStats()
        first = sweep_base(graph, base, budget, workers=2, stats=cold)
        assert cold.chunks_reused_pool == 0  # nothing was warm yet
        pool = pool_mod.active_pool()
        assert pool is not None and pool.is_warm()
        warm = WorkerStats()
        second = sweep_base(graph, base, budget, workers=2, stats=warm)
        key = lambda points: [(p.accel.tile, p.umm_latency) for p in points]
        assert key(second) == key(first)
        assert warm.chunks_reused_pool == warm.chunks > 0
        assert warm.init_seconds == 0.0
        assert pool_mod.active_pool() is pool

    def test_fresh_mode_leaves_no_persistent_pool(self):
        graph = build_chain()
        base = small_accel()
        serial = sweep_base(graph, base, 10 * 2**20)
        fresh = sweep_base(
            graph, base, 10 * 2**20, workers=2, pool_mode="fresh"
        )
        key = lambda points: [(p.accel.tile, p.umm_latency) for p in points]
        assert key(fresh) == key(serial)
        assert pool_mod.active_pool() is None

    def test_explicit_pool_is_caller_owned(self):
        graph = build_chain()
        base = small_accel()
        pool = ScorerPool(graph, 2)
        try:
            sweep_base(graph, base, 10 * 2**20, workers=2, pool=pool)
            assert pool.is_warm() and not pool.closed
            # The registry never saw it.
            assert pool_mod.active_pool() is None
        finally:
            pool.close()

    def test_invalid_pool_mode_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            sweep_base(
                build_chain(), small_accel(), 10 * 2**20, pool_mode="leaky"
            )

    def test_calibration_scores_count_toward_results(self):
        # A cold pool calibrates on a parent-scored prefix; those scores
        # must appear in the result exactly once.
        graph = build_chain()
        base = small_accel()
        serial = sweep_base(graph, base, 10 * 2**20)
        pooled = sweep_base(graph, base, 10 * 2**20, workers=2)
        key = lambda points: [(p.accel.tile, p.umm_latency) for p in points]
        assert key(pooled) == key(serial)
        pool = pool_mod.active_pool()
        assert pool is not None and pool.per_point_seconds is not None
