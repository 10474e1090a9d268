"""Tests for repro.perf.pool: the reusable DSE worker pool."""

import pytest

from repro.perf.dse import WorkerStats, candidate_tiles
from repro.errors import ConfigError
from repro.perf.pool import ScorerPool

from tests.conftest import (
    build_chain,
    child_pids,
    small_accel,
    sweep_base,
    wait_for_exit,
)


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

    def test_private_pool_is_joined_when_the_sweep_returns(self):
        # An idle private pool is shut down with a join, so no executor
        # management thread outlives the sweep for the interpreter's exit
        # hook to wake through a closed pipe.
        from concurrent.futures.process import _ExecutorManagerThread
        import threading

        from repro.perf.space import SampledSpace, explore_space

        def managers() -> set:
            return {
                t for t in threading.enumerate()
                if isinstance(t, _ExecutorManagerThread) and t.is_alive()
            }

        before = managers()
        space = SampledSpace([(small_accel(), candidate_tiles()[:8])])
        explore_space(build_chain(), space, 10 * 2**20, workers=2, prune=False)
        assert not managers() - before

    def test_cold_private_pool_ships_every_pending_tile(self):
        # A cold private pool scores nothing in the parent: each scored
        # base's tiles split evenly into min(workers, n) chunks, and the
        # pooled points equal a serial sweep's bit for bit.
        from repro import obs
        from repro.perf.space import SampledSpace, explore_space

        graph = build_chain()
        tiles = candidate_tiles()
        space = SampledSpace(
            [(small_accel(), tiles[:7]), (small_accel(frequency=300e6), tiles)]
        )
        budget = 10 * 2**20
        serial = explore_space(graph, space, budget, prune=False)
        stats = WorkerStats()
        with obs.tracing("main") as tracer:
            pooled = explore_space(
                graph, space, budget, workers=2, prune=False, stats=stats
            )
        key = lambda result: [(p.accel, p.umm_latency) for p in result.points]
        assert key(pooled) == key(serial)
        chunks = [r for r in tracer.records if r.name == "dse.chunk"]
        assert sorted(r.attrs["tiles"] for r in chunks) == [3, 4, 24, 24]
        assert sum(r.attrs["tiles"] for r in chunks) == serial.scored_points
        assert stats.chunks == len(chunks) and not stats.recovered()
        assert not any(r.name == "dse.serial-sweep" for r in tracer.records)
