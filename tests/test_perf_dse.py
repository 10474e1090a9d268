"""Tests for repro.perf.dse and the single-base tile sweep."""

import pytest

from repro.models.zoo import get_model
from repro.perf.dse import WorkerStats, _score_parallel, candidate_tiles
from repro.perf.latency import LatencyModel
from repro.perf.pool import ScorerPool
from repro.perf.space import SampledSpace, explore_space
from repro.perf.tiling import TileConfig
from repro.robustness.inject import FaultPlan, injected

from tests.conftest import build_chain, build_snippet, small_accel, sweep_base
from tests.strategies import assert_retiled_equals_fresh


class TestCandidates:
    def test_default_candidates_cover_grid(self):
        tiles = candidate_tiles()
        assert len(tiles) == 4 * 3 * 4
        assert TileConfig(32, 32, 14, 14) in tiles

    def test_custom_grid(self):
        tiles = candidate_tiles(tm_values=(8,), tn_values=(8,), spatial_values=(7,))
        assert tiles == [TileConfig(8, 8, 7, 7)]


class TestExplore:
    def test_results_sorted_by_latency(self):
        points = sweep_base(build_chain(), small_accel(), 10 * 2**20)
        latencies = [p.umm_latency for p in points]
        assert latencies == sorted(latencies)

    def test_budget_excludes_large_tiles(self):
        tight = sweep_base(build_chain(), small_accel(), 64 * 1024)
        for p in tight:
            assert p.tile_buffer_bytes <= 64 * 1024

    def test_impossible_budget_raises(self):
        with pytest.raises(ValueError, match="no tile configuration"):
            sweep_base(build_chain(), small_accel(), 16)

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            sweep_base(build_chain(), small_accel(), 0)

    def test_best_design_beats_or_ties_all(self):
        g = build_chain()
        base = small_accel()
        budget = 1 * 2**20
        space = SampledSpace([(base, candidate_tiles())])
        best = explore_space(g, space, budget).best.accel
        points = sweep_base(g, base, budget)
        assert best.tile == points[0].accel.tile

    def test_explicit_tile_list(self):
        tiles = [TileConfig(8, 8, 7, 7), TileConfig(16, 16, 14, 14)]
        points = sweep_base(build_chain(), small_accel(), 10 * 2**20, tiles=tiles)
        assert {p.accel.tile for p in points} == set(tiles)

    def test_base_caps_preserved(self):
        base = small_accel(if_resident_cap=4096, wt_resident_cap=8192)
        points = sweep_base(build_chain(), base, 10 * 2**20)
        assert points[0].accel.if_resident_cap == 4096
        assert points[0].accel.wt_resident_cap == 8192


def mobilenet_v1():
    # Depthwise layers: the input streams once whatever the tile.
    return get_model("mobilenet_v1")


class TestSweepScorer:
    @pytest.mark.parametrize("graph_builder", [build_chain, build_snippet, mobilenet_v1])
    @pytest.mark.parametrize(
        "base",
        [small_accel(), small_accel(if_resident_cap=1 << 14, wt_resident_cap=1 << 13)],
        ids=["nocaps", "caps"],
    )
    def test_bit_identical_to_latency_model(self, graph_builder, base):
        assert_retiled_equals_fresh(graph_builder(), base, candidate_tiles())


class TestWorkers:
    def test_workers_results_identical_to_serial(self):
        graph = build_chain()
        base = small_accel()
        budget = 10 * 2**20
        serial = sweep_base(graph, base, budget)
        parallel = sweep_base(graph, base, budget, workers=2)
        key = lambda points: [(p.accel.tile, p.umm_latency) for p in points]
        assert key(parallel) == key(serial)

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            sweep_base(build_chain(), small_accel(), 10 * 2**20, workers=0)

    def test_taxonomy_errors(self):
        from repro.errors import CapacityError, ConfigError

        with pytest.raises(CapacityError):
            sweep_base(build_chain(), small_accel(), 0)
        with pytest.raises(CapacityError):
            sweep_base(build_chain(), small_accel(), 16)
        with pytest.raises(ConfigError):
            sweep_base(build_chain(), small_accel(), 10 * 2**20, workers=0)

    def test_more_workers_than_tiles(self, monkeypatch):
        # workers is clamped to the feasible tile count, so a 2-tile
        # sweep with 8 requested workers must not over-spawn or hang.
        from repro.perf import space

        built = []

        class RecordingPool(ScorerPool):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(space, "ScorerPool", RecordingPool)
        tiles = [TileConfig(8, 8, 7, 7), TileConfig(16, 16, 14, 14)]
        graph = build_chain()
        base = small_accel()
        serial = sweep_base(graph, base, 10 * 2**20, tiles=tiles)
        wide = sweep_base(graph, base, 10 * 2**20, tiles=tiles, workers=8)
        key = lambda points: [(p.accel.tile, p.umm_latency) for p in points]
        assert key(wide) == key(serial)
        assert [pool.workers for pool in built] == [2]
        assert built[0].closed

    def test_single_tile_many_workers_stays_serial(self):
        tiles = [TileConfig(8, 8, 7, 7)]
        stats = WorkerStats()
        points = sweep_base(
            build_chain(), small_accel(), 10 * 2**20, tiles=tiles, workers=4,
            stats=stats,
        )
        assert len(points) == 1
        # Clamped to 1 worker -> the serial path, no pool, no chunks.
        assert stats.chunks == 0 and not stats.recovered()


class TestWorkerRecovery:
    """Crash/timeout/retry recovery in the parallel sweep.

    All faults are injected through the registered ``dse.chunk`` fault
    point (a picklable plan installed in each worker), never a lambda —
    process pools can only run importable top-level callables.
    """

    def _setup(self):
        graph = build_chain()
        base = small_accel()
        tiles = [
            t for t in candidate_tiles()
            if t.tile_buffer_bytes(base.precision.bytes) <= 10 * 2**20
        ][:8]
        model = LatencyModel(graph, base)
        expected = [model.umm_latency(t) for t in tiles]
        return graph, base, tiles, expected

    @staticmethod
    def _score(graph, base, tiles, workers, **kwargs):
        """``_score_parallel`` on a pool built here (with the fault plans
        armed right now) and closed afterwards."""
        pool = ScorerPool(graph, workers)
        try:
            return _score_parallel(graph, base, tiles, pool, **kwargs)
        finally:
            pool.close()

    def test_worker_crash_recovers_serially(self):
        graph, base, tiles, expected = self._setup()
        stats = WorkerStats()
        with injected(FaultPlan("dse.chunk", mode="crash")):
            got = self._score(graph, base, tiles, 2, stats=stats)
        assert got == expected
        assert stats.pool_broken
        assert stats.serial_chunks >= 1

    def test_break_during_submission_recovers(self, monkeypatch):
        # Regression: a worker crash can break the executor while chunks
        # are still being submitted, so ``submit`` itself raises
        # ``BrokenProcessPool``.  That used to escape the sweep; now the
        # unsubmitted chunks are retried in a fresh pool like any chunk
        # whose result raised.
        from concurrent.futures.process import BrokenProcessPool

        graph, base, tiles, expected = self._setup()
        pool = ScorerPool(graph, 2)
        submit = pool.submit_chunk
        calls = []

        def breaks_on_second_call(*args):
            calls.append(args)
            if len(calls) == 2:
                raise BrokenProcessPool("a worker died during submission")
            return submit(*args)

        monkeypatch.setattr(pool, "submit_chunk", breaks_on_second_call)
        stats = WorkerStats()
        try:
            got = _score_parallel(graph, base, tiles, pool, stats=stats)
        finally:
            pool.close()
        assert got == expected
        assert stats.chunks >= 2
        assert stats.pool_broken
        assert stats.retries >= 1
        assert len(calls) > stats.chunks  # the broken submission was redone

    def test_chunk_timeout_recovers_serially(self):
        graph, base, tiles, expected = self._setup()
        stats = WorkerStats()
        plan = FaultPlan("dse.chunk", mode="hang", hang_seconds=5.0)
        with injected(plan):
            got = self._score(
                graph, base, tiles, 2,
                chunk_timeout=0.2, chunk_retries=0, stats=stats,
            )
        assert got == expected
        assert stats.timeouts >= 1
        assert stats.serial_chunks >= 1

    def test_transient_failure_retried_in_pool(self):
        graph, base, tiles, expected = self._setup()
        stats = WorkerStats()
        # One worker, one fire: the first chunk fails once, the retry
        # (same worker, fault already spent) succeeds in the pool.
        with injected(FaultPlan("dse.chunk", mode="raise", max_fires=1)):
            got = self._score(graph, base, tiles, 1, stats=stats)
        assert got == expected
        assert stats.failures == 1
        assert stats.retries == 1
        assert stats.serial_chunks == 0

    def test_persistent_failure_falls_back_serially(self):
        graph, base, tiles, expected = self._setup()
        stats = WorkerStats()
        with injected(FaultPlan("dse.chunk", mode="raise")):
            got = self._score(
                graph, base, tiles, 2, chunk_retries=1, stats=stats,
            )
        assert got == expected
        assert stats.serial_chunks >= 1

    def test_explore_designs_exact_under_crash(self):
        graph, base, _, _ = self._setup()
        budget = 10 * 2**20
        clean = sweep_base(graph, base, budget)
        stats = WorkerStats()
        with injected(FaultPlan("dse.chunk", mode="crash")):
            chaotic = sweep_base(graph, base, budget, workers=2, stats=stats)
        key = lambda points: [(p.accel.tile, p.umm_latency) for p in points]
        assert key(chaotic) == key(clean)
        assert stats.recovered()

    def test_timeout_retried_and_pool_slot_released(self):
        # Regression: a timed-out chunk's future cannot be cancelled once
        # running, so the hung worker used to keep its pool slot forever
        # and the timeout never entered retry accounting.  Now the chunk
        # is resubmitted (in a fresh pool once a slot is stranded) and,
        # past its retry budget, re-scored serially — with the parent
        # never blocked behind the hung worker.
        import time

        graph, base, tiles, expected = self._setup()
        stats = WorkerStats()
        plan = FaultPlan("dse.chunk", mode="hang", hang_seconds=30.0)
        start = time.monotonic()
        with injected(plan):
            got = self._score(
                graph, base, tiles, 2,
                chunk_timeout=0.2, chunk_retries=1, stats=stats,
            )
        elapsed = time.monotonic() - start
        assert got == expected
        assert stats.timeouts >= 1
        assert stats.retries >= 1  # timeouts now count against the retry budget
        assert stats.serial_chunks >= 1  # persistent hang ends in serial re-score
        # No pool slot stayed occupied: had shutdown waited on the hung
        # 30 s workers, the sweep could not finish this fast.
        assert elapsed < 15.0


class TestErrorRouting:
    """The parallel path's exception handling after the narrowing fix.

    ``except Exception`` used to relabel genuine taxonomy errors as
    ``pool_unavailable`` and silently re-run serially; now only
    environmental failures (OSError/RuntimeError/PicklingError) trigger
    the serial fallback, and every ``ReproError`` propagates — including
    ``PassError``, which is *also* a RuntimeError.
    """

    def test_repro_error_propagates_not_relabeled(self, monkeypatch):
        from repro.errors import PassError
        import repro.perf.space as space_mod

        def boom(*args, **kwargs):
            raise PassError("synthetic taxonomy failure")

        monkeypatch.setattr(space_mod, "_score_parallel", boom)
        stats = WorkerStats()
        with pytest.raises(PassError):
            sweep_base(
                build_chain(), small_accel(), 10 * 2**20, workers=2, stats=stats
            )
        assert not stats.pool_unavailable

    def test_environmental_error_falls_back_serially(self, monkeypatch):
        import repro.perf.space as space_mod

        def boom(*args, **kwargs):
            raise OSError("no process spawning in this environment")

        monkeypatch.setattr(space_mod, "_score_parallel", boom)
        graph = build_chain()
        base = small_accel()
        serial = sweep_base(graph, base, 10 * 2**20)
        stats = WorkerStats()
        fallback = sweep_base(graph, base, 10 * 2**20, workers=2, stats=stats)
        key = lambda points: [(p.accel.tile, p.umm_latency) for p in points]
        assert key(fallback) == key(serial)
        assert stats.pool_unavailable
