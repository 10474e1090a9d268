"""Tests for repro.fingerprint and repro.cache (store, batch, CLI)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import obs
from repro.cache import CompilationCache, batch_compile, standard_options
from repro.cache.store import SWEEP_NAMESPACE
from repro.errors import ConfigError, ModelNotFoundError
from repro.fingerprint import (
    accel_fingerprint,
    compile_key,
    fingerprint,
    graph_fingerprint,
    options_fingerprint,
    sweep_key,
    tile_key,
)
from repro.lcmm.framework import run_lcmm
from repro.lcmm.options import LCMMOptions
from repro.perf.tiling import TileConfig

from tests.conftest import build_chain, build_snippet, small_accel, sweep_base


class TestFingerprints:
    def test_compile_key_deterministic(self):
        g, a = build_chain(), small_accel()
        assert compile_key(g, a, LCMMOptions()) == compile_key(g, a, LCMMOptions())

    def test_compile_key_sensitive_to_every_input(self):
        g, a = build_chain(), small_accel()
        base = compile_key(g, a, LCMMOptions())
        assert compile_key(build_snippet(), a, LCMMOptions()) != base
        assert compile_key(g, small_accel(ddr_efficiency=0.8), LCMMOptions()) != base
        assert compile_key(g, a, LCMMOptions(splitting=False)) != base
        assert compile_key(g, a, None) != base
        assert compile_key(g, a, LCMMOptions(), extra={"strict": True}) != base

    def test_graph_fingerprint_tracks_structure(self):
        assert graph_fingerprint(build_chain()) == graph_fingerprint(build_chain())
        assert graph_fingerprint(build_chain(3)) != graph_fingerprint(build_chain(4))

    def test_accel_fingerprint_tile_optional(self):
        a = small_accel()
        b = replace(a, tile=TileConfig(8, 8, 7, 7))
        assert accel_fingerprint(a) != accel_fingerprint(b)
        assert accel_fingerprint(a, include_tile=False) == accel_fingerprint(
            b, include_tile=False
        )

    def test_sweep_key_ignores_tile(self):
        g, a = build_chain(), small_accel()
        assert sweep_key(g, a) == sweep_key(g, replace(a, tile=TileConfig(8, 8, 7, 7)))

    def test_options_fingerprint_distinguishes_umm_floor(self):
        assert options_fingerprint(None) != options_fingerprint(LCMMOptions())

    def test_tile_key_format(self):
        assert tile_key(TileConfig(16, 32, 14, 7)) == "16x32x14x7"


class TestStore:
    def test_memory_round_trip(self):
        cache = CompilationCache()
        assert cache.get("k") is None
        cache.put("k", {"x": 1})
        assert cache.get("k") == {"x": 1}
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.stores == 1

    def test_get_returns_independent_copies(self):
        cache = CompilationCache()
        cache.put("k", {"x": 1})
        first = cache.get("k")
        first["x"] = 999
        assert cache.get("k") == {"x": 1}

    def test_disk_persistence_across_handles(self, tmp_path):
        CompilationCache(tmp_path).put("k", [1, 2, 3])
        fresh = CompilationCache(tmp_path)
        assert fresh.get("k") == [1, 2, 3]
        assert fresh.stats.memory_hits == 0  # came from disk

    def test_namespaces_do_not_collide(self):
        cache = CompilationCache()
        cache.put("k", "result-value")
        cache.put("k", "sweep-value", namespace=SWEEP_NAMESPACE)
        assert cache.get("k") == "result-value"
        assert cache.get("k", namespace=SWEEP_NAMESPACE) == "sweep-value"

    def test_corrupt_entry_is_a_miss_and_heals(self, tmp_path):
        writer = CompilationCache(tmp_path)
        writer.put("deadbeef", {"x": 1})
        path = writer._path("deadbeef", "result")
        path.write_bytes(b"not a pickle")
        reader = CompilationCache(tmp_path)
        assert reader.get("deadbeef") is None
        assert not path.exists()  # dropped so the slot heals
        reader.put("deadbeef", {"x": 2})
        assert CompilationCache(tmp_path).get("deadbeef") == {"x": 2}

    def test_lru_eviction_counts_and_disk_survives(self, tmp_path):
        cache = CompilationCache(tmp_path, memory_entries=2)
        for i in range(3):
            cache.put(f"k{i}", i)
        assert cache.stats.evictions == 1
        assert cache.get("k0") == 0  # evicted from memory, still on disk

    def test_contains_does_not_count_as_lookup(self):
        cache = CompilationCache()
        cache.put("k", 1)
        assert cache.contains("k") and not cache.contains("other")
        assert cache.stats.lookups == 0

    def test_negative_memory_entries_rejected(self):
        with pytest.raises(ConfigError):
            CompilationCache(memory_entries=-1)

    def test_metrics_published_under_tracing(self):
        obs.reset_registry()
        cache = CompilationCache()
        with obs.tracing("test"):
            cache.get("nope")
            cache.put("k", 1)
            cache.get("k")
        snap = obs.registry().snapshot()
        assert sum(snap["cache.hit"]["series"].values()) == 1
        assert sum(snap["cache.miss"]["series"].values()) == 1

    def test_no_metrics_without_tracer(self):
        obs.reset_registry()
        cache = CompilationCache()
        cache.get("nope")
        assert "cache.miss" not in obs.registry().snapshot()


class TestRunLcmmCache:
    def test_miss_then_hit_bit_identical(self, tmp_path):
        graph, accel = build_snippet(), small_accel()
        cache = CompilationCache(tmp_path)
        cold = run_lcmm(build_snippet(), accel, cache=cache)
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        warm = run_lcmm(graph, accel, cache=cache)
        assert cache.stats.hits == 1
        assert fingerprint(warm) == fingerprint(cold)

    def test_hit_from_fresh_process_handle(self, tmp_path):
        graph, accel = build_snippet(), small_accel()
        cold = run_lcmm(graph, accel, cache=CompilationCache(tmp_path))
        fresh = CompilationCache(tmp_path)
        warm = run_lcmm(build_snippet(), accel, cache=fresh)
        assert fresh.stats.hits == 1
        assert fingerprint(warm) == fingerprint(cold)

    def test_options_partition_the_cache(self, tmp_path):
        graph, accel = build_snippet(), small_accel()
        cache = CompilationCache(tmp_path)
        run_lcmm(graph, accel, options=LCMMOptions(), cache=cache)
        run_lcmm(graph, accel, options=LCMMOptions(splitting=False), cache=cache)
        assert cache.stats.misses == 2 and cache.stats.hits == 0

    def test_custom_pipeline_bypasses_cache(self):
        from repro.lcmm.passes import default_pipeline

        graph, accel = build_snippet(), small_accel()
        cache = CompilationCache()
        run_lcmm(graph, accel, pipeline=default_pipeline(LCMMOptions()), cache=cache)
        # Arbitrary pass objects are not fingerprintable; no lookup, no store.
        assert cache.stats.lookups == 0 and cache.stats.stores == 0


class TestDseWarmStart:
    def test_warm_sweep_matches_cold(self):
        graph, base = build_chain(), small_accel()
        cache = CompilationCache()
        budget = 10 * 2**20
        cold = sweep_base(graph, base, budget, cache=cache)
        stores_after_cold = cache.stats.stores
        warm = sweep_base(graph, base, budget, cache=cache)
        key = lambda points: [(p.accel.tile, p.umm_latency) for p in points]
        assert key(warm) == key(cold)
        # Second sweep scored nothing new, so nothing was written back.
        assert cache.stats.stores == stores_after_cold

    def test_partial_warm_start_scores_only_new_tiles(self):
        graph, base = build_chain(), small_accel()
        cache = CompilationCache()
        first = [TileConfig(8, 8, 7, 7), TileConfig(16, 16, 14, 14)]
        second = first + [TileConfig(32, 16, 14, 14)]
        sweep_base(graph, base, 10 * 2**20, tiles=first, cache=cache)
        warm = cache.get(sweep_key(graph, base), namespace=SWEEP_NAMESPACE)
        assert set(warm) == {tile_key(t) for t in first}
        points = sweep_base(graph, base, 10 * 2**20, tiles=second, cache=cache)
        merged = cache.get(sweep_key(graph, base), namespace=SWEEP_NAMESPACE)
        assert set(merged) == {tile_key(t) for t in second}
        plain = sweep_base(graph, base, 10 * 2**20, tiles=second)
        key = lambda pts: [(p.accel.tile, p.umm_latency) for p in pts]
        assert key(points) == key(plain)

    def test_uncached_behaviour_unchanged(self):
        graph, base = build_chain(), small_accel()
        a = sweep_base(graph, base, 10 * 2**20)
        b = sweep_base(graph, base, 10 * 2**20, cache=None)
        key = lambda pts: [(p.accel.tile, p.umm_latency) for p in pts]
        assert key(a) == key(b)


class TestBatchCompile:
    def test_cold_then_warm(self, tmp_path):
        cold = batch_compile(
            models=["alexnet"], configs=["umm", "splitting"], cache_dir=tmp_path
        )
        assert cold.misses == 2 and not cold.all_hits
        warm = batch_compile(
            models=["alexnet"], configs=["umm", "splitting"], cache_dir=tmp_path
        )
        assert warm.all_hits and warm.hits == 2
        assert [o.fingerprint for o in warm.outcomes] == [
            o.fingerprint for o in cold.outcomes
        ]

    def test_verify_golden_accepts_fresh_results(self):
        report = batch_compile(models=["alexnet"], configs=["splitting"])
        assert report.verify_golden("tests/golden") == []

    def test_verify_golden_reports_mismatches(self, tmp_path):
        report = batch_compile(models=["alexnet"], configs=["splitting"])
        problems = report.verify_golden(tmp_path)  # no golden files here
        assert problems and "no golden file" in problems[0]

    def test_no_cache_dir_always_compiles(self):
        report = batch_compile(models=["alexnet"], configs=["umm"])
        again = batch_compile(models=["alexnet"], configs=["umm"])
        assert report.misses == 1 and again.misses == 1

    def test_workers_share_one_cache_directory(self, tmp_path):
        report = batch_compile(
            models=["alexnet"],
            configs=["umm", "dnnk", "greedy", "splitting"],
            cache_dir=tmp_path,
            workers=2,
        )
        assert len(report.outcomes) == 4
        warm = batch_compile(
            models=["alexnet"],
            configs=["umm", "dnnk", "greedy", "splitting"],
            cache_dir=tmp_path,
        )
        assert warm.all_hits
        assert warm.verify_golden("tests/golden") == []

    def test_bad_inputs_rejected_up_front(self):
        with pytest.raises(ConfigError):
            batch_compile(configs=["nonsense"])
        with pytest.raises(ModelNotFoundError):
            batch_compile(models=["not-a-model"])
        with pytest.raises(ConfigError):
            batch_compile(workers=0)
        with pytest.raises(ConfigError):
            standard_options("nonsense")


class TestCli:
    def test_batch_compile_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        cache = str(tmp_path / "cache")
        assert main(["batch-compile", "alexnet", "--configs", "umm", "--cache", cache]) == 0
        assert "miss" in capsys.readouterr().out
        assert (
            main(
                [
                    "batch-compile", "alexnet", "--configs", "umm",
                    "--cache", cache, "--require-all-hits",
                    "--verify-golden", "tests/golden",
                ]
            )
            == 0
        )
        assert "hit" in capsys.readouterr().out

    def test_require_all_hits_fails_cold(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            ["batch-compile", "alexnet", "--configs", "umm", "--require-all-hits"]
        )
        capsys.readouterr()
        assert code == 1
