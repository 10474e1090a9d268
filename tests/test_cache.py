"""Tests for repro.fingerprint and repro.cache (store, batch, CLI)."""

from __future__ import annotations

import struct
from dataclasses import replace

import pytest

from repro import obs
from repro.cache import CompilationCache, batch_compile, standard_options
from repro.cache.batch import STANDARD_CONFIGS, _job_key, zoo_design
from repro.cache.store import RESULT_NAMESPACE, SWEEP_NAMESPACE
from repro.errors import ConfigError, ModelNotFoundError
from repro.fingerprint import (
    accel_fingerprint,
    compile_key,
    fingerprint,
    graph_fingerprint,
    options_fingerprint,
    result_reply,
    sweep_key,
    tile_key,
)
from repro.lcmm.framework import run_lcmm
from repro.lcmm.options import LCMMOptions
from repro.perf.tiling import TileConfig
from repro.robustness.inject import FaultPlan, injected

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

    def test_job_keys_match_run_lcmm_keys(self):
        # Batch artifacts and `lcmm run --cache` artifacts share one key.
        graph, accel = zoo_design("alexnet", "int8")
        for config in STANDARD_CONFIGS:
            assert _job_key("alexnet", config, "int8") == compile_key(
                graph, accel, standard_options(config)
            )
        cache = CompilationCache()
        run_lcmm(graph, accel, options=standard_options("dnnk"), cache=cache)
        assert cache.get(_job_key("alexnet", "dnnk", "int8")) is not None

    def test_bad_inputs_rejected_up_front(self):
        with pytest.raises(ConfigError):
            batch_compile(configs=["nonsense"])
        with pytest.raises(ModelNotFoundError):
            batch_compile(models=["not-a-model"])
        with pytest.raises(ConfigError):
            batch_compile(workers=0)
        with pytest.raises(ConfigError):
            standard_options("nonsense")


def damage_result_part(path, latency: float) -> None:
    """Flip the lowest mantissa bit of ``latency`` inside the result part.

    The pickled result stores the latency as one BINFLOAT (``G`` + eight
    big-endian bytes) after the reply, so the last occurrence is the
    result's own.  The damaged file still unpickles — to a result whose
    latency is off by one ulp — so only a checksum can catch it.
    """
    data = bytearray(path.read_bytes())
    at = data.rfind(b"G" + struct.pack(">d", latency))
    assert at >= 0
    data[at + 8] ^= 0x01
    path.write_bytes(bytes(data))


class TestResultArtifact:
    """One file per key: the reply, a checksum and the pickled result."""

    def test_damaged_result_part_is_a_miss_for_every_read(self, tmp_path):
        cold = batch_compile(models=["alexnet"], configs=["dnnk"], cache_dir=tmp_path)
        (outcome,) = cold.outcomes
        key = _job_key("alexnet", "dnnk", "int8")
        path = CompilationCache(tmp_path)._path(key, RESULT_NAMESPACE)

        damage_result_part(path, outcome.latency)
        cache = CompilationCache(tmp_path)
        assert cache.get(key) is None
        assert not path.exists()  # dropped, so the slot heals
        assert cache.stats.misses == 1 and cache.stats.hits == 0

        batch_compile(models=["alexnet"], configs=["dnnk"], cache_dir=tmp_path)
        damage_result_part(path, outcome.latency)
        cache = CompilationCache(tmp_path)
        assert cache.get_reply(key) is None
        assert not path.exists()
        assert cache.stats.misses == 1 and cache.stats.hits == 0

        batch_compile(models=["alexnet"], configs=["dnnk"], cache_dir=tmp_path)
        damage_result_part(path, outcome.latency)
        warm = batch_compile(models=["alexnet"], configs=["dnnk"], cache_dir=tmp_path)
        assert warm.misses == 1  # recompiled, never served
        assert warm.outcomes[0].fingerprint == outcome.fingerprint
        assert warm.verify_golden("tests/golden") == []
        healed = batch_compile(models=["alexnet"], configs=["dnnk"], cache_dir=tmp_path)
        assert healed.all_hits
        assert healed.outcomes[0].fingerprint == outcome.fingerprint

    def test_run_lcmm_artifacts_serve_a_warm_batch(self, tmp_path, capsys):
        from repro.cli import main

        configs = ["dnnk", "greedy", "splitting"]
        graph, accel = zoo_design("alexnet", "int8")
        cache = CompilationCache(tmp_path)
        for config in configs:
            result = run_lcmm(graph, accel, options=standard_options(config), cache=cache)
            key = _job_key("alexnet", config, "int8")
            assert cache.get_reply(key) == result_reply(result)
        capsys.readouterr()
        code = main(
            [
                "batch-compile", "alexnet", "--configs", ",".join(configs),
                "--cache", str(tmp_path), "--require-all-hits",
                "--verify-golden", "tests/golden",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "3 cache hits, 0 misses" in out
        assert "All results match the golden fingerprints" in out

    def test_artifact_without_reply_falls_back_to_get(self, tmp_path):
        graph, accel = zoo_design("alexnet", "int8")
        result = run_lcmm(graph, accel, options=standard_options("dnnk"))
        key = _job_key("alexnet", "dnnk", "int8")
        CompilationCache(tmp_path).put(key, result)  # no reply stored

        cache = CompilationCache(tmp_path)
        assert cache.get_reply(key) is None
        assert cache.stats.lookups == 0  # deferred to the fallback read
        assert cache.contains(key)
        warm = batch_compile(models=["alexnet"], configs=["dnnk"], cache_dir=tmp_path)
        assert warm.all_hits
        assert warm.outcomes[0].fingerprint == fingerprint(result)
        assert warm.verify_golden("tests/golden") == []

        other = CompilationCache()
        other.put("k", {"x": 1})
        assert other.get_reply("k") is None
        assert other.get("k") == {"x": 1}

    @pytest.mark.parametrize("disk", [False, True])
    def test_reply_read_counts_like_get(self, tmp_path, disk):
        reply = {"latency": 1.0, "degradation_level": 0,
                 "degradation_path": [], "fingerprint": {"x": 1}}

        def scenario(read) -> tuple[dict, int]:
            root = tmp_path / read if disk else None
            writer = CompilationCache(root)
            writer.put("k", "result", reply=reply)
            cache = CompilationCache(root) if disk else writer
            with injected(FaultPlan("cache.get", rate=0.0)) as armed:
                assert getattr(cache, read)("absent") is None
                assert getattr(cache, read)("k") is not None
                assert getattr(cache, read)("k") is not None  # memory hit
            fires = armed["cache.get"].hits
            fresh = CompilationCache(root) if disk else cache
            with injected(FaultPlan("cache.get")):
                getattr(fresh, read)("k")
            stats = cache.stats.as_dict()
            if disk:
                stats["fresh"] = fresh.stats.as_dict()
            return stats, fires

        assert scenario("get_reply") == scenario("get")
        stats, fires = scenario("get_reply")
        if disk:
            assert (stats["hits"], stats["misses"], stats["memory_hits"]) == (2, 1, 1)
            assert fires == 2  # the absent key and the first disk read
            assert stats["fresh"]["errors"] == 1
            assert stats["fresh"]["misses"] == 1
        else:
            # No disk, so no fault point: the armed read is a memory hit.
            assert (stats["hits"], stats["misses"], stats["memory_hits"]) == (3, 1, 3)
            assert fires == 0

    def test_reply_reads_return_independent_copies(self):
        cache = CompilationCache()
        cache.put("k", "result", reply={"degradation_path": []})
        cache.get_reply("k")["degradation_path"].append("mutated")
        assert cache.get_reply("k") == {"degradation_path": []}


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
