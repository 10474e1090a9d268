"""Tests for repro.perf.space: exploded design spaces and pruning."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CapacityError, ConfigError, GraphValidationError
from repro.hw.precision import FP32, INT8, INT16
from repro.models.zoo import get_model
from repro.perf.dse import WorkerStats, candidate_tiles
from repro.perf import latency
from repro.perf.latency import LatencyModel
from repro.perf.pool import ScorerPool
from repro.perf.space import (
    DesignSpace,
    SampledSpace,
    explore_space,
    large_space,
    small_space,
)
from repro.perf.systolic import SystolicArray

from tests.conftest import build_chain, build_input_only, build_snippet, small_accel
from tests.strategies import assert_floor_below_every_tile

BUDGET = 2 * 2**20


def _tiny_space(**overrides):
    defaults = dict(
        arrays=(SystolicArray(rows=16, cols=8, simd=8),),
        precisions=(INT16,),
        frequencies=(190e6,),
        ddr_efficiencies=(0.7, 1.0),
        tm_values=(16, 32),
        tn_values=(16, 32),
        spatial_values=(7, 14),
    )
    defaults.update(overrides)
    return DesignSpace(**defaults)


class TestDesignSpace:
    def test_size_is_bases_times_tiles(self):
        space = _tiny_space()
        assert space.size() == len(space.bases()) * len(space.tiles())
        assert space.size() == 2 * 8

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError, match="frequencies"):
            _tiny_space(frequencies=())

    def test_infeasible_precision_array_pairs_excluded(self):
        # 5632 MACs at 5 DSPs/MAC far exceeds the VU9P's 6840 slices.
        space = _tiny_space(
            arrays=(SystolicArray(rows=32, cols=16, simd=11),),
            precisions=(INT8, FP32),
        )
        # One infeasible (array, precision) pair x two DDR efficiencies.
        assert space.infeasible_bases() == 2
        assert all(b.precision is INT8 for b in space.bases())

    def test_base_names_deterministic(self):
        # Warm-start cache keys hash the name; it must be stable.
        first = [b.name for b in _tiny_space().bases()]
        second = [b.name for b in _tiny_space().bases()]
        assert first == second
        assert len(set(first)) == len(first)  # and unique per base

    def test_presets_hit_their_scale(self):
        assert 1_000 <= small_space().size() <= 5_000
        assert 100_000 <= large_space().size() <= 1_000_000

    def test_sample_is_deterministic_and_sized(self):
        space = _tiny_space()
        a = space.sample(10, seed=3)
        b = space.sample(10, seed=3)
        assert a.size() == b.size() == 10
        assert [
            (base.name, tiles) for base, tiles in a.groups()
        ] == [(base.name, tiles) for base, tiles in b.groups()]

    def test_sample_clamps_to_space(self):
        space = _tiny_space()
        assert space.sample(10_000).size() == space.size()

    def test_sample_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            _tiny_space().sample(0)


class TestLowerBound:
    @pytest.mark.parametrize("graph_builder", [build_chain, build_snippet])
    def test_bounds_every_tile(self, graph_builder):
        base = small_accel(if_resident_cap=1 << 14, wt_resident_cap=1 << 13)
        assert_floor_below_every_tile(graph_builder(), base, candidate_tiles())

    def test_scorer_reused_when_given(self):
        # A model's floor is read from the graph's floor table, never
        # from the model's re-tiled plan: scoring tiles must not move it.
        graph = build_chain()
        base = small_accel()
        model = LatencyModel(graph, base)
        floor = model.umm_floor()
        for tile in candidate_tiles():
            model.umm_latency(tile)
        assert model.umm_floor() == floor == LatencyModel(graph, base).umm_floor()


class TestExploreSpace:
    @pytest.mark.parametrize("prune", [True, False])
    def test_compute_free_graph_is_a_taxonomy_error(self, prune):
        # Nothing executes, so there is no latency to rank designs by.
        with pytest.raises(GraphValidationError):
            explore_space(build_input_only(), _tiny_space(), BUDGET, prune=prune)

    def test_pruned_best_identical_to_full(self):
        graph = build_chain()
        space = _tiny_space()
        pruned = explore_space(graph, space, BUDGET, prune=True)
        full = explore_space(graph, space, BUDGET, prune=False)
        assert pruned.best.accel == full.best.accel
        assert pruned.best.umm_latency == full.best.umm_latency
        assert pruned.best.tile_buffer_bytes == full.best.tile_buffer_bytes

    def test_counts_add_up(self):
        result = explore_space(build_chain(), _tiny_space(), BUDGET)
        assert (
            result.scored_points
            + result.pruned_dominated
            + result.pruned_bounded
            == result.total_points
        )
        assert result.bases_scored + result.bases_pruned <= result.bases_total
        assert len(result.points) == result.scored_points
        assert result.stats.points_pruned == result.pruned_points

    def test_unpruned_scores_everything(self):
        result = explore_space(build_chain(), _tiny_space(), BUDGET, prune=False)
        assert result.pruned_points == 0
        assert result.scored_points == result.total_points

    def test_points_sorted_ascending(self):
        result = explore_space(build_chain(), _tiny_space(), BUDGET)
        latencies = [p.umm_latency for p in result.points]
        assert latencies == sorted(latencies)

    def test_sampled_space_swept_like_cartesian(self):
        graph = build_chain()
        sample = _tiny_space().sample(12, seed=7)
        pruned = explore_space(graph, sample, BUDGET, prune=True)
        full = explore_space(graph, sample, BUDGET, prune=False)
        assert pruned.best.accel == full.best.accel
        assert pruned.best.umm_latency == full.best.umm_latency

    def test_serial_pruned_sweep_characterises_each_base_once(self, monkeypatch):
        # Residency caps never lower a floor, so every base ties on it
        # and none is pruned; more bases than the model LRU holds.
        builds = []

        class CountingModel(LatencyModel):
            def __init__(self, graph, accel):
                builds.append(accel.name)
                super().__init__(graph, accel)

        monkeypatch.setattr(latency, "LatencyModel", CountingModel)
        base = small_accel()
        bases = [
            replace(base, name=f"cap{i}", if_resident_cap=i << 12, wt_resident_cap=i << 12)
            for i in range(6)
        ]
        space = SampledSpace([(b, candidate_tiles()) for b in bases])
        result = explore_space(build_chain(), space, BUDGET, prune=True)
        assert result.bases_pruned == 0
        assert sorted(builds) == sorted(b.name for b in bases)

    def test_pruned_bases_are_never_characterised(self, monkeypatch):
        # Floors come from the floor table: only a scored base builds a
        # model, once, and a base the bound discards builds none.
        builds = []

        class CountingModel(LatencyModel):
            def __init__(self, graph, accel):
                builds.append(accel.name)
                super().__init__(graph, accel)

        monkeypatch.setattr(latency, "LatencyModel", CountingModel)
        space = _tiny_space(
            arrays=(
                SystolicArray(rows=16, cols=8, simd=8),
                SystolicArray(rows=8, cols=8, simd=8),
            ),
            precisions=(INT16, INT8),
            frequencies=(150e6, 190e6, 230e6),
        )
        result = explore_space(build_chain(), space, BUDGET, prune=True)
        assert result.bases_pruned > 0
        assert len(builds) == result.bases_scored
        assert len(set(builds)) == len(builds)
        scored = {p.accel.name for p in result.points}
        assert set(builds) == scored

    @pytest.mark.parametrize("seed", [0, 1])
    def test_large_sample_pool_matches_serial(self, seed):
        # The sweep of CI's `lcmm dse --space large --sample 300` check.
        graph = get_model("googlenet")
        sample = large_space().sample(300, seed)
        budget = 8 * 2**20
        serial = explore_space(graph, sample, budget, workers=1)
        pooled = explore_space(graph, sample, budget, workers=2)
        key = lambda r: (
            [(p.accel, p.umm_latency) for p in r.points],
            r.pruned_bounded,
            r.bases_pruned,
        )
        assert key(pooled) == key(serial)
        assert serial.bases_pruned > 0

    def test_workers_match_serial(self):
        graph = build_chain()
        space = _tiny_space()
        serial = explore_space(graph, space, BUDGET)
        parallel = explore_space(graph, space, BUDGET, workers=2)
        key = lambda r: [(p.accel.name, p.accel.tile, p.umm_latency) for p in r.points]
        assert key(parallel) == key(serial)

    def test_impossible_budget_raises(self):
        with pytest.raises(CapacityError):
            explore_space(build_chain(), _tiny_space(), 16)

    def test_invalid_workers(self):
        with pytest.raises(ConfigError):
            explore_space(build_chain(), _tiny_space(), BUDGET, workers=0)

    def test_warm_start_skips_seen_points(self):
        from repro.cache import CompilationCache

        graph = build_chain()
        space = _tiny_space()
        cache = CompilationCache(None)  # in-memory
        cold = explore_space(graph, space, BUDGET, cache=cache)
        warm_stats = WorkerStats()
        warm = explore_space(graph, space, BUDGET, cache=cache, stats=warm_stats)
        assert warm.best.accel == cold.best.accel
        assert warm.best.umm_latency == cold.best.umm_latency

    @pytest.mark.parametrize("prune", [True, False])
    def test_metrics_describe_the_whole_sweep(self, prune):
        # The dse.* metrics are published once per sweep from the totals
        # over every base, so a cold pool spun up for the first base (or
        # for the bounds) still shows in the init gauge after the last.
        from repro import obs

        graph = build_chain()
        stats = WorkerStats()
        pool = ScorerPool(graph, 2)
        obs.reset_registry()
        try:
            with obs.tracing("test"):
                result = explore_space(
                    graph, _tiny_space(), BUDGET, prune=prune, stats=stats,
                    pool=pool,
                )
            registry = obs.registry()
            assert result.bases_total > 1
            init = registry.gauge("dse.init_seconds").value(graph=graph.name)
            assert init == stats.init_seconds > 0
            pruned = registry.counter("dse.points_pruned").value(graph=graph.name)
            assert pruned == result.pruned_points
            chunks = registry.counter("dse.chunks").value(graph=graph.name)
            assert chunks == stats.chunks
        finally:
            pool.close()
            obs.reset_registry()


#: Axes for the randomised spaces of the pruning-soundness property.
_ARRAY_POOL = (
    SystolicArray(rows=16, cols=8, simd=8),
    SystolicArray(rows=8, cols=8, simd=8),
    SystolicArray(rows=16, cols=16, simd=8),
)


@st.composite
def _random_spaces(draw):
    subset = lambda values, n: tuple(
        draw(
            st.lists(
                st.sampled_from(values), min_size=1, max_size=n, unique=True
            )
        )
    )
    return DesignSpace(
        arrays=subset(_ARRAY_POOL, 2),
        precisions=subset((INT8, INT16), 2),
        frequencies=subset((150e6, 190e6, 230e6), 2),
        ddr_efficiencies=subset((0.6, 0.8, 1.0), 2),
        tm_values=subset((8, 16, 32, 64), 3),
        tn_values=subset((8, 16, 32), 2),
        spatial_values=subset((7, 14, 28), 2),
        if_resident_caps=subset((0, 1 << 14), 2),
    )


class TestPruningSoundnessProperty:
    """Pruning never removes the true argmax (ISSUE 6 property test)."""

    @settings(max_examples=25, deadline=None)
    @given(space=_random_spaces(), budget_kb=st.integers(64, 4096))
    def test_best_of_pruned_equals_best_of_full(self, space, budget_kb):
        graph = build_chain(num_convs=2)
        budget = budget_kb * 1024
        try:
            full = explore_space(graph, space, budget, prune=False)
        except CapacityError:
            with pytest.raises(CapacityError):
                explore_space(graph, space, budget, prune=True)
            return
        pruned = explore_space(graph, space, budget, prune=True)
        assert pruned.best.accel == full.best.accel
        assert pruned.best.umm_latency == full.best.umm_latency
