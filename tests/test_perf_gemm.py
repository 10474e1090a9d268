"""Systolic GEMM cycle model: closed forms, properties, scorer parity.

The cycle-model satellite: hand-computed closed-form cases for small
(M, N, P) x (rows, cols, simd) configurations, hypothesis properties
(monotone in each of M/N/P, exact at tile boundaries, lower bound
admissible for every tile), and the two integration guarantees the DSE
depends on — ``LatencyModel.umm_latency(tile)`` stays bit-for-bit equal
to a full ``LatencyModel`` rebuild on transformer graphs, and the tile-level
simulator agrees with the bulk Eq. 1 characterisation up to pipeline
fill.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir.graph import ComputationGraph
from repro.ir.layer import Attention, Gemm, GemmDims, InputLayer, LayerNorm
from repro.ir.tensor import FeatureMapShape
from repro.models.zoo import get_model
from repro.perf.latency import LatencyModel
from repro.perf.systolic import (
    SystolicArray,
    default_accelerator,
    gemm_compute_cycles,
    gemm_cycles_lower_bound,
    gemm_reload_trips,
)
from repro.perf.tiling import TileConfig

from tests.oracles import simulate_tiles
from tests.strategies import assert_floor_below_every_tile, assert_retiled_equals_fresh

_dims = st.integers(min_value=1, max_value=512)
_small = st.integers(min_value=1, max_value=16)


def _gemm_graph(channels: int, seq: int, out_features: int) -> ComputationGraph:
    g = ComputationGraph("g")
    g.add(InputLayer(name="in", shape=FeatureMapShape(channels, seq, 1)))
    g.add(Gemm(name="gemm", inputs=("in",), out_features=out_features))
    return g


class TestClosedForm:
    """Hand-computed cycle counts for small configurations."""

    def test_reference_case(self):
        # 2x2 array, 2 SIMD lanes -> 4 reduction lanes.  M=4 rows of
        # tokens, N=8 reduction, P=6 output features, tm=4, th*tw=2.
        #   inner = M * ceil(N/4) * [full tile: ceil(4/2) + tail: ceil(2/2)]
        #         = 4 * 2 * 3 = 24
        #   fill  = (rows+cols) * ceil(M/2) * ceil(P/4) = 4 * 2 * 2 = 16
        array = SystolicArray(rows=2, cols=2, simd=2)
        tile = TileConfig(tm=4, tn=8, th=2, tw=1)
        dims = GemmDims(batch=1, m=4, n=8, p=6)
        assert gemm_compute_cycles(dims, array, tile) == 40

    def test_batch_scales_linearly(self):
        array = SystolicArray(rows=2, cols=2, simd=2)
        tile = TileConfig(tm=4, tn=8, th=2, tw=1)
        one = gemm_compute_cycles(GemmDims(1, 4, 8, 6), array, tile)
        three = gemm_compute_cycles(GemmDims(3, 4, 8, 6), array, tile)
        assert three == 3 * one

    def test_single_pe_counts_every_mac(self):
        # A 1x1x1 array with everything in one tile does one MAC per
        # cycle: inner term == M*N*P exactly, plus one fill of 2 cycles.
        array = SystolicArray(rows=1, cols=1, simd=1)
        tile = TileConfig(tm=64, tn=64, th=8, tw=8)
        dims = GemmDims(1, 5, 7, 11)
        assert gemm_compute_cycles(dims, array, tile) == 5 * 7 * 11 + 2

    def test_lower_bound_closed_form(self):
        array = SystolicArray(rows=2, cols=2, simd=2)
        dims = GemmDims(1, 4, 8, 6)
        # inner = 4 * ceil(8/4) * ceil(6/2) = 24; fill = rows+cols = 4.
        assert gemm_cycles_lower_bound(dims, array) == 28


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(m=_dims, n=_dims, p=_dims, tm=_small, sp=_small)
    def test_lower_bound_admissible_for_every_tile(self, m, n, p, tm, sp):
        array = SystolicArray(rows=4, cols=4, simd=2)
        tile = TileConfig(tm=tm, tn=n, th=sp, tw=sp)
        dims = GemmDims(1, m, n, p)
        assert gemm_cycles_lower_bound(dims, array) <= gemm_compute_cycles(
            dims, array, tile
        )

    @settings(max_examples=60, deadline=None)
    @given(m=_dims, n=_dims, p=_dims, delta=st.integers(min_value=1, max_value=64))
    def test_monotone_in_each_dimension(self, m, n, p, delta):
        array = SystolicArray(rows=4, cols=4, simd=2)
        tile = TileConfig(tm=8, tn=64, th=4, tw=2)
        base = gemm_compute_cycles(GemmDims(1, m, n, p), array, tile)
        assert gemm_compute_cycles(GemmDims(1, m + delta, n, p), array, tile) >= base
        assert gemm_compute_cycles(GemmDims(1, m, n + delta, p), array, tile) >= base
        assert gemm_compute_cycles(GemmDims(1, m, n, p + delta), array, tile) >= base

    @settings(max_examples=60, deadline=None)
    @given(m=_dims, n=_dims, tiles=st.integers(min_value=1, max_value=8))
    def test_exact_at_tile_boundaries(self, m, n, tiles):
        """When P fills whole tiles and tm | cols-multiples, the tiled
        inner loop equals the untiled one — tiling adds only fill."""
        array = SystolicArray(rows=4, cols=4, simd=2)
        tm = 2 * array.cols  # tile is a whole number of column passes
        p = tiles * tm  # P is a whole number of tiles
        tile = TileConfig(tm=tm, tn=n, th=1, tw=1)
        dims = GemmDims(1, m, n, p)
        inner_untiled = m * math.ceil(n / array.reduction_lanes) * (p // array.cols)
        fill = (array.rows + array.cols) * m * tiles
        assert gemm_compute_cycles(dims, array, tile) == inner_untiled + fill

    @settings(max_examples=60, deadline=None)
    @given(m=_dims, n=_dims, p=_dims, tm=_small, unit_p=st.integers(1, 6))
    def test_tiled_sum_matches_bruteforce(self, m, n, p, tm, unit_p):
        """The O(1) tiled ceil-sum equals walking the tile loop."""
        array = SystolicArray(rows=4, cols=unit_p, simd=2)
        tile = TileConfig(tm=tm, tn=n, th=1, tw=1)
        dims = GemmDims(1, m, n, p)
        brute = 0
        for start in range(0, p, tm):
            brute += math.ceil(min(tm, p - start) / array.cols)
        inner = m * math.ceil(n / array.reduction_lanes) * brute
        fill = (array.rows + array.cols) * math.ceil(m / 1) * math.ceil(p / tm)
        assert gemm_compute_cycles(dims, array, tile) == inner + fill

    @settings(max_examples=60, deadline=None)
    @given(m=_dims, n=_dims, p=_dims, tn_a=_dims, tn_b=_dims)
    def test_tn_never_changes_gemm_cost(self, m, n, p, tn_a, tn_b):
        """The tn-dominance pruning invariant: neither cycles nor reload
        factors may depend on the input-channel tile."""
        array = SystolicArray(rows=4, cols=4, simd=2)
        a = TileConfig(tm=8, tn=tn_a, th=4, tw=2)
        b = TileConfig(tm=8, tn=tn_b, th=4, tw=2)
        dims = GemmDims(1, m, n, p)
        assert gemm_compute_cycles(dims, array, a) == gemm_compute_cycles(
            dims, array, b
        )
        assert gemm_reload_trips(dims, a, 1, 65536, 65536) == gemm_reload_trips(
            dims, b, 1, 65536, 65536
        )


class TestReloadTrips:
    def test_streaming_defaults(self):
        # No residency buffers: activations stream once per output tile,
        # weights once per row tile.
        tile = TileConfig(tm=8, tn=64, th=2, tw=2)
        dims = GemmDims(1, m=16, n=64, p=40)
        assert gemm_reload_trips(dims, tile, 1, 0, 0) == (
            math.ceil(40 / 8),
            math.ceil(16 / 4),
        )

    def test_if_residency_drops_reloads(self):
        tile = TileConfig(tm=8, tn=64, th=2, tw=2)
        dims = GemmDims(1, m=16, n=64, p=40)
        working_set = dims.n * tile.gemm_rows  # 64 * 4 bytes at int8
        assert gemm_reload_trips(dims, tile, 1, working_set, 0)[0] == 1
        assert gemm_reload_trips(dims, tile, 1, working_set - 1, 0)[0] == 5

    def test_wt_residency_drops_reloads(self):
        tile = TileConfig(tm=8, tn=64, th=2, tw=2)
        dims = GemmDims(1, m=16, n=64, p=40)
        working_set = tile.tm * dims.n
        assert gemm_reload_trips(dims, tile, 1, 0, working_set)[1] == 1
        assert gemm_reload_trips(dims, tile, 1, 0, working_set - 1)[1] == 4


_PARITY_TILES = [
    TileConfig(tm=8, tn=8, th=7, tw=7),
    TileConfig(tm=32, tn=16, th=14, tw=14),
    TileConfig(tm=64, tn=64, th=28, tw=28),
]


class TestScorerParity:
    """A re-tiled UMM latency equals a fresh model bit for bit on
    GEMM/attention graphs, exactly as it does on conv graphs (the fixed
    examples of the properties in ``tests/test_perf_latency.py``)."""

    @pytest.mark.parametrize("name", ["bert_base", "vit_b16"])
    def test_score_equals_full_model(self, name):
        graph = get_model(name)
        base = dataclasses.replace(
            default_accelerator(),
            if_resident_cap=65536,
            wt_resident_cap=65536,
        )
        assert_retiled_equals_fresh(graph, base, _PARITY_TILES)

    def test_lower_bound_below_every_score(self):
        assert_floor_below_every_tile(
            get_model("bert_base"), default_accelerator(), _PARITY_TILES
        )


class TestTileSimulation:
    def _model(self):
        g = ComputationGraph("mini")
        g.add(InputLayer(name="in", shape=FeatureMapShape(256, 64, 1)))
        g.add(Attention(name="attn", inputs=("in",), num_heads=4))
        g.add(LayerNorm(name="ln", inputs=("attn",)))
        g.add(Gemm(name="mlp", inputs=("ln",), out_features=1024))
        return LatencyModel(g, default_accelerator())

    def test_gemm_iterations_cover_row_and_output_tiles(self):
        model = self._model()
        layer = model.graph.layer("mlp")
        tile = model.accel.tile
        dims = layer.gemm_dims()
        result = simulate_tiles(model, "mlp")
        expected = tile.gemm_row_trips(dims.m) * tile.gemm_output_trips(dims.p)
        assert result.iterations == expected

    def test_total_close_to_bulk(self):
        # The tile schedule hides loads behind compute; the makespan can
        # only exceed the analytical Eq. 1 bulk latency by the pipeline
        # fill plus the drain of the last iteration (one tile's worth of
        # unoverlapped compute/store).
        model = self._model()
        for node in ("attn", "mlp"):
            r = simulate_tiles(model, node)
            drain = r.total_latency / r.iterations
            assert r.total_latency >= r.bulk_latency
            assert r.total_latency <= r.bulk_latency + r.pipeline_fill + drain

    def test_norm_has_no_tile_schedule(self):
        with pytest.raises(ValueError):
            simulate_tiles(self._model(), "ln")
