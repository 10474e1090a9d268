"""Ablation bench: tile/allocation co-tuning (the paper's Sec. 4.1 note).

The paper observes that after LCMM removes the off-chip bottleneck, a
smaller tile improves the design further ("we could use smaller tile size
... leading to less BRAM consumption").  This bench sweeps tile shapes on
GoogLeNet 16-bit, running full LCMM on each, and checks that the jointly
tuned design is at least as good as LCMM on the UMM-optimal tile.
"""

import pytest

from repro.analysis.experiments import reference_design
from repro.analysis.report import format_table
from repro.hw.precision import INT16
from repro.lcmm.cotuning import cotune
from repro.models import get_model
from repro.perf.latency import LatencyModel
from repro.perf.space import SampledSpace, explore_space
from repro.perf.tiling import TileConfig

from conftest import attach

TILES = [
    TileConfig(16, 16, 7, 7),
    TileConfig(32, 32, 7, 7),
    TileConfig(32, 32, 14, 14),
    TileConfig(64, 32, 14, 14),
    TileConfig(64, 64, 28, 28),
]


def test_cotuning(benchmark):
    graph = get_model("googlenet")
    base = reference_design("googlenet", INT16, "lcmm")

    result = benchmark(cotune, graph, base, TILES)

    print("\nAblation — tile/allocation co-tuning (GoogLeNet 16-bit)")
    print(
        format_table(
            ("Tile", "Tile buffers (KB)", "UMM (ms)", "LCMM (ms)"),
            [
                (
                    str(p.tile),
                    f"{p.tile_buffer_bytes / 1024:.0f}",
                    f"{p.umm_latency * 1e3:.3f}",
                    f"{p.lcmm_latency * 1e3:.3f}",
                )
                for p in result.points
            ],
        )
    )
    print(f"Co-tuned best: {result.best_accel.tile} "
          f"-> {result.best_result.latency * 1e3:.3f} ms")

    # Reference: LCMM run on the tile a UMM-oriented DSE would pick.
    space = SampledSpace([(base, TILES)])
    umm_best_tile = explore_space(graph, space, 512 * 1024).best.accel.tile
    umm_tile_point = next(p for p in result.points if p.tile == umm_best_tile)

    attach(
        benchmark,
        best_tile=str(result.best_accel.tile),
        umm_best_tile=str(umm_best_tile),
        best_lcmm_ms=round(result.best_result.latency * 1e3, 4),
    )

    assert result.best_result.latency <= umm_tile_point.lcmm_latency + 1e-15
    # The base (paper-calibrated) tile is never beaten by more than the
    # sweep's own spread — sanity on the calibration.
    base_point = next(p for p in result.points if p.tile == base.tile)
    assert result.best_result.latency <= base_point.lcmm_latency + 1e-15
