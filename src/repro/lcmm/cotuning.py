"""Co-tuning of tile shape and tensor allocation.

Sec. 4.1 of the paper observes that once LCMM overcomes the off-chip
bottleneck, the design "could use smaller tile size to improve
computation efficiency, leading to less BRAM consumption".  The tile
shape trades two effects against each other:

* **larger tiles** cut reload traffic for the layers that stay off-chip
  (fewer input re-streams, fewer weight re-streams), but
* **smaller tiles** free SRAM for LCMM's tensor buffers, letting more
  tensors move on chip — and once a layer's tensors are resident, its
  reload factors stop mattering entirely.

The UMM-optimal tile (what a baseline DSE picks) is therefore generally
not the LCMM-optimal tile.  This module sweeps candidate tiles, runs the
full LCMM pipeline on each, and returns the jointly best design — the
co-design loop the paper sketches as integration with DSE frameworks
(Fig. 4).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import CapacityError
from repro.ir.graph import ComputationGraph
from repro.lcmm.framework import LCMMOptions, LCMMResult, run_lcmm
from repro.perf.dse import candidate_tiles
from repro.perf.latency import LatencyModel
from repro.perf.systolic import AcceleratorConfig
from repro.perf.tiling import TileConfig


@dataclass(frozen=True)
class CoTuningPoint:
    """One evaluated (tile, allocation) pair.

    Attributes:
        tile: Tile configuration evaluated.
        umm_latency: Baseline latency at this tile (everything off chip).
        lcmm_latency: Latency after the full LCMM pipeline.
        tile_buffer_bytes: SRAM the tile buffers claim at this shape.
    """

    tile: TileConfig
    umm_latency: float
    lcmm_latency: float
    tile_buffer_bytes: int


@dataclass
class CoTuningResult:
    """Outcome of the tile/allocation co-tuning sweep.

    Attributes:
        best_accel: The winning design point.
        best_result: Its LCMM allocation.
        points: All evaluated points, in candidate order.
    """

    best_accel: AcceleratorConfig
    best_result: LCMMResult
    points: list[CoTuningPoint]

    @property
    def best_point(self) -> CoTuningPoint:
        """The evaluated point matching the winning design."""
        return min(self.points, key=lambda p: p.lcmm_latency)


def cotune(
    graph: ComputationGraph,
    base: AcceleratorConfig,
    tiles: list[TileConfig] | None = None,
    options: LCMMOptions | None = None,
) -> CoTuningResult:
    """Sweep tile shapes, running full LCMM on each; return the joint best.

    Args:
        graph: The DNN to optimise.
        base: Design point providing everything except the tile shape.
        tiles: Candidate tiles; defaults to the DSE grid plus the base
            design's own tile.
        options: LCMM feature switches applied at every point.

    Raises:
        repro.errors.CapacityError: If no candidate tile's buffers fit
            the device SRAM (remains catchable as ``ValueError``).
    """
    candidates = list(tiles) if tiles is not None else candidate_tiles()
    if base.tile not in candidates:
        candidates.insert(0, base.tile)

    points: list[CoTuningPoint] = []
    best_accel: AcceleratorConfig | None = None
    best_result: LCMMResult | None = None
    for tile in candidates:
        accel = replace(base, tile=tile)
        if accel.tile_buffer_bytes() >= accel.device.sram_bytes:
            continue
        model = LatencyModel(graph, accel)
        result = run_lcmm(graph, accel, options=options, model=model)
        points.append(
            CoTuningPoint(
                tile=tile,
                umm_latency=model.umm_latency(),
                lcmm_latency=result.latency,
                tile_buffer_bytes=accel.tile_buffer_bytes(),
            )
        )
        if best_result is None or result.latency < best_result.latency:
            best_accel, best_result = accel, result
    if best_accel is None or best_result is None:
        raise CapacityError(
            "no candidate tile configuration fits the device",
            details={"tiles": len(candidates), "sram_bytes": base.device.sram_bytes},
        )
    return CoTuningResult(
        best_accel=best_accel, best_result=best_result, points=points
    )
