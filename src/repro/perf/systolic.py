"""Systolic array and accelerator design point.

The compute fabric follows [18]: a 2-D systolic array of PEs with a SIMD
dimension inside each PE.  Output channels map to array rows, input
channels to the SIMD lanes and spatial positions to array columns, so a
layer only wastes compute when its channel counts are not multiples of the
corresponding array dimensions — which is the "reduction of actual
operations" effect the paper mentions in Sec. 4.1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.hw.fpga import FPGADevice, VU9P
from repro.hw.memory import DDRSystem, make_vu9p_ddr
from repro.hw.precision import INT8, Precision
from repro.ir.layer import Conv2D, GemmDims
from repro.ir.tensor import FeatureMapShape
from repro.perf.tiling import TileConfig


@dataclass(frozen=True)
class SystolicArray:
    """Shape of the PE array.

    Attributes:
        rows: Array rows; output channels map here.
        cols: Array columns; output spatial positions map here.
        simd: SIMD lanes per PE; input channels map here.
    """

    rows: int
    cols: int
    simd: int

    def __post_init__(self) -> None:
        if min(self.rows, self.cols, self.simd) <= 0:
            raise ValueError(f"array dimensions must be positive, got {self}")

    @property
    def macs(self) -> int:
        """Parallel multiply-accumulate units."""
        return self.rows * self.cols * self.simd

    def dsp_slices(self, precision: Precision) -> int:
        """DSP slices the array consumes at a precision."""
        return self.macs * precision.dsps_per_mac

    def effective_macs(self, out_channels: int, in_channels: int) -> float:
        """MAC count adjusted for channel-dimension padding waste.

        A layer whose output (input) channel count is not a multiple of
        ``rows`` (``simd``) leaves part of the array idle; the effective
        throughput shrinks by the padding ratio.
        """
        m_eff = out_channels / (math.ceil(out_channels / self.rows) * self.rows)
        c_eff = in_channels / (math.ceil(in_channels / self.simd) * self.simd)
        return self.macs * m_eff * c_eff

    def __str__(self) -> str:
        return f"{self.rows}x{self.cols}x{self.simd}"

    @property
    def reduction_lanes(self) -> int:
        """Lanes reducing one output element's dot product per cycle.

        The GEMM mapping folds the reduction (N) dimension over both the
        array rows and the SIMD depth of each PE — the generalisation of
        the reference model's 2-D ``ceil(N / rows)`` term to PEs that are
        ``simd`` deep.
        """
        return self.rows * self.simd


# ----------------------------------------------------------------------
# Systolic GEMM cycle model
# ----------------------------------------------------------------------
# Follows the reference systolic simulator's compute model:
#
#     cycles = C * (B * M) * ceil(N / rows) * ceil(P / cols)
#              + pipeline fill (rows + cols)
#
# with the reduction folded over ``rows * simd`` lanes (see
# ``SystolicArray.reduction_lanes``) and the P loop executed tile by tile,
# so the ceil() waste is paid per tile — tile-boundary-exact, which the
# hypothesis property tests pin down.  The latency model calls these
# helpers (and the reload helpers below) both when it characterises a node
# at its own tile and when it scores another tile, and the tile simulator
# calls them too, so every tile-dependent term has one definition.


def _tiled_ceil_sum(total: int, tile: int, unit: int) -> int:
    """``sum(ceil(t / unit) for t in tiles-of(total, tile))`` in O(1).

    ``total`` split into ``ceil(total / tile)`` tiles (last one ragged),
    each padded up to a multiple of ``unit``.
    """
    full, rem = divmod(total, tile)
    out = full * math.ceil(tile / unit)
    if rem:
        out += math.ceil(rem / unit)
    return out


def gemm_compute_cycles(dims: GemmDims, array: SystolicArray, tile: TileConfig) -> int:
    """Cycles to execute one (batched) GEMM under a tile schedule.

    Per output-feature tile the array streams ``M`` token rows, reducing
    ``N`` over the ``rows * simd`` lanes and spreading the tile's output
    features over the columns; every tile additionally pays the
    ``rows + cols`` systolic pipeline fill.
    """
    inner = dims.m * math.ceil(dims.n / array.reduction_lanes) * _tiled_ceil_sum(
        dims.p, tile.tm, array.cols
    )
    fill = (array.rows + array.cols) * tile.gemm_row_trips(dims.m) * tile.gemm_output_trips(dims.p)
    return dims.batch * (inner + fill)


def gemm_cycles_lower_bound(dims: GemmDims, array: SystolicArray) -> int:
    """Cycles under the best possible tile schedule (single tile, one fill).

    ``_tiled_ceil_sum(p, tm, cols) >= ceil(p / cols)`` for every ``tm`` and
    the fill term is paid at least once, so this bounds
    :func:`gemm_compute_cycles` from below over all tile configurations —
    the property the DSE roofline pruning relies on.
    """
    inner = dims.m * math.ceil(dims.n / array.reduction_lanes) * math.ceil(dims.p / array.cols)
    return dims.batch * (inner + array.rows + array.cols)


def conv_reload_trips(
    layer: Conv2D,
    out: FeatureMapShape,
    tile: TileConfig,
    element_bytes: int,
    if_resident_cap: int,
    wt_resident_cap: int,
) -> tuple[int, int]:
    """Per-layer schedule selection for a convolution: (input, weight) reloads.

    The default loop order streams the input once per output-channel
    tile and the weights once per spatial tile (Fig. 1's dataflow).
    When the design provides residency buffers and the layer's
    input-channel working set (or full weight tensor slice) fits, the
    per-layer schedule chosen by the DSE keeps it resident and the
    corresponding reload factor drops to one.
    """
    n_tm = tile.output_channel_trips(out.channels)
    n_sp = tile.spatial_trips(out.height, out.width)
    # Input residency: all input channels of one spatial tile (halo
    # included) stay on chip across the output-channel loop.
    if n_tm > 1 and if_resident_cap > 0:
        (sh, sw), (kh, kw) = layer.stride, layer.kernel
        in_h = tile.th * sh + kh - sh
        in_w = tile.tw * sw + kw - sw
        if layer.in_channels * in_h * in_w * element_bytes <= if_resident_cap:
            n_tm = 1
    # Weight residency: one output-channel tile's weights over all input
    # channels stay on chip across the spatial loop.
    if n_sp > 1 and wt_resident_cap > 0:
        kh, kw = layer.kernel
        if tile.tm * layer.in_channels * kh * kw * element_bytes <= wt_resident_cap:
            n_sp = 1
    return n_tm, n_sp


def gemm_reload_trips(
    dims: GemmDims,
    tile: TileConfig,
    element_bytes: int,
    if_resident_cap: int,
    wt_resident_cap: int,
) -> tuple[int, int]:
    """Per-layer schedule selection for a GEMM: (input, weight) reloads.

    The mirror image of the conv reload model: with output features
    outermost the activation matrix streams once per output-feature tile
    (``ceil(P / tm)``) and the weight matrix once per token-row tile
    (``ceil(M / (th * tw))``).  When a residency buffer fits the
    corresponding working set — one row tile of activations over the full
    reduction depth, or one output-feature tile of weights — the reload
    factor drops to one.
    """
    n_if = tile.gemm_output_trips(dims.p)
    n_wt = tile.gemm_row_trips(dims.m)
    if n_if > 1 and if_resident_cap > 0:
        if_working_set = dims.n * tile.gemm_rows * element_bytes
        if if_working_set <= if_resident_cap:
            n_if = 1
    if n_wt > 1 and wt_resident_cap > 0:
        wt_working_set = tile.tm * dims.n * element_bytes
        if wt_working_set <= wt_resident_cap:
            n_wt = 1
    return n_if, n_wt


@dataclass(frozen=True)
class AcceleratorConfig:
    """One accelerator design point: fabric + clock + tiling + memory system.

    This is what the external DSE of [18] would emit and what LCMM consumes
    (the "tensor vectors" input of Fig. 4 in the paper).

    Attributes:
        name: Design label for reports (``"umm-int8"``...).
        precision: Arithmetic precision.
        array: Systolic array shape.
        tile: Loop tiling of the convolution nest.
        frequency: Achieved clock in Hz (LCMM designs close timing slightly
            lower than UMM ones, Tab. 1: 190 vs 180 MHz).
        device: Target FPGA.
        ddr: Off-chip memory system; defaults to the paper's three-way
            bandwidth split on the device.
        ddr_efficiency: Fraction of theoretical interface bandwidth
            sustained in practice (DDR4 burst/refresh overheads).
        if_resident_cap: Input-residency buffer capacity in bytes.  When a
            layer's full input-channel working set for one spatial tile
            fits, the per-layer schedule keeps it resident and streams the
            input from DDR only once instead of once per output-channel
            tile (loop-order selection of the DSE in [18]).  Zero disables
            the option.
        wt_resident_cap: Weight-residency buffer capacity in bytes; the
            analogous option that loads a layer's weights once instead of
            once per spatial tile.  Zero disables.
    """

    name: str
    precision: Precision
    array: SystolicArray
    tile: TileConfig
    frequency: float
    device: FPGADevice = VU9P
    ddr: DDRSystem | None = None
    ddr_efficiency: float = 1.0
    if_resident_cap: int = 0
    wt_resident_cap: int = 0

    def __post_init__(self) -> None:
        if self.frequency <= 0:
            raise ValueError("frequency must be positive")
        if not 0.0 < self.ddr_efficiency <= 1.0:
            raise ValueError("ddr_efficiency must be in (0, 1]")
        if self.array.dsp_slices(self.precision) > self.device.dsp_slices:
            raise ValueError(
                f"array {self.array} needs {self.array.dsp_slices(self.precision)} DSPs, "
                f"device {self.device.name} has {self.device.dsp_slices}"
            )
        if self.ddr is None:
            object.__setattr__(self, "ddr", make_vu9p_ddr(self.device))

    @property
    def peak_ops(self) -> float:
        """Peak throughput in ops/second (one MAC = two ops)."""
        return 2.0 * self.array.macs * self.frequency

    @property
    def dsp_utilization(self) -> float:
        """Fraction of device DSP slices the array consumes."""
        return self.array.dsp_slices(self.precision) / self.device.dsp_slices

    def interface_bandwidth(self, kind: str) -> float:
        """Sustained bandwidth of one memory interface in bytes/second."""
        assert self.ddr is not None
        return self.ddr.interface(kind).bandwidth * self.ddr_efficiency

    def tile_buffer_bytes(self) -> int:
        """On-chip footprint of the double-buffered tile buffers.

        Includes the residency buffers when enabled — they belong to the
        baseline design's SRAM bill, not to LCMM's tensor budget.
        """
        base = self.tile.tile_buffer_bytes(self.precision.bytes)
        return base + 2 * (self.if_resident_cap + self.wt_resident_cap)


#: Array shapes used by the reference experiments, chosen so the DSP
#: utilisation matches Tab. 1 (83% for RN/GN, 75% for IN) and channel
#: counts of the benchmark models divide evenly.
_DEFAULT_ARRAYS = {
    "int8": SystolicArray(rows=32, cols=16, simd=11),   # 5632 MACs, 5632 DSPs
    "int16": SystolicArray(rows=32, cols=16, simd=11),  # 5632 MACs, 5632 DSPs
    "fp32": SystolicArray(rows=16, cols=8, simd=8),     # 1024 MACs, 5120 DSPs
}

#: Default tile configurations per precision.  The output-channel tile is
#: tied to the array rows; the fp32 array is smaller, so its tiles are too
#: (which is why the paper's 32-bit baselines stay memory bound despite the
#: lower compute throughput).
_DEFAULT_TILES = {
    "int8": TileConfig(tm=32, tn=32, th=14, tw=14),
    "int16": TileConfig(tm=32, tn=32, th=14, tw=14),
    "fp32": TileConfig(tm=16, tn=16, th=7, tw=7),
}


def default_accelerator(
    precision: Precision = INT8,
    frequency: float = 190e6,
    name: str | None = None,
    tile: TileConfig | None = None,
    ddr_efficiency: float = 1.0,
    device: FPGADevice = VU9P,
    if_resident_cap: int = 0,
    wt_resident_cap: int = 0,
) -> AcceleratorConfig:
    """A reasonable design point at a precision, before DSE refinement."""
    array = _DEFAULT_ARRAYS.get(precision.name)
    if array is None:
        raise KeyError(f"no default array for precision {precision.name!r}")
    return AcceleratorConfig(
        name=name or f"default-{precision.name}",
        precision=precision,
        array=array,
        tile=tile or _DEFAULT_TILES[precision.name],
        frequency=frequency,
        device=device,
        ddr_efficiency=ddr_efficiency,
        if_resident_cap=if_resident_cap,
        wt_resident_cap=wt_resident_cap,
    )
