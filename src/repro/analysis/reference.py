"""Reference design points of the paper's benchmark matrix.

The paper evaluates nine design points — {ResNet-152, GoogLeNet,
Inception-v4} x {8, 16, 32 bit} — each an independently synthesized
accelerator pair (UMM baseline and LCMM design).  This module pins the
reproduction's reference configuration:

* arrays sized to the paper's DSP utilisation (83 % for RN/GN, 75 % for
  IN, Tab. 1), with the fp32 array one fifth the MACs (5 DSP/MAC);
* clocks straight from Tab. 1 (UMM 190 MHz vs LCMM 180 MHz fixed point;
  170/160 MHz floating point) — LCMM's extra buffering closes timing
  slightly lower;
* tile shapes tied to the array geometry, with per-layer input/weight
  residency capped at 64 KB / 128 KB (the loop-order freedom [18]'s DSE
  has) and 80 % sustained DDR efficiency.

The residency caps and DDR efficiency were calibrated once against the
published Tab. 1 numbers and are never tuned per experiment; see
EXPERIMENTS.md for the paper-vs-measured deltas this yields.

It imports no compiler pass, so the CLI parser and a warm cache read
can name designs without loading the compiler.
"""

from __future__ import annotations

from repro.hw.precision import FP32, INT8, INT16, Precision
from repro.perf.systolic import AcceleratorConfig, SystolicArray
from repro.perf.tiling import TileConfig

#: The paper's benchmark suite (Sec. 4): ResNet-152, GoogLeNet, Inception-v4.
BENCHMARKS = ("resnet152", "googlenet", "inception_v4")

#: The evaluated precisions, in Tab. 1 order.
PRECISIONS = (INT8, INT16, FP32)

#: Sustained fraction of theoretical DDR4 bandwidth (calibrated).
REFERENCE_DDR_EFFICIENCY = 0.8

#: Per-layer input-residency buffer (see AcceleratorConfig), calibrated.
REFERENCE_IF_RESIDENT_CAP = 64 * 1024

#: Per-layer weight-residency buffer, calibrated.
REFERENCE_WT_RESIDENT_CAP = 128 * 1024

#: Clock frequencies from Tab. 1, Hz: (UMM, LCMM) per precision name.
REFERENCE_FREQUENCIES = {
    "int8": (190e6, 180e6),
    "int16": (190e6, 180e6),
    "fp32": (170e6, 160e6),
}

#: Fixed-point arrays: 5632 MACs = 83 % of the VU9P's 6840 DSPs for RN/GN,
#: 5120 MACs = 75 % for IN (Tab. 1 reports 75 % DSP for Inception-v4).
_FIXED_ARRAYS = {
    "resnet152": SystolicArray(rows=32, cols=16, simd=11),
    "googlenet": SystolicArray(rows=32, cols=16, simd=11),
    "inception_v4": SystolicArray(rows=32, cols=16, simd=10),
}

#: Floating-point array: 1024 MACs x 5 DSP/MAC = 5120 DSPs (75 %).
_FP32_ARRAY = SystolicArray(rows=16, cols=8, simd=8)

#: Tile shapes tied to the array geometry per precision.
_TILES = {
    "int8": TileConfig(tm=32, tn=32, th=14, tw=14),
    "int16": TileConfig(tm=32, tn=32, th=14, tw=14),
    "fp32": TileConfig(tm=16, tn=16, th=7, tw=7),
}


def reference_design(
    model_name: str, precision: Precision, style: str
) -> AcceleratorConfig:
    """The calibrated design point for one (model, precision, style).

    Args:
        model_name: One of :data:`BENCHMARKS` (aliases accepted elsewhere;
            here the canonical name is required).
        precision: int8 / int16 / fp32.
        style: ``"umm"`` or ``"lcmm"`` — selects the achieved clock.

    Raises:
        KeyError: On unknown model or precision.
        ValueError: On unknown style.
    """
    if style not in ("umm", "lcmm"):
        raise ValueError(f"style must be 'umm' or 'lcmm', got {style!r}")
    if model_name not in _FIXED_ARRAYS:
        raise KeyError(f"unknown benchmark {model_name!r}; known: {BENCHMARKS}")
    freq_umm, freq_lcmm = REFERENCE_FREQUENCIES[precision.name]
    array = _FP32_ARRAY if precision is FP32 else _FIXED_ARRAYS[model_name]
    return AcceleratorConfig(
        name=f"{style}-{model_name}-{precision.name}",
        precision=precision,
        array=array,
        tile=_TILES[precision.name],
        frequency=freq_umm if style == "umm" else freq_lcmm,
        ddr_efficiency=REFERENCE_DDR_EFFICIENCY,
        if_resident_cap=REFERENCE_IF_RESIDENT_CAP,
        wt_resident_cap=REFERENCE_WT_RESIDENT_CAP,
    )


def model_reference_design(
    model_name: str, precision: Precision, style: str
) -> AcceleratorConfig:
    """The reference design a zoo model compiles on.

    The name is canonicalised first, so an alias (``gn``, ``RN``) gets
    the same design as its model; models outside :data:`BENCHMARKS`
    (the rest of the CNN zoo and the transformers) use resnet152's.

    Raises:
        repro.errors.ModelNotFoundError: If the name matches no
            registered model.
    """
    from repro.models.zoo import canonical_model_name

    name = canonical_model_name(model_name)
    return reference_design(
        name if name in BENCHMARKS else "resnet152", precision, style
    )
