"""Data precisions and their arithmetic cost on Xilinx DSP slices.

The paper evaluates three data types: 8-bit fixed point, 16-bit fixed point
and 32-bit floating point (Sec. 4).  Two properties of a precision drive the
results:

* **bytes per element** — scales every tensor size and therefore every
  off-chip transfer latency and every on-chip buffer footprint;
* **DSP slices per multiply-accumulate** — a fixed-point MAC costs one DSP
  slice while a single-precision floating point MAC costs five (Sec. 4.1),
  which shrinks the compute array and, with it, the bandwidth *requirement*
  of every layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PrecisionNotFoundError


@dataclass(frozen=True)
class Precision:
    """An arithmetic precision used by an accelerator design.

    Attributes:
        name: Human-readable identifier (``"int8"``, ``"fp32"``...).
        bits: Width of one element in bits.
        dsps_per_mac: DSP slices consumed by one multiply-accumulate unit.
        is_floating_point: True for IEEE floating point types.
    """

    name: str
    bits: int
    dsps_per_mac: int
    is_floating_point: bool = False

    def __post_init__(self) -> None:
        if self.bits <= 0 or self.bits % 8 != 0:
            raise ValueError(f"bits must be a positive multiple of 8, got {self.bits}")
        if self.dsps_per_mac <= 0:
            raise ValueError(f"dsps_per_mac must be positive, got {self.dsps_per_mac}")

    @property
    def bytes(self) -> int:
        """Size of one element in bytes."""
        return self.bits // 8

    def __str__(self) -> str:
        return self.name


#: 8-bit fixed point: 1 DSP slice per MAC.
INT8 = Precision(name="int8", bits=8, dsps_per_mac=1)

#: 16-bit fixed point: 1 DSP slice per MAC.
INT16 = Precision(name="int16", bits=16, dsps_per_mac=1)

#: 32-bit floating point: 5 DSP slices per MAC on Xilinx FPGAs (Sec. 4.1).
FP32 = Precision(name="fp32", bits=32, dsps_per_mac=5, is_floating_point=True)

#: The precisions swept in the paper's evaluation, in presentation order.
ALL_PRECISIONS = (INT8, INT16, FP32)

_BY_NAME = {p.name: p for p in ALL_PRECISIONS}
_ALIASES = {
    "8": INT8,
    "8-bit": INT8,
    "16": INT16,
    "16-bit": INT16,
    "32": FP32,
    "32-bit": FP32,
    "float32": FP32,
    "float": FP32,
}


def precision_by_name(name: str) -> Precision:
    """Look up a precision by name or common alias.

    Args:
        name: ``"int8"``, ``"int16"``, ``"fp32"`` or an alias such as
            ``"8-bit"`` / ``"32"``.

    Raises:
        repro.errors.PrecisionNotFoundError: If the name matches no known
            precision (remains catchable as ``KeyError``).
    """
    key = name.strip().lower()
    if key in _BY_NAME:
        return _BY_NAME[key]
    if key in _ALIASES:
        return _ALIASES[key]
    raise PrecisionNotFoundError(
        f"unknown precision {name!r}; known: {sorted(_BY_NAME)}"
    )
