"""Buffer abstractions: candidate tensors, virtual buffers, physical buffers.

The framework's pipeline (Fig. 4 of the paper) moves tensors through three
states:

1. a **candidate tensor** — a feature or weight value of a memory-bound
   layer, with a size, a live range and a latency-reduction metric;
2. a **virtual buffer** — a group of candidates with pairwise-disjoint
   lifespans that the colouring passes decided may share storage; its size
   is the largest member's size;
3. a **physical buffer** — a virtual buffer that DNNK allocated on-chip
   memory; the rest are *spilled* to DDR.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.lcmm.liveness import LiveRange


class TensorClass(str, enum.Enum):
    """Whether a candidate carries feature-map data or weights."""

    FEATURE = "feature"
    WEIGHT = "weight"


@dataclass(frozen=True)
class CandidateTensor:
    """One tensor the allocator may pin on chip.

    Immutable: the colourings and allocator outcomes that hold it are
    shared by every compile of a design.

    Attributes:
        name: Tensor value name (``f:<producer>`` or ``w:<node>``).
        tensor_class: Feature or weight.
        size_bytes: Full tensor footprint at the design precision.
        live_range: Schedule span during which the tensor occupies its
            buffer (production-to-last-use for features, prefetch-start to
            consumer for weights).
        affected_nodes: Nodes whose latency changes when this tensor moves
            on-chip (producer + consumers for features, the single consumer
            for weights).
        latency_reduction: The tensor metric ``L`` of Eq. 2 — seconds saved
            when only this tensor moves on-chip, everything else off-chip.
    """

    name: str
    tensor_class: TensorClass
    size_bytes: int
    live_range: LiveRange
    affected_nodes: tuple[str, ...]
    latency_reduction: float = 0.0

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"tensor {self.name!r} has non-positive size")


@dataclass(frozen=True)
class VirtualBuffer:
    """A group of lifetime-disjoint tensors sharing one storage slot.

    Immutable, like :class:`CandidateTensor`: ``tensors`` is stored as a
    tuple whatever sequence it is given as.

    Attributes:
        index: Position in the allocator's buffer list (``vbuf<k>``).
        tensors: Member candidate tensors.
    """

    index: int
    tensors: tuple[CandidateTensor, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tensors", tuple(self.tensors))
        if not self.tensors:
            raise ValueError("virtual buffer must contain at least one tensor")

    @property
    def name(self) -> str:
        """Display name, matching the paper's ``vbuf1..n`` convention."""
        return f"vbuf{self.index + 1}"

    @property
    def size_bytes(self) -> int:
        """Buffer size: the largest member tensor (Sec. 3.1)."""
        return max(t.size_bytes for t in self.tensors)

    @property
    def total_latency_reduction(self) -> float:
        """Sum of member latency reductions (DNNK line 4)."""
        return sum(t.latency_reduction for t in self.tensors)

    @property
    def tensor_names(self) -> list[str]:
        """Names of the member tensors."""
        return [t.name for t in self.tensors]

    @property
    def span(self) -> LiveRange:
        """Hull of the member live ranges (virtual buffer table columns)."""
        start = min(t.live_range.start for t in self.tensors)
        end = max(t.live_range.end for t in self.tensors)
        return LiveRange(start, end)


@dataclass
class PhysicalBuffer:
    """An on-chip buffer produced by DNNK.

    Attributes:
        index: Position in the physical buffer list (``pbuf<k>``).
        virtual: The virtual buffer it realises.
        uram_blocks: URAM blocks consumed.
        bram36_blocks: BRAM36 blocks consumed.
    """

    index: int
    virtual: VirtualBuffer
    uram_blocks: int = 0
    bram36_blocks: int = 0

    @property
    def name(self) -> str:
        """Display name, matching the paper's ``pbuf1..n`` convention."""
        return f"pbuf{self.index + 1}"

    @property
    def size_bytes(self) -> int:
        """Payload capacity of the buffer."""
        return self.virtual.size_bytes

    @property
    def tensor_names(self) -> list[str]:
        """Tensor values resident in this buffer (time-multiplexed)."""
        return self.virtual.tensor_names
