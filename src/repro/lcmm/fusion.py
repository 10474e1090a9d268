"""Fused-layer tiling: elide DRAM round-trips between adjacent layers.

LCMM's allocation passes decide *where* whole tensors live; this module
adds the orthogonal LoopTree-style lever — merging the tile loops of a
producer/consumer pair so the intermediate feature map streams from the
producer's output tile buffer straight into the consumer's input tile
buffer and never crosses the DDR boundary at all.

A fusion edge is **legal** when

1. the consumer is the very next executed node after the producer (the
   merged loop nest runs both bodies per tile, so the pair must be
   adjacent in the sequential schedule),
2. the consumer streams the producer's tensor exactly once (reload
   factor 1): with an output-channel reload factor above one the
   consumer re-reads tiles the merged nest has already overwritten, and
3. one tile-slice of the intermediate — sized by the *consumer's*
   datapath template — fits the provisioned (double-buffered) input
   tile buffer, so fusion consumes **zero additional SRAM**: it borrows
   the ping-pong input buffer the design already pays for.

**Shortcut handling** (ShortcutFusion-style, reuse-aware): residual /
dense shortcut tensors are read again by a *later* non-adjacent node
(the eltwise add, a dense concat).  Fusing the adjacent edge of such a
tensor elides only the adjacent consumer's *read*; the producer still
writes the tensor out (or the allocator pins it on-chip — the two
compose) so the delayed shortcut reads stay serviceable.  Only a
single-consumer intermediate elides the write as well.

The pass wrapping this module (:class:`~repro.lcmm.passes.standard.
FuseLayersPass`) applies the candidate set speculatively and keeps it
only when the Eq.-1 objective improves, so fusion is monotone by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.ir.layer import Attention, ComputeKind, Conv2D, DepthwiseConv2D, Gemm
from repro.ir.tensor import feature_tensor_name
from repro.perf.latency import LatencyModel

__all__ = [
    "FusedEdge",
    "apply_fusion",
    "find_fusion_candidates",
    "fusion_slice_bytes",
]


@dataclass(frozen=True)
class FusedEdge:
    """One legal producer/consumer fusion.

    Attributes:
        producer: Node whose output tensor is fused through on-chip.
        consumer: Adjacent node whose read of that tensor is elided.
        tensor: The intermediate feature tensor (``f:<producer>``).
        slice_bytes: On-chip footprint of one fused tile slice.
        bytes_saved: DDR bytes the edge removes from the timeline.
        shortcut: The tensor has later (non-adjacent) readers, so the
            producer's DRAM write is kept for them — only the adjacent
            read is elided.
    """

    producer: str
    consumer: str
    tensor: str
    slice_bytes: int
    bytes_saved: int
    shortcut: bool


def fusion_slice_bytes(model: LatencyModel, consumer: str) -> int:
    """On-chip bytes of one fused intermediate tile slice at a consumer.

    Sized by the consumer's datapath template: a convolution needs its
    full input-channel depth over one spatial tile *with halo*; a
    systolic GEMM needs one token-row tile of the sequence; the
    pointwise templates (pool / eltwise / norm / conv-datapath FC)
    stream one output-shaped tile.
    """
    graph, accel = model.graph, model.accel
    tile, elem = accel.tile, accel.precision.bytes
    layer = graph.layer(consumer)
    kind = layer.compute_kind

    if kind in (ComputeKind.CONV, ComputeKind.DEPTHWISE):
        assert isinstance(layer, (Conv2D, DepthwiseConv2D))
        in_h = tile.th * layer.stride[0] + layer.kernel[0] - layer.stride[0]
        in_w = tile.tw * layer.stride[1] + layer.kernel[1] - layer.stride[1]
        (in_shape, *_rest) = graph.input_shapes(consumer)
        return in_shape.channels * in_h * in_w * elem

    if kind is ComputeKind.ATTENTION or (
        kind is ComputeKind.GEMM and not layer.conv_datapath  # type: ignore[union-attr]
    ):
        assert isinstance(layer, (Gemm, Attention))
        dims = layer.gemm_dims()
        m = (dims[0] if isinstance(dims, (list, tuple)) else dims).m
        (in_shape, *_rest) = graph.input_shapes(consumer)
        total = in_shape.volume * elem
        return math.ceil(total / tile.gemm_row_trips(m))

    # Pointwise streaming templates: pool, eltwise, norm, FC head.
    return tile.ofmap_tile_elems() * elem


def _tile_slice_capacity(model: LatencyModel) -> int:
    """Bytes of the provisioned double-buffered input tile buffer."""
    tile, elem = model.accel.tile, model.accel.precision.bytes
    return 2 * tile.ifmap_tile_elems((3, 3), (1, 1)) * elem


def find_fusion_candidates(model: LatencyModel) -> list[FusedEdge]:
    """Enumerate every legal fusion edge of a characterised model.

    Walks consecutive pairs of the sequential schedule and applies the
    legality rules in the module docstring.  Chains compose: each edge
    touches only its own (read, write) slots, so ``conv - conv - pool``
    fusing pairwise streams the whole chain through on-chip.
    """
    graph = model.graph
    elem = model.accel.precision.bytes
    capacity = _tile_slice_capacity(model)
    table = model.node_table
    schedule = table.names
    kinds, tids, byte_counts = table.kinds, table.tids, table.bytes

    # Reader count per feature tensor across the whole schedule — a
    # tensor with more than one reader is a shortcut (residual add,
    # dense concat fan-out) and keeps its DRAM write.
    readers = [0] * len(table.tensor_names)
    for node_kinds, node_tids in zip(kinds, tids):
        for kind, tid in zip(node_kinds, node_tids):
            if kind == 0:
                readers[tid] += 1

    edges: list[FusedEdge] = []
    for producer_ni, (producer, consumer) in enumerate(zip(schedule, schedule[1:])):
        tensor = feature_tensor_name(producer)
        tid = table.tensor_index.get(tensor)
        consumer_ni = producer_ni + 1
        read = next(
            (
                num_bytes
                for kind, slot_tid, num_bytes in zip(
                    kinds[consumer_ni], tids[consumer_ni], byte_counts[consumer_ni]
                )
                if kind == 0 and slot_tid == tid
            ),
            0,
        )
        if read == 0:
            continue  # not a direct edge (or already elided)
        expected = graph.output_shape(producer).volume * elem
        if read != expected:
            continue  # consumer re-streams the intermediate (reload > 1)
        slice_bytes = fusion_slice_bytes(model, consumer)
        if slice_bytes > capacity:
            continue  # fused slice overflows the borrowed tile buffer
        shortcut = readers[tid] > 1
        saved = read
        if not shortcut:
            saved += sum(
                num_bytes
                for kind, slot_tid, num_bytes in zip(
                    kinds[producer_ni], tids[producer_ni], byte_counts[producer_ni]
                )
                if kind == 2 and slot_tid == tid
            )
        edges.append(
            FusedEdge(
                producer=producer,
                consumer=consumer,
                tensor=tensor,
                slice_bytes=slice_bytes,
                bytes_saved=saved,
                shortcut=shortcut,
            )
        )
    return edges


def apply_fusion(
    model: LatencyModel, edges: list[FusedEdge] | tuple[FusedEdge, ...]
) -> LatencyModel:
    """Derive the fused latency model: fused slots stop paying DDR.

    Each edge zeroes the consumer's read slot of the fused tensor and,
    for non-shortcut edges, the producer's write slot.  Slots are kept
    in place (zero bytes, zero latency), so the fused model's node
    table shares the source's layout and untouched rows
    (:meth:`~repro.perf.node_table.NodeTable.zeroed`), and downstream
    consumers — the allocation engine, the tile simulator, the transfer
    scheduler — see the same slot structure with the fused streams
    removed.
    """
    table = model.node_table
    index, tensor_index = table.index, table.tensor_index
    zero: dict[int, set[int]] = {}

    def zero_slots(node: str, tensor: str, kind: int) -> None:
        ni, tid = index[node], tensor_index.get(tensor)
        for position, (slot_kind, slot_tid) in enumerate(zip(table.kinds[ni], table.tids[ni])):
            if slot_kind == kind and slot_tid == tid:
                zero.setdefault(ni, set()).add(position)

    for edge in edges:
        zero_slots(edge.consumer, edge.tensor, 0)
        if not edge.shortcut:
            zero_slots(edge.producer, edge.tensor, 2)
    return LatencyModel.with_table(model.graph, model.accel, table.zeroed(zero))
