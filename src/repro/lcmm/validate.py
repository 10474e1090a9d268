"""Allocation invariant checks — the post-condition of every compile.

Every LCMM result must satisfy a set of structural invariants regardless
of model, precision or option flags.  :func:`repro.lcmm.framework.run_lcmm`
calls :func:`validate_result` on every pipeline attempt before it returns
or caches the result, so a violation degrades the compile like a failing
pass; downstream users can call it on their own results too.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

# Back-compat alias: AllocationError historically lived (and is still
# importable) here, but it now derives from the unified taxonomy in
# repro.errors instead of AssertionError — broad ``except AssertionError``
# handlers can no longer swallow a real invariant violation.
from repro.errors import AllocationError
from repro.ir.tensor import TensorKind
from repro.lcmm.coloring import validate_coloring
from repro.lcmm.passes.standard import fused_model
from repro.perf.latency import LatencyModel
from repro.sim import demand_bytes

if TYPE_CHECKING:
    from repro.lcmm.framework import LCMMResult

__all__ = ["AllocationError", "validate_result", "validate_buffers"]


def validate_result(result: "LCMMResult", model: LatencyModel) -> None:
    """Check all invariants of an LCMM allocation.

    ``model`` is the design's model before fusion; a fused result is
    checked against the fused model derived from it where the fused
    transfers matter (the fused reads and the transfer timeline).

    Invariants:

    1. The allocator stayed within its capacity, and every buffer it
       allocated is placed.
    2. Every on-chip tensor belongs to exactly one placed buffer, and
       buffers hold only pairwise lifetime-compatible tensors.
    3. The placed buffers fit the device SRAM next to the tile buffers
       (block-granular).
    4. No node got slower: per-node latency under the allocation is at
       most its UMM latency plus any prefetch residual it owes.
    5. The end-to-end latency never exceeds UMM's, and is bounded below
       by the compute-bound latency.
    6. Prefetch residuals only attach to on-chip weight tensors;
       fractions lie in (0, 1] and only for spilled tensors.
    7. Each fused edge's read is zeroed in the fused model.
    8. A transfer timeline moves exactly the bytes the allocation
       demands, never overlaps two transfers on one channel and never
       ends later than its bulk-synchronous baseline.

    Raises:
        AllocationError: On the first violated invariant.
    """
    # (1) allocator capacity and placement.
    allocation = result.dnnk_result
    if allocation.used_bytes > allocation.capacity_bytes:
        raise AllocationError(
            f"allocator used {allocation.used_bytes} of "
            f"{allocation.capacity_bytes} capacity bytes"
        )
    placed = tuple(pbuf.virtual for pbuf in result.physical_buffers)
    if placed != allocation.allocated:
        raise AllocationError("placement did not place every allocated buffer")

    # (2) membership and lifetime compatibility: sorted by start, a
    # tensor overlaps an earlier one exactly when it starts no later
    # than the furthest end seen so far (closed intervals).
    seen: set[str] = set()
    for pbuf in result.physical_buffers:
        reach = None
        for tensor in sorted(pbuf.virtual.tensors, key=lambda t: t.live_range.start):
            if tensor.name in seen:
                raise AllocationError(f"tensor {tensor.name!r} in two physical buffers")
            seen.add(tensor.name)
            if reach is not None and tensor.live_range.start <= reach.live_range.end:
                # A false edge would have separated them; overlapping
                # live ranges sharing a buffer is always a bug.
                raise AllocationError(
                    f"live tensors {reach.name!r} and {tensor.name!r} share {pbuf.name}"
                )
            if reach is None or tensor.live_range.end > reach.live_range.end:
                reach = tensor
    if seen != result.onchip_tensors:
        raise AllocationError(
            "on-chip tensor set does not match physical buffer contents"
        )

    # (3) capacity.
    usage = result.sram_usage
    if usage.uram_used > usage.budget.uram_blocks:
        raise AllocationError("URAM over-committed")
    if usage.bram36_used > usage.budget.bram36_blocks:
        raise AllocationError("BRAM over-committed")

    # (4) per-node monotonicity against the UMM decomposition of the
    # model's node table.
    table = model.node_table
    node_latencies = result.node_latencies
    for node, before in zip(table.names, table.umm):
        after = node_latencies.get(node)
        if after is None:
            raise AllocationError(f"node {node!r} has no latency under LCMM")
        if after > before + 1e-12:
            raise AllocationError(
                f"node {node!r} slower under LCMM: {after} > {before}"
            )

    # (5) end-to-end bounds.
    umm_latency = sum(table.umm)
    if result.latency > umm_latency + 1e-12:
        raise AllocationError(
            f"LCMM latency {result.latency} exceeds UMM latency {umm_latency}"
        )
    floor = sum(table.compute)
    if result.latency < floor - 1e-12:
        raise AllocationError(
            f"LCMM latency {result.latency} below compute bound {floor}"
        )

    # (6) residual and fraction sanity.
    for tensor, residual in result.residuals.items():
        if tensor not in result.onchip_tensors:
            raise AllocationError(f"residual on off-chip tensor {tensor!r}")
        if residual < 0:
            raise AllocationError(f"negative residual on {tensor!r}")
    for tensor, fraction in result.fractions.items():
        if not 0.0 < fraction <= 1.0:
            raise AllocationError(f"fraction {fraction} for {tensor!r} outside (0, 1]")
        if tensor in result.onchip_tensors:
            raise AllocationError(
                f"fraction pinned for already-resident tensor {tensor!r}"
            )

    # (7) fused reads.
    record = model
    if result.fused_edges:
        record = model.derived(fused_model)
        for edge in result.fused_edges:
            try:
                slots = record.layer(edge.consumer).slots
            except KeyError:
                raise AllocationError(
                    f"fused edge names unknown consumer {edge.consumer!r}"
                ) from None
            for slot in slots:
                if (
                    slot.kind is TensorKind.IFMAP
                    and slot.tensor == edge.tensor
                    and slot.bytes != 0
                ):
                    raise AllocationError(
                        f"fused edge {edge.producer!r} -> {edge.consumer!r} "
                        "still streams its read"
                    )

    # (8) the transfer timeline, on the model of record.
    timeline = result.transfer_timeline
    if timeline is not None:
        if timeline.makespan > timeline.baseline + 1e-12:
            raise AllocationError(
                f"scheduled makespan {timeline.makespan} exceeds the "
                f"bulk-synchronous baseline {timeline.baseline}"
            )
        expected = demand_bytes(
            record, result.onchip_tensors, result.residuals, result.fractions
        )
        if timeline.total_bytes != expected:
            raise AllocationError(
                f"scheduled timeline moves {timeline.total_bytes} bytes, "
                f"allocation demands {expected}"
            )
        for kind in (TensorKind.IFMAP, TensorKind.WEIGHT, TensorKind.OFMAP):
            records = timeline.channel_records(kind)
            for a, b in zip(records, records[1:]):
                if b.start < a.end - 1e-15:
                    raise AllocationError(
                        f"overlapping transfers on the {kind.value} channel"
                    )


def validate_buffers(result: "LCMMResult") -> None:
    """Re-check the colourings embedded in a result.

    Raises:
        AllocationError: If either interference graph's colouring is
            inconsistent with its buffers.
    """
    try:
        if result.feature_result.candidates:
            validate_coloring(
                result.feature_result.interference, result.feature_result.buffers
            )
        if result.prefetch_result.candidates:
            validate_coloring(
                result.prefetch_result.interference, result.prefetch_result.buffers
            )
    except ValueError as exc:
        raise AllocationError(str(exc)) from exc
