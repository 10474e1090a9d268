"""Allocation invariant checks.

A safety net over the whole pipeline: every LCMM result must satisfy a set
of structural invariants regardless of model, precision or option flags.
Tests call :func:`validate_result` on every configuration they run, and
downstream users can call it on their own graphs before trusting a
schedule.
"""

from __future__ import annotations

# Back-compat alias: AllocationError historically lived (and is still
# importable) here, but it now derives from the unified taxonomy in
# repro.errors instead of AssertionError — broad ``except AssertionError``
# handlers can no longer swallow a real invariant violation.
from repro.errors import AllocationError
from repro.lcmm.coloring import validate_coloring
from repro.lcmm.framework import LCMMResult
from repro.perf.latency import LatencyModel

__all__ = ["AllocationError", "validate_result", "validate_buffers"]


def validate_result(result: LCMMResult, model: LatencyModel) -> None:
    """Check all invariants of an LCMM allocation.

    Invariants:

    1. Every on-chip tensor belongs to exactly one allocated buffer, and
       buffers hold only pairwise lifetime-compatible tensors.
    2. The allocated buffer bytes fit the device SRAM next to the tile
       buffers (block-granular).
    3. No node got slower: per-node latency under the allocation is at
       most its UMM latency plus any prefetch residual it owes.
    4. The end-to-end latency never exceeds UMM's, and is bounded below
       by the compute-bound latency.
    5. Prefetch residuals only attach to on-chip weight tensors.

    Raises:
        AllocationError: On the first violated invariant.
    """
    # (1) membership and lifetime compatibility.
    seen: set[str] = set()
    for pbuf in result.physical_buffers:
        tensors = pbuf.virtual.tensors
        for i, a in enumerate(tensors):
            if a.name in seen:
                raise AllocationError(f"tensor {a.name!r} in two physical buffers")
            seen.add(a.name)
            for b in tensors[i + 1 :]:
                if a.live_range.overlaps(b.live_range):
                    # A false edge would have separated them; overlapping
                    # live ranges sharing a buffer is always a bug.
                    raise AllocationError(
                        f"live tensors {a.name!r} and {b.name!r} share {pbuf.name}"
                    )
    if seen != set(result.onchip_tensors):
        raise AllocationError(
            "on-chip tensor set does not match physical buffer contents"
        )

    # (2) capacity.
    usage = result.sram_usage
    if usage.uram_used > usage.budget.uram_blocks:
        raise AllocationError("URAM over-committed")
    if usage.bram36_used > usage.budget.bram36_blocks:
        raise AllocationError("BRAM over-committed")

    # (3) per-node monotonicity.
    for node in model.nodes():
        before = model.node_latency(node)
        after = result.node_latencies[node]
        if after > before + 1e-12:
            raise AllocationError(
                f"node {node!r} slower under LCMM: {after} > {before}"
            )

    # (4) end-to-end bounds.
    umm_latency = model.umm_latency()
    if result.latency > umm_latency + 1e-12:
        raise AllocationError(
            f"LCMM latency {result.latency} exceeds UMM latency {umm_latency}"
        )
    floor = model.compute_bound_latency()
    if result.latency < floor - 1e-12:
        raise AllocationError(
            f"LCMM latency {result.latency} below compute bound {floor}"
        )

    # (5) residual sanity.
    for tensor, residual in result.residuals.items():
        if tensor not in result.onchip_tensors:
            raise AllocationError(f"residual on off-chip tensor {tensor!r}")
        if residual < 0:
            raise AllocationError(f"negative residual on {tensor!r}")


def validate_buffers(result: LCMMResult) -> None:
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
