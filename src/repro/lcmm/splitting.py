"""Buffer splitting (Sec. 3.4 of the paper).

Colouring is greedy about sharing: a small tensor with a large latency
reduction can land in the same virtual buffer as a huge tensor, and when
DNNK spills that buffer the small tensor is dragged off-chip with it —
*misspilling*.  The fix is to insert a **false lifespan-overlap edge**
between two buffer-mates so the colouring is forced to separate them, then
re-colour and re-run DNNK.  Each iteration targets the largest spilled
multi-tensor buffer and splits its size-defining tensor away from the
buffer-mate with the most latency to recover; the iteration is kept only
if the exact end-to-end latency improves.

The false edges go into copies of the interference graphs, which the
outcome carries: the feature-reuse and weight-prefetch results the
graphs came from stay as published, so every compile of one design can
share them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from repro.hw.sram import URAM_BYTES
from repro.lcmm.buffers import VirtualBuffer
from repro.lcmm.coloring import color_buffers
from repro.lcmm.dnnk import DNNKResult, dnnk_allocate, memoised_allocation
from repro.lcmm.interference import InterferenceGraph
from repro.perf.engine import AllocationEngine
from repro.perf.latency import LatencyModel

#: Upper bound on splitting iterations; each adds one false edge.
DEFAULT_MAX_ITERATIONS = 10


@dataclass(frozen=True)
class SplitAttempt:
    """One false-edge trial of the splitting loop.

    Attributes:
        tensor_a: The size-defining tensor separated out.
        tensor_b: The buffer-mate it was split away from.
        latency: Exact end-to-end latency after the re-allocation.
        accepted: Whether the split improved latency and was kept.
    """

    tensor_a: str
    tensor_b: str
    latency: float
    accepted: bool


@dataclass
class SplittingOutcome:
    """Result of the iterative splitting loop.

    Attributes:
        buffers: Final combined virtual buffer list (re-coloured).
        result: DNNK result for that buffer list.
        latency: Exact end-to-end latency of the final allocation.
        iterations: Splitting iterations actually applied (kept ones).
        false_edges: False edges inserted across both interference graphs.
        attempts: Every split trialled, accepted or not, in order —
            the raw material for pipeline diagnostics.
        feature_graph: The pass's copy of the feature interference
            graph in its final state, every false edge included (a
            rejected last split's edge stays in the graph).
        weight_graph: Likewise for the weight graph.
        feature_buffers: Colouring of ``feature_graph`` (so it can differ
            from the colouring behind ``buffers``).
        weight_buffers: Colouring of ``weight_graph``.
    """

    buffers: Sequence[VirtualBuffer]
    result: DNNKResult
    latency: float
    iterations: int
    false_edges: int
    attempts: tuple[SplitAttempt, ...] = ()
    feature_graph: InterferenceGraph = field(default_factory=InterferenceGraph)
    weight_graph: InterferenceGraph = field(default_factory=InterferenceGraph)
    feature_buffers: list[VirtualBuffer] = field(default_factory=list)
    weight_buffers: list[VirtualBuffer] = field(default_factory=list)


def combine_buffers(groups: list[list[VirtualBuffer]]) -> list[VirtualBuffer]:
    """Concatenate buffer groups into one consistently indexed list."""
    combined = []
    for group in groups:
        for buf in group:
            combined.append(VirtualBuffer(index=len(combined), tensors=buf.tensors))
    return combined


def _pick_split(
    result: DNNKResult,
) -> tuple[VirtualBuffer, str, str] | None:
    """Choose the next false edge: (buffer, size-defining tensor, mate).

    Targets the largest spilled buffer holding more than one tensor; the
    mate is the buffer-mate with the highest latency reduction, the tensor
    most hurt by the misspill.
    """
    candidates = [b for b in result.spilled if len(b.tensors) > 1]
    if not candidates:
        return None
    buf = max(candidates, key=lambda b: b.size_bytes)
    big = max(buf.tensors, key=lambda t: t.size_bytes)
    mates = [t for t in buf.tensors if t.name != big.name]
    mate = max(mates, key=lambda t: t.latency_reduction)
    return buf, big.name, mate.name


def buffer_splitting_pass(
    feature_graph: InterferenceGraph,
    weight_graph: InterferenceGraph,
    model: LatencyModel,
    capacity_bytes: int,
    evaluate: Callable[[frozenset[str]], float],
    granularity: int = URAM_BYTES,
    engine: AllocationEngine | None = None,
) -> SplittingOutcome:
    """Iteratively split misspilled buffers while latency improves.

    Args:
        feature_graph: Feature tensor interference graph.  Left as it
            is: the false edges go into a copy, returned in the outcome.
        weight_graph: Weight tensor interference graph (likewise).
        model: Latency model.
        capacity_bytes: On-chip memory available to tensor buffers.
        evaluate: Exact allocation scorer: on-chip tensor set -> seconds.
            Supplied by the framework so prefetch residuals are included.
        granularity: DNNK capacity quantum.
        engine: :class:`AllocationEngine` of ``model`` shared by every
            DNNK retry; one is built when absent.  Each retry's DNNK
            outcome is stored on ``model``
            (:func:`~repro.lcmm.dnnk.memoised_allocation`), so a later
            compile of the design replays the retries without the DP.

    Returns:
        The best configuration seen (the initial one if no split helps)
        after at most :data:`DEFAULT_MAX_ITERATIONS` false edges, with
        the final graphs and their colourings.
    """

    engine = engine or AllocationEngine(model)
    feature_graph, weight_graph = feature_graph.copy(), weight_graph.copy()
    # Each graph's latest colouring.  A false edge changes one graph and
    # colouring is deterministic, so only that graph is recoloured.
    feature_buffers = color_buffers(feature_graph)
    weight_buffers = color_buffers(weight_graph)

    def allocate() -> tuple[Sequence[VirtualBuffer], DNNKResult, float]:
        buffers, result = memoised_allocation(
            dnnk_allocate,
            combine_buffers([feature_buffers, weight_buffers]),
            model,
            capacity_bytes,
            granularity,
            engine=engine,
        )
        return buffers, result, evaluate(result.onchip_tensors)

    buffers, result, latency = allocate()
    best = SplittingOutcome(
        buffers=buffers, result=result, latency=latency, iterations=0, false_edges=0
    )

    edges_added = 0
    attempts: list[SplitAttempt] = []
    for iteration in range(1, DEFAULT_MAX_ITERATIONS + 1):
        split = _pick_split(best.result)
        if split is None:
            break
        _, tensor_a, tensor_b = split
        graph = feature_graph if tensor_a in feature_graph.tensors else weight_graph
        if tensor_b not in graph.tensors or graph.interferes(tensor_a, tensor_b):
            break
        graph.add_false_edge(tensor_a, tensor_b)
        edges_added += 1
        if graph is feature_graph:
            feature_buffers = color_buffers(feature_graph)
        else:
            weight_buffers = color_buffers(weight_graph)
        buffers, result, latency = allocate()
        accepted = latency < best.latency - 1e-15
        attempts.append(
            SplitAttempt(
                tensor_a=tensor_a,
                tensor_b=tensor_b,
                latency=latency,
                accepted=accepted,
            )
        )
        if accepted:
            best = SplittingOutcome(
                buffers=buffers,
                result=result,
                latency=latency,
                iterations=iteration,
                false_edges=edges_added,
            )
        else:
            # The split did not pay off; keep the edge (it is harmless for
            # correctness) but stop exploring further splits.
            break
    return replace(
        best,
        attempts=tuple(attempts),
        feature_graph=feature_graph,
        weight_graph=weight_graph,
        feature_buffers=feature_buffers,
        weight_buffers=weight_buffers,
    )
