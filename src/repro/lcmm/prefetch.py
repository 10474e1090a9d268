"""Weight buffer prefetching (Sec. 3.2 of the paper).

For each memory-bound node ``Ck`` that reads weights, compute the time
``T`` to load its full weight tensor from DDR, then back-trace the
schedule to the latest earlier node ``Ck'`` such that the elapsed
execution time between ``Ck'`` and ``Ck`` is at least ``T``.  Starting the
load when ``Ck'`` begins hides it entirely behind the intervening
computation.  The resulting *prefetching dependence graph* (PDG, Fig. 6)
gives every weight tensor a bounded lifespan — the span of its prefetch
edge — so the same liveness/colouring machinery as for features lets
weight buffers be shared between nodes with disjoint spans.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.graph import ComputationGraph
from repro.ir.tensor import TensorKind, weight_tensor_name
from repro.lcmm.buffers import CandidateTensor, TensorClass, VirtualBuffer
from repro.lcmm.coloring import color_buffers
from repro.lcmm.interference import InterferenceGraph
from repro.lcmm.liveness import LiveRange
from repro.lcmm.tables import eq2_latency_reduction
from repro.perf.latency import LatencyModel


@dataclass(frozen=True)
class PrefetchEdge:
    """One edge of the prefetching dependence graph.

    Attributes:
        node: The memory-bound node whose weights are prefetched (``Ck``).
        start: The node at whose start the load begins (``Ck'``).
        load_time: Seconds to load the full weight tensor once.
        hidden_time: Seconds of the load hidden behind intervening
            execution; equals ``load_time`` when fully hidden.
    """

    node: str
    start: str
    load_time: float
    hidden_time: float

    @property
    def fully_hidden(self) -> bool:
        """Whether the intervening execution covers the whole load."""
        return self.hidden_time >= self.load_time

    @property
    def residual(self) -> float:
        """Load time the node still waits for (0 when fully hidden)."""
        return max(0.0, self.load_time - self.hidden_time)


@dataclass(frozen=True)
class PrefetchResult:
    """Output of the weight prefetching pass.

    Frozen: the splitting recolour republishes a new result object
    rather than mutating one already handed out.

    Attributes:
        edges: Prefetch edges by node name (the PDG).
        candidates: Weight tensors as allocator candidates, live over
            their prefetch spans.
        interference: Weight interference graph (spans that overlap).
        buffers: Virtual weight buffers from colouring.
    """

    edges: dict[str, PrefetchEdge]
    candidates: list[CandidateTensor]
    interference: InterferenceGraph
    buffers: list[VirtualBuffer]

    def edge_for(self, node: str) -> PrefetchEdge | None:
        """The prefetch edge ending at ``node``, if any."""
        return self.edges.get(node)


def _prefetch_edge(
    schedule: list[str],
    index: int,
    hiding_capacities: list[float],
    load_time: float,
) -> tuple[int, float]:
    """Back-trace for the prefetch start of the node at ``index``.

    Returns:
        ``(start_index, hidden_time)`` where hidden_time is the hiding
        capacity between the start of ``start_index`` and the start of
        ``index`` (capped at what the schedule offers).
    """
    elapsed = 0.0
    start = index
    while start > 0 and elapsed < load_time:
        start -= 1
        elapsed += hiding_capacities[start]
    return start, min(elapsed, load_time)


def hiding_capacity(
    model: LatencyModel, node_latencies: list[float], schedule: list[str]
) -> list[float]:
    """Weight-channel idle time per node — the budget a prefetch can use.

    A prefetch shares the weight interface with the demand tile streams
    of the nodes it hides behind, so only the part of each node's latency
    not already consumed by its own weight traffic counts.  With nothing
    on chip that demand is the node's all-off-chip weight sum.
    """
    table = model.node_table
    return [
        max(0.0, latency - table.sums[table.index[name]][1])
        for latency, name in zip(node_latencies, schedule)
    ]


def weight_prefetch_pass(
    graph: ComputationGraph, model: LatencyModel
) -> PrefetchResult:
    """Build prefetch edges, weight live ranges and virtual weight buffers.

    Hiding windows are measured once, against the all-off-chip (UMM)
    node latencies, as in Sec. 3.2 of the paper.

    Args:
        graph: The DNN computation graph.
        model: Latency model.
    """
    schedule = model.nodes()
    table = model.node_table
    capacities = hiding_capacity(model, table.umm, schedule)
    elem = model.accel.precision.bytes
    wt_bandwidth = model.accel.interface_bandwidth(TensorKind.WEIGHT.value)

    edges: dict[str, PrefetchEdge] = {}
    candidates: list[CandidateTensor] = []
    weight_shapes = {t.node: t for t in graph.weight_tensors()}

    for idx, name in enumerate(schedule):
        tensor = weight_shapes.get(name)
        if tensor is None:
            continue
        if not table.memory_bound(idx):
            # Compute-bound nodes gain nothing from resident weights.
            continue
        wname = weight_tensor_name(name)
        reduction = eq2_latency_reduction(model, wname, (name,))
        if reduction <= 0.0:
            continue
        load_time = tensor.bytes(elem) / wt_bandwidth
        start_idx, hidden = _prefetch_edge(schedule, idx, capacities, load_time)
        edge = PrefetchEdge(
            node=name,
            start=schedule[start_idx],
            load_time=load_time,
            hidden_time=hidden,
        )
        edges[name] = edge
        # The buffer is occupied from the moment the load begins until the
        # consumer finishes — that span is the weight tensor's lifespan.
        candidates.append(
            CandidateTensor(
                name=wname,
                tensor_class=TensorClass.WEIGHT,
                size_bytes=tensor.bytes(elem),
                live_range=LiveRange(start_idx, idx),
                affected_nodes=(name,),
                latency_reduction=reduction,
            )
        )

    interference = InterferenceGraph.from_tensors(candidates)
    buffers = color_buffers(interference)
    return PrefetchResult(
        edges=edges,
        candidates=candidates,
        interference=interference,
        buffers=buffers,
    )
