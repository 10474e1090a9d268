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
from repro.lcmm.tables import eq2_latency_reduction, operation_latency_table
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

    Frozen: refinements republish a new result object rather than
    mutating one already handed out (see the splitting recolour).

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
    model: LatencyModel,
    node_latencies: list[float],
    schedule: list[str],
    onchip: frozenset[str] = frozenset(),
) -> list[float]:
    """Weight-channel idle time per node — the budget a prefetch can use.

    A prefetch shares the weight interface with the demand tile streams
    of the nodes it hides behind, so only the part of each node's latency
    not already consumed by its own weight traffic counts.  With nothing
    on chip the demand is the operation latency table's weight column.
    """
    if onchip:
        demands = [
            model.layer(name).slot_latency(TensorKind.WEIGHT, onchip)
            for name in schedule
        ]
    else:
        table = operation_latency_table(model)
        demands = [table[name].lat_weight for name in schedule]
    return [
        max(0.0, latency - demand)
        for latency, demand in zip(node_latencies, demands)
    ]


def weight_prefetch_pass(
    graph: ComputationGraph,
    model: LatencyModel,
    baseline_latencies: dict[str, float] | None = None,
) -> PrefetchResult:
    """Build prefetch edges, weight live ranges and virtual weight buffers.

    Args:
        graph: The DNN computation graph.
        model: Latency model.
        baseline_latencies: Per-node latencies to measure hiding windows
            against.  Defaults to the all-off-chip (UMM) latencies; the
            framework's fixpoint refinement passes post-allocation
            latencies here, because pinning tensors on chip makes earlier
            nodes faster and shrinks the windows a prefetch can hide in.
    """
    schedule = model.nodes()
    table = operation_latency_table(model)
    if baseline_latencies is None:
        baseline = [table[name].latency for name in schedule]
    else:
        baseline = [baseline_latencies[name] for name in schedule]
    capacities = hiding_capacity(model, baseline, schedule)
    elem = model.accel.precision.bytes
    wt_bandwidth = model.accel.interface_bandwidth(TensorKind.WEIGHT.value)

    edges: dict[str, PrefetchEdge] = {}
    candidates: list[CandidateTensor] = []
    weight_shapes = {t.node: t for t in graph.weight_tensors()}

    for idx, name in enumerate(schedule):
        tensor = weight_shapes.get(name)
        if tensor is None:
            continue
        row = table[name]
        if not row.is_memory_bound:
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
