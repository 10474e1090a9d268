"""The DNNK input tables of Fig. 7 and the tensor metric of Eq. 2.

Three tables drive the allocator:

* the **operation latency table** — per executed node, the compute latency
  and the three per-interface transfer latencies (Fig. 7(c));
* the **tensor metric table** — per candidate tensor, the latency
  reduction ``L`` it brings when moved on-chip alone (Eq. 2, Fig. 7(b));
* the **virtual buffer table** — per virtual buffer, its size and the
  schedule span of its member tensors (Fig. 7(a)).

The latency reduction is computed *exactly* from the latency model rather
than via the paper's next-lower-latency subtraction: for tensor ``t``
affecting nodes ``N(t)``,

    ``L(t) = sum over n in N(t) of  lat(n, nothing on-chip) - lat(n, {t})``

which coincides with Eq. 2 when ``t`` is the unique bottleneck of a node
and extends it cleanly to multi-input nodes whose input streams serialise.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.tensor import TensorKind
from repro.lcmm.buffers import VirtualBuffer
from repro.perf.latency import LatencyModel, LayerLatency


@dataclass(frozen=True)
class OperationLatencyRow:
    """One row of the operation latency table (Fig. 7(c))."""

    node: str
    lat_compute: float
    lat_ifmap: float
    lat_weight: float
    lat_ofmap: float

    @property
    def bottleneck(self) -> str:
        """Which component dominates the node under UMM."""
        values = {
            "compute": self.lat_compute,
            "if": self.lat_ifmap,
            "wt": self.lat_weight,
            "of": self.lat_ofmap,
        }
        return max(values, key=values.__getitem__)


def operation_latency_table(model: LatencyModel) -> dict[str, OperationLatencyRow]:
    """Build the operation latency table from a latency model."""
    table = {}
    for name in model.nodes():
        ll = model.layer(name)
        table[name] = OperationLatencyRow(
            node=name,
            lat_compute=ll.compute,
            lat_ifmap=ll.slot_latency(TensorKind.IFMAP),
            lat_weight=ll.slot_latency(TensorKind.WEIGHT),
            lat_ofmap=ll.slot_latency(TensorKind.OFMAP),
        )
    return table


def latency_reduction(
    model: LatencyModel, tensor_name: str, affected_nodes: tuple[str, ...]
) -> float:
    """Exact single-tensor latency reduction (see module docs)."""
    onchip = frozenset((tensor_name,))
    total = 0.0
    for node in affected_nodes:
        total += model.node_latency(node) - model.node_latency(node, onchip)
    return total


def eq2_latency_reduction(
    model: LatencyModel,
    tensor_name: str,
    affected_nodes: tuple[str, ...],
    node_terms: dict[str, dict[str, float]] | None = None,
) -> float:
    """The paper's Eq. 2 tensor metric: the next-lower-latency gap.

    ``L_d(i) = lat_d(i) - max{lat_d'(i) | lat_d'(i) < lat_d(i)}`` — the
    latency a node sheds once tensor ``d`` moves on chip *and every
    slower component has already been dealt with*.  Unlike the exact
    single-tensor reduction, this is non-zero for second-tier tensors
    (a tensor hidden behind a slower one still has value as part of a
    pair), which is exactly why DNNK then needs pivot compensation to
    avoid over-counting when summing these metrics (Eq. 4).

    When several input values share the "if" interface, the if-component
    gap is apportioned between them in proportion to their slot
    latencies.

    Args:
        node_terms: Optional memo of :func:`eq2_node_terms` per node name,
            filled on a miss, for callers that query many tensors over
            the same nodes.
    """
    total = 0.0
    for node in affected_nodes:
        terms = None if node_terms is None else node_terms.get(node)
        if terms is None:
            terms = eq2_node_terms(model.layer(node))
            if node_terms is not None:
                node_terms[node] = terms
        term = terms.get(tensor_name)
        if term is not None:
            total += term
    return total


_KINDS = (TensorKind.IFMAP, TensorKind.WEIGHT, TensorKind.OFMAP)


def eq2_node_terms(ll: LayerLatency) -> dict[str, float]:
    """Each tensor's Eq. 2 term at one node, keyed by tensor name.

    A tensor's term comes from its first slot at the node; a tensor
    whose component is not positive has no term.  The component sums
    accumulate in slot order, exactly as ``LayerLatency.slot_latency``.
    """
    slots = ll.slots
    kinds = [_KINDS.index(slot.kind) for slot in slots]
    sums = [0.0, 0.0, 0.0]
    for k, slot in zip(kinds, slots):
        sums[k] += slot.latency
    components = (ll.compute, *sums)
    # Per kind: its total and its gap to the next-lower component.
    gaps: list[tuple[float, float] | None] = [None, None, None]
    for k, kind_total in enumerate(sums):
        if kind_total <= 0.0:
            continue
        lower = [v for j, v in enumerate(components) if j != k + 1 and v < kind_total]
        gaps[k] = (kind_total, kind_total - (max(lower) if lower else 0.0))
    terms: dict[str, float] = {}
    seen: set[str] = set()
    for k, slot in zip(kinds, slots):
        if slot.tensor in seen:
            continue
        seen.add(slot.tensor)
        gap = gaps[k]
        if gap is not None:
            terms[slot.tensor] = gap[1] * (slot.latency / gap[0])
    return terms


def tensor_metric_table(
    model: LatencyModel, candidates: list
) -> dict[str, float]:
    """Tensor name -> latency reduction L, for reporting (Fig. 7(b))."""
    return {t.name: t.latency_reduction for t in candidates}


@dataclass(frozen=True)
class VirtualBufferRow:
    """One row of the virtual buffer table (Fig. 7(a))."""

    name: str
    size_bytes: int
    start: int
    end: int
    tensors: tuple[str, ...]


def virtual_buffer_table(buffers: list[VirtualBuffer]) -> list[VirtualBufferRow]:
    """Build the virtual buffer table from a buffer list."""
    rows = []
    for buf in buffers:
        span = buf.span
        rows.append(
            VirtualBufferRow(
                name=buf.name,
                size_bytes=buf.size_bytes,
                start=span.start,
                end=span.end,
                tensors=tuple(buf.tensor_names),
            )
        )
    return rows
