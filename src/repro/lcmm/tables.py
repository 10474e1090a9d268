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
from typing import NamedTuple

from repro.ir.tensor import TensorKind
from repro.lcmm.buffers import VirtualBuffer
from repro.perf.latency import LatencyModel, Slot


class OperationLatencyRow(NamedTuple):
    """One row of the operation latency table (Fig. 7(c)).

    Every value is with all tensors off chip (UMM).  A named tuple, not
    a frozen dataclass: each compile builds one row per node, and the
    tuple is as immutable and several times cheaper to build.

    Attributes:
        node: Node name.
        lat_compute: Compute latency.
        lat_ifmap: Summed if-slot latencies, in slot order.
        lat_weight: Summed wt-slot latencies, in slot order.
        lat_ofmap: Summed of-slot latencies, in slot order.
        latency: Eq. 1 latency, the max of the four components.
        eq2_terms: Each tensor's Eq. 2 term at the node
            (:func:`eq2_latency_reduction` sums them over nodes).
    """

    node: str
    lat_compute: float
    lat_ifmap: float
    lat_weight: float
    lat_ofmap: float
    latency: float
    eq2_terms: dict[str, float]

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

    @property
    def is_memory_bound(self) -> bool:
        """Whether off-chip transfer, not compute, limits the node."""
        return max(self.lat_ifmap, self.lat_weight, self.lat_ofmap) > self.lat_compute


def operation_latency_table(model: LatencyModel) -> dict[str, OperationLatencyRow]:
    """The operation latency table of a latency model, in schedule order.

    Built once per model instance and shared by every reader of that
    model (the colouring passes read it on each compile); do not mutate
    the returned mapping.
    """
    return model.derived(_build_operation_table)


_KIND_INDEX = {TensorKind.IFMAP: 0, TensorKind.WEIGHT: 1, TensorKind.OFMAP: 2}


def _build_operation_table(model: LatencyModel) -> dict[str, OperationLatencyRow]:
    table = {}
    for name in model.nodes():
        ll = model.layer(name)
        compute, slots = ll.compute, ll.slots
        # Kind sums in slot order, as ``LayerLatency.slot_latency`` with
        # everything off chip.
        kinds = [_KIND_INDEX[slot.kind] for slot in slots]
        sums = [0.0, 0.0, 0.0]
        for k, slot in zip(kinds, slots):
            sums[k] += slot.latency
        s_if, s_wt, s_of = sums
        table[name] = OperationLatencyRow(
            name,
            compute,
            s_if,
            s_wt,
            s_of,
            max(compute, s_if, s_wt, s_of),
            _eq2_terms(compute, slots, kinds, sums),
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
    latencies.  The per-node terms come from the model's
    :func:`operation_latency_table`.
    """
    table = operation_latency_table(model)
    total = 0.0
    for node in affected_nodes:
        term = table[node].eq2_terms.get(tensor_name)
        if term is not None:
            total += term
    return total


#: Per kind (if, wt, of), the positions of the other three components
#: in ``(compute, if, wt, of)``, in that order.
_OTHERS = ((0, 2, 3), (0, 1, 3), (0, 1, 2))


def _eq2_terms(
    compute: float, slots: list[Slot], kinds: list[int], sums: list[float]
) -> dict[str, float]:
    """Each tensor's Eq. 2 term at one node, keyed by tensor name.

    A tensor's term comes from its first slot at the node; a tensor
    whose component is not positive has no term.
    """
    # Per kind: its total and its gap to the next-lower component.  The
    # next-lower component is the first largest of the others below the
    # total (``max``'s tie rule), or 0.0 when none is below it.
    components = (compute, *sums)
    gaps: list[tuple[float, float] | None] = [None, None, None]
    for k, kind_total in enumerate(sums):
        if kind_total <= 0.0:
            continue
        lower = None
        for j in _OTHERS[k]:
            v = components[j]
            if v < kind_total and (lower is None or v > lower):
                lower = v
        gaps[k] = (kind_total, kind_total - (0.0 if lower is None else lower))
    terms: dict[str, float] = {}
    seen: set[str] = set()
    for k, slot in zip(kinds, slots):
        tensor = slot.tensor
        if tensor in seen:
            continue
        seen.add(tensor)
        gap = gaps[k]
        if gap is not None:
            terms[tensor] = gap[1] * (slot.latency / gap[0])
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
