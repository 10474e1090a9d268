"""The DNNK input tables of Fig. 7 and the tensor metric of Eq. 2.

Three tables drive the allocator:

* the **operation latency table** — per executed node, the compute latency
  and the three per-interface transfer latencies (Fig. 7(c));
* the **tensor metric table** — per candidate tensor, the latency
  reduction ``L`` it brings when moved on-chip alone (Eq. 2, Fig. 7(b));
* the **virtual buffer table** — per virtual buffer, its size and the
  schedule span of its member tensors (Fig. 7(a)).

Feature reuse and weight prefetching both rank their candidates by the
paper's next-lower-latency metric (:func:`eq2_latency_reduction`), not
by the exact single-tensor reduction ``lat(n) - lat(n, {t})``: Eq. 2
credits a tensor hidden behind a slower one, and DNNK's pivot
compensation (Eq. 4) and exact-gain search undo the over-count when
several tensors of one node are pinned together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.lcmm.buffers import VirtualBuffer
from repro.perf.latency import LatencyModel


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

    A view of the model's :class:`~repro.perf.node_table.NodeTable` for
    reporting, built on first use and shared by every reader of that
    model; the passes read the node table itself.  Do not mutate the
    returned mapping.
    """
    return model.derived(_operation_rows)


def _operation_rows(model: LatencyModel) -> dict[str, OperationLatencyRow]:
    table = model.node_table
    tensor_names = table.tensor_names
    return {
        name: OperationLatencyRow(
            name,
            table.compute[ni],
            *table.sums[ni],
            table.umm[ni],
            {tensor_names[tid]: term for tid, term in table.eq2(ni)},
        )
        for ni, name in enumerate(table.names)
    }


def eq2_latency_reduction(
    model: LatencyModel,
    tensor_name: str,
    affected_nodes: tuple[str, ...],
) -> float:
    """The paper's Eq. 2 tensor metric: the next-lower-latency gap.

    ``L_d(i) = lat_d(i) - max{lat_d'(i) | lat_d'(i) < lat_d(i)}`` — the
    latency a node sheds once tensor ``d`` moves on chip *and every
    slower component has already been dealt with*.  Unlike the exact
    single-tensor reduction ``lat(n) - lat(n, {d})``, this is non-zero for second-tier tensors
    (a tensor hidden behind a slower one still has value as part of a
    pair), which is exactly why DNNK then needs pivot compensation to
    avoid over-counting when summing these metrics (Eq. 4).

    When several input values share the "if" interface, the if-component
    gap is apportioned between them in proportion to their slot
    latencies.  The per-node terms come from the model's
    :meth:`~repro.perf.node_table.NodeTable.eq2`.
    """
    table = model.node_table
    tid = table.tensor_index.get(tensor_name)
    total = 0.0
    for node in affected_nodes:
        for term_tid, term in table.eq2(table.index[node]):
            if term_tid == tid:
                total += term
                break
    return total


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
