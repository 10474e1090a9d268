"""Liveness analysis over the computation graph (Sec. 3.1).

A feature tensor is *live* from the schedule step of its producer until the
schedule step of its last consumer; two tensors may share a buffer exactly
when their live ranges do not overlap ("the lifespans of f2 and f6 do not
overlap... thus they could share the same buffer").  Ranges are closed
intervals over schedule positions: a tensor consumed at step ``k`` and one
produced at step ``k`` *do* interfere, because during step ``k`` the
consumer reads the former while the producer writes the latter.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from repro.ir.graph import ComputationGraph


@dataclass(frozen=True)
class LiveRange:
    """A closed interval of schedule positions during which data is live."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"live range start must be non-negative, got {self.start}")
        if self.end < self.start:
            raise ValueError(f"live range end {self.end} precedes start {self.start}")

    def overlaps(self, other: "LiveRange") -> bool:
        """Whether two closed intervals intersect."""
        return self.start <= other.end and other.start <= self.end

    @property
    def length(self) -> int:
        """Number of schedule steps covered."""
        return self.end - self.start + 1

    def __str__(self) -> str:
        return f"[{self.start}, {self.end}]"


def schedule_positions(graph: ComputationGraph) -> Mapping[str, int]:
    """Map each executed node to its position in the compute schedule.

    Non-executed nodes (input, concat) are assigned the position of the
    step at which their value becomes available: the input image is
    available before step 0, a concat value when its last branch finishes.
    Built once per graph (:meth:`ComputationGraph.derived`) and read-only.
    """
    return graph.derived(_schedule_positions)


def _schedule_positions(graph: ComputationGraph) -> Mapping[str, int]:
    positions = {name: idx for idx, name in enumerate(graph.compute_schedule())}
    for name in graph.schedule():
        if name in positions:
            continue
        preds = graph.predecessors(name)
        if not preds:
            positions[name] = 0
        else:
            positions[name] = max(positions[p] for p in preds)
    return MappingProxyType(positions)


def feature_live_ranges(graph: ComputationGraph) -> Mapping[str, LiveRange]:
    """Live ranges of every feature tensor in the graph, by tensor name.

    A tensor is live from its producer's step to its last consumer's.
    Built once per graph (:meth:`ComputationGraph.derived`) and read-only.
    """
    return graph.derived(_feature_live_ranges)


def _feature_live_ranges(graph: ComputationGraph) -> Mapping[str, LiveRange]:
    positions = schedule_positions(graph)
    return MappingProxyType({
        t.name: LiveRange(
            positions[t.producer], max(positions[c] for c in t.consumers)
        )
        for t in graph.feature_tensors()
    })
