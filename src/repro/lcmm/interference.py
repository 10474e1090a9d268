"""Interference graphs over candidate tensors (Fig. 5(a) of the paper).

Two tensors interfere when their live ranges overlap — they then need
distinct buffers.  The buffer-splitting pass (Sec. 3.4) additionally
inserts *false* interference edges to force apart tensors that liveness
alone would let share, so the graph distinguishes real from false edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.lcmm.buffers import CandidateTensor


@dataclass
class InterferenceGraph:
    """Undirected interference graph over candidate tensors.

    Attributes:
        tensors: Candidate tensors by name (insertion-ordered; the
            colouring pass relies on deterministic iteration).
    """

    tensors: dict[str, CandidateTensor] = field(default_factory=dict)
    _adjacency: dict[str, set[str]] = field(default_factory=dict, repr=False)
    _false_edges: set[frozenset[str]] = field(default_factory=set, repr=False)

    @classmethod
    def from_tensors(cls, tensors: Iterable[CandidateTensor]) -> "InterferenceGraph":
        """Build the graph from live-range overlaps.

        An interval sweep: visiting tensors by live-range start, a tensor
        overlaps exactly the earlier-started ones whose range has not
        ended before its start (closed intervals), so each one is
        connected to an active list pruned of the ranges that ended.
        ``tensors`` keeps the input order.

        Raises:
            ValueError: On two tensors with the same name.
        """
        graph = cls()
        adjacency = graph._adjacency
        for tensor in tensors:
            if tensor.name in graph.tensors:
                raise ValueError(f"duplicate tensor {tensor.name!r}")
            graph.tensors[tensor.name] = tensor
            adjacency[tensor.name] = set()
        active: list[tuple[int, str]] = []
        for tensor in sorted(graph.tensors.values(), key=lambda t: t.live_range.start):
            start = tensor.live_range.start
            active = [(end, name) for end, name in active if end >= start]
            neighbours = adjacency[tensor.name]
            for _, name in active:
                neighbours.add(name)
                adjacency[name].add(tensor.name)
            active.append((tensor.live_range.end, tensor.name))
        return graph

    def copy(self) -> "InterferenceGraph":
        """An independent graph with the same tensors and edges.

        The candidate tensors are shared; the adjacency and false-edge
        sets are not, so false edges added to the copy leave this graph
        as it is.
        """
        return InterferenceGraph(
            tensors=dict(self.tensors),
            _adjacency={name: set(adj) for name, adj in self._adjacency.items()},
            _false_edges=set(self._false_edges),
        )

    def add_false_edge(self, a: str, b: str) -> None:
        """Insert a false lifespan-overlap edge (buffer splitting, Sec. 3.4).

        Idempotent; adding a false edge over an existing real edge keeps
        the real edge and records nothing new.
        """
        if a == b:
            raise ValueError("cannot add a self-interference edge")
        for name in (a, b):
            if name not in self.tensors:
                raise KeyError(f"unknown tensor {name!r}")
        if b not in self._adjacency[a]:
            self._adjacency[a].add(b)
            self._adjacency[b].add(a)
            self._false_edges.add(frozenset((a, b)))

    def interferes(self, a: str, b: str) -> bool:
        """Whether two tensors may not share a buffer."""
        return b in self._adjacency.get(a, ())

    def neighbors(self, name: str) -> set[str]:
        """Tensors interfering with ``name``."""
        return set(self._adjacency[name])

    def false_edges(self) -> set[frozenset[str]]:
        """The false edges inserted by buffer splitting."""
        return set(self._false_edges)

    def edge_count(self) -> int:
        """Total number of (undirected) interference edges."""
        return sum(len(adj) for adj in self._adjacency.values()) // 2

    def __len__(self) -> int:
        return len(self.tensors)
