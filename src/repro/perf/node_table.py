"""The one per-design table of Eq. 1's per-node terms, and its views.

A :class:`NodeTable` holds, for every executed node of one (graph,
design) pair, its compute latency and each off-chip stream ("slot") it
pays for: the slot's interface kind, the tensor value it carries, its
bytes and its transfer latency, plus the per-kind sums with everything
off chip and the node's UMM latency.  Each
:class:`~repro.perf.latency.LatencyModel` builds one for its design;
the allocation engine, the Eq. 2 metric and DNNK's gain evaluator read
it directly.  :class:`Slot` and
:class:`LayerLatency` are views of one node, built on demand for the
readers off the hot path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from repro.ir.tensor import TensorKind

#: The three interface kinds, in the order Eq. 1's max considers them.
KINDS = (TensorKind.IFMAP, TensorKind.WEIGHT, TensorKind.OFMAP)

#: Interface index per tensor kind, in that order.
KIND_INDEX = {kind: index for index, kind in enumerate(KINDS)}


@dataclass(frozen=True)
class Slot:
    """One off-chip tensor stream of one node.

    Attributes:
        node: Node name.
        kind: Tensor kind (if / wt / of).
        tensor: Name of the tensor value carried — ``f:<producer>`` for
            features, ``w:<node>`` for weights.  Putting this value
            on-chip removes the slot's transfer latency from the node.
        bytes: Total bytes transferred for this slot in one inference,
            tile reloads included.
        latency: Transfer latency in seconds on the slot's interface.
    """

    node: str
    kind: TensorKind
    tensor: str
    bytes: int
    latency: float


@dataclass
class LayerLatency:
    """Latency decomposition of one node.

    Attributes:
        node: Node name.
        compute: Compute latency ``lat_c(i)`` in seconds.
        slots: Transfer slots, in (if..., wt, of) order.
        macs: Nominal multiply-accumulate count of the node.
    """

    node: str
    compute: float
    slots: list[Slot]
    macs: int

    def slot_latency(
        self,
        kind: TensorKind,
        onchip: frozenset[str] = frozenset(),
        residuals: dict[str, float] | None = None,
        fractions: dict[str, float] | None = None,
    ) -> float:
        """Summed latency of this node's slots of one kind.

        Off-chip slots contribute their full transfer latency; on-chip
        slots contribute their *residual* (the unhidden part of a weight
        prefetch), defaulting to zero.  A tensor pinned *fractionally*
        (``fractions[name] = f``) keeps ``1 - f`` of its transfer — the
        resident channels stop streaming, the rest still do.
        """
        total = 0.0
        for s in self.slots:
            if s.kind is not kind:
                continue
            if s.tensor in onchip:
                if residuals:
                    total += residuals.get(s.tensor, 0.0)
            elif fractions and s.tensor in fractions:
                total += s.latency * (1.0 - fractions[s.tensor])
            else:
                total += s.latency
        return total

    def latency(
        self,
        onchip: frozenset[str] = frozenset(),
        residuals: dict[str, float] | None = None,
        fractions: dict[str, float] | None = None,
    ) -> float:
        """Effective node latency under an on-chip allocation (Eq. 1)."""
        ifmap, weight, ofmap = KINDS
        return max(
            self.compute,
            self.slot_latency(ifmap, onchip, residuals, fractions),
            self.slot_latency(weight, onchip, residuals, fractions),
            self.slot_latency(ofmap, onchip, residuals, fractions),
        )

    @property
    def total_transfer_bytes(self) -> int:
        """Bytes moved over all interfaces with everything off-chip."""
        return sum(s.bytes for s in self.slots)

    @property
    def worst_transfer(self) -> float:
        """Largest per-interface transfer latency with everything off-chip."""
        return max(self.slot_latency(k) for k in KINDS)

    @property
    def is_memory_bound(self) -> bool:
        """Whether off-chip transfer, not compute, limits this node."""
        return self.worst_transfer > self.compute


class SlotLayout(NamedTuple):
    """Which slots each executed node has, and the tensor each carries.

    Nothing here depends on a design, so a graph's
    :class:`~repro.perf.latency.FloorTable` holds one layout for every
    model on the graph.  A node's index is
    its position in the schedule; a tensor's id is the order of its
    first slot.

    Attributes:
        names: Executed nodes in schedule order.
        index: Node name -> node index.
        rank: Per node, its position in name order.
        kinds: Per node, each slot's interface (0 if, 1 wt, 2 of), in
            slot order.
        tids: Per node, each slot's tensor id, in slot order.
        tensor_names: Tensor value name per tensor id.
        tensor_index: Tensor value name -> tensor id.
        tensor_nodes: Per tensor id, the nodes with a slot of it,
            ascending.
        macs: Per node, its nominal multiply-accumulate count.
    """

    names: list[str]
    index: dict[str, int]
    rank: list[int]
    kinds: list[tuple[int, ...]]
    tids: list[tuple[int, ...]]
    tensor_names: list[str]
    tensor_index: dict[str, int]
    tensor_nodes: list[tuple[int, ...]]
    macs: list[int]


def slot_layout(
    names: list[str],
    streams: Iterable[Iterable[tuple[int, str]]],
    macs: list[int],
) -> SlotLayout:
    """Intern the tensors of per-node ``(kind, tensor)`` slot streams."""
    tensor_index: dict[str, int] = {}
    tensor_names: list[str] = []
    tensor_nodes: list[list[int]] = []
    kinds: list[tuple[int, ...]] = []
    tids: list[tuple[int, ...]] = []
    for ni, node_streams in enumerate(streams):
        node_kinds = []
        node_tids = []
        for kind, tensor in node_streams:
            tid = tensor_index.get(tensor)
            if tid is None:
                tid = tensor_index[tensor] = len(tensor_names)
                tensor_names.append(tensor)
                tensor_nodes.append([ni])
            elif tensor_nodes[tid][-1] != ni:
                tensor_nodes[tid].append(ni)
            node_kinds.append(kind)
            node_tids.append(tid)
        kinds.append(tuple(node_kinds))
        tids.append(tuple(node_tids))
    rank = [0] * len(names)
    for position, ni in enumerate(sorted(range(len(names)), key=names.__getitem__)):
        rank[ni] = position
    return SlotLayout(
        names,
        {name: ni for ni, name in enumerate(names)},
        rank,
        kinds,
        tids,
        tensor_names,
        tensor_index,
        [tuple(nodes) for nodes in tensor_nodes],
        macs,
    )


def _kind_sums(kinds: tuple[int, ...], lats: tuple[float, ...]) -> tuple[float, float, float]:
    """Per-kind sums of a node's slot latencies, each in slot order from 0.0."""
    sums = [0.0, 0.0, 0.0]
    for kind, lat in zip(kinds, lats):
        sums[kind] += lat
    return sums[0], sums[1], sums[2]


#: Per kind (if, wt, of), the positions of the other three components
#: in ``(compute, if, wt, of)``, in that order.
_OTHERS = ((0, 2, 3), (0, 1, 3), (0, 1, 2))


def _eq2_terms(
    compute: float,
    kinds: tuple[int, ...],
    tids: tuple[int, ...],
    lats: tuple[float, ...],
    sums: tuple[float, float, float],
) -> tuple[tuple[int, float], ...]:
    """Each tensor's Eq. 2 term at one node, as (tensor id, term) pairs.

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
    terms: list[tuple[int, float]] = []
    seen: set[int] = set()
    for k, tid, lat in zip(kinds, tids, lats):
        if tid in seen:
            continue
        seen.add(tid)
        gap = gaps[k]
        if gap is not None:
            terms.append((tid, gap[1] * (lat / gap[0])))
    return tuple(terms)


def _binding(
    compute: float, kinds: tuple[int, ...], tids: tuple[int, ...], lats: tuple[float, ...]
) -> tuple[tuple[tuple[tuple[int, ...], tuple[float, ...]], ...], float]:
    """Which of a node's slot kinds can bind Eq. 1's max, and its floor.

    A kind whose all-off-chip sum is <= the node's compute can never
    bind: adding non-negative floats is monotone under round-to-nearest,
    so every subset sum in slot order is <= the full sum.  A negative or
    NaN term voids that argument, and an infinite latency makes a
    per-node difference inf - inf = NaN rather than 0.0, so a node
    prunes only when its compute and every kind's all-off-chip sum are
    finite.  Returns the kinds that can bind, in kind order, each as its
    (tensor ids, latencies) in slot order; and the node's compute when
    every term is non-negative and not NaN (the *clean* case), else NaN,
    which no latency compares equal to.
    """
    clean = compute == compute
    full = [0.0, 0.0, 0.0]
    per_kind: tuple[list, list, list] = ([], [], [])
    for kind, tid, lat in zip(kinds, tids, lats):
        per_kind[kind].append((tid, lat))
        if lat >= 0.0:
            full[kind] += lat
        else:
            full[kind] = math.inf
            clean = False
    prune = max(compute, *full) < math.inf
    groups = []
    for terms, total in zip(per_kind, full):
        if terms and not (prune and total <= compute):
            kind_tids, kind_lats = zip(*terms)
            groups.append((kind_tids, kind_lats))
    return tuple(groups), compute if clean else math.nan


class NodeTable:
    """One design's Eq. 1 terms per executed node, characterised once.

    The latency model, the allocation engine, the Eq. 2 metric and
    DNNK's gain evaluator all read these flat arrays, indexed by node
    (schedule order) and, within a node, by slot (``(if..., wt, of)``
    order); nothing characterises a node a second time.  Per node:

    * ``compute[ni]``, its compute latency;
    * per slot: ``kinds[ni]``, ``tids[ni]`` (from the graph's
      :class:`SlotLayout`, shared by every design), ``bytes[ni]`` and
      ``lats[ni]``;
    * ``sums[ni]``, the per-kind sums with everything off chip, each
      accumulated in slot order from 0.0, and ``umm[ni]``, the node's
      UMM latency ``max(compute, *sums)``;
    * :meth:`eq2`, its Eq. 2 terms, and :meth:`binding`, the kinds that
      can bind and its compute floor — both derived on first use, so a
      model that is only scored (a DSE base) never builds them.

    Every sum keeps slot order and every ``max`` the order ``(compute,
    if, wt, of)``, so each value equals the walk over
    :class:`LayerLatency` views bit for bit.  Readers must not mutate
    the arrays: a fused table (:meth:`zeroed`) shares its source's
    untouched rows.
    """

    def __init__(
        self,
        layout: SlotLayout,
        compute: list[float],
        byte_counts: list[tuple[int, ...]],
        lats: list[tuple[float, ...]],
        sums: list[tuple[float, float, float]],
        umm: list[float],
    ) -> None:
        self.layout = layout
        (
            self.names, self.index, self.rank, self.kinds, self.tids,
            self.tensor_names, self.tensor_index, self.tensor_nodes, self.macs,
        ) = layout
        self.compute = compute
        self.bytes = byte_counts
        self.lats = lats
        self.sums = sums
        self.umm = umm
        self._eq2: list | None = None
        self._binding: list | None = None
        #: Whether an engine has counted this table's build in its stats.
        self.charged = False

    @classmethod
    def from_layers(cls, layers: dict[str, LayerLatency]) -> NodeTable:
        """The table of an already-characterised (possibly edited) layer table."""
        views = list(layers.values())
        layout = slot_layout(
            list(layers),
            ([(KIND_INDEX[s.kind], s.tensor) for s in ll.slots] for ll in views),
            [ll.macs for ll in views],
        )
        compute = [ll.compute for ll in views]
        lats = [tuple(s.latency for s in ll.slots) for ll in views]
        sums = [_kind_sums(kinds, node_lats) for kinds, node_lats in zip(layout.kinds, lats)]
        return cls(
            layout,
            compute,
            [tuple(s.bytes for s in ll.slots) for ll in views],
            lats,
            sums,
            [max(c, *s) for c, s in zip(compute, sums)],
        )

    def zeroed(self, slots: dict[int, set[int]]) -> NodeTable:
        """This table with some slots moving nothing (layer fusion).

        ``slots`` maps a node index to the positions of its slots that
        carry zero bytes at zero latency.  The slots stay in place, so
        the layout is shared; untouched rows are shared too.
        """
        byte_counts, lats = list(self.bytes), list(self.lats)
        sums, umm = list(self.sums), list(self.umm)
        for ni, positions in slots.items():
            byte_counts[ni] = tuple(
                0 if p in positions else b for p, b in enumerate(byte_counts[ni])
            )
            lats[ni] = tuple(
                0.0 if p in positions else lat for p, lat in enumerate(lats[ni])
            )
            sums[ni] = _kind_sums(self.kinds[ni], lats[ni])
            umm[ni] = max(self.compute[ni], *sums[ni])
        return NodeTable(self.layout, self.compute, byte_counts, lats, sums, umm)

    def memory_bound(self, ni: int) -> bool:
        """Whether off-chip transfer, not compute, limits the node under UMM."""
        return max(self.sums[ni]) > self.compute[ni]

    def latency(
        self,
        ni: int,
        onchip: frozenset[str],
        residuals: dict[str, float] | None,
        fractions: dict[str, float] | None,
    ) -> float:
        """Eq. 1 at node ``ni``, as :meth:`LayerLatency.latency` combines it.

        Off-chip slots pay their full latency, on-chip slots their
        residual (default zero), and a fractionally pinned tensor keeps
        ``1 - f`` of its transfer; each kind sums in slot order.
        """
        if not onchip and not fractions:
            return self.umm[ni]
        names = self.tensor_names
        sums = [0.0, 0.0, 0.0]
        for kind, tid, lat in zip(self.kinds[ni], self.tids[ni], self.lats[ni]):
            tensor = names[tid]
            if tensor in onchip:
                if residuals:
                    sums[kind] += residuals.get(tensor, 0.0)
            elif fractions and tensor in fractions:
                sums[kind] += lat * (1.0 - fractions[tensor])
            else:
                sums[kind] += lat
        return max(self.compute[ni], sums[0], sums[1], sums[2])

    def eq2(self, ni: int) -> tuple[tuple[int, float], ...]:
        """The node's Eq. 2 terms, as (tensor id, term) in slot order."""
        cache = self._eq2
        if cache is None:
            cache = self._eq2 = [None] * len(self.names)
        terms = cache[ni]
        if terms is None:
            terms = cache[ni] = _eq2_terms(
                self.compute[ni], self.kinds[ni], self.tids[ni], self.lats[ni], self.sums[ni]
            )
        return terms

    def binding(
        self, ni: int
    ) -> tuple[tuple[tuple[tuple[int, ...], tuple[float, ...]], ...], float]:
        """The node's kinds that can bind and its compute floor (see :func:`_binding`)."""
        cache = self._binding
        if cache is None:
            cache = self._binding = [None] * len(self.names)
        analysis = cache[ni]
        if analysis is None:
            analysis = cache[ni] = _binding(
                self.compute[ni], self.kinds[ni], self.tids[ni], self.lats[ni]
            )
        return analysis

    def layer(self, ni: int) -> LayerLatency:
        """A :class:`LayerLatency` view of one node, built on each call."""
        name = self.names[ni]
        tensor_names = self.tensor_names
        return LayerLatency(
            node=name,
            compute=self.compute[ni],
            slots=[
                Slot(name, KINDS[kind], tensor_names[tid], num_bytes, lat)
                for kind, tid, num_bytes, lat in zip(
                    self.kinds[ni], self.tids[ni], self.bytes[ni], self.lats[ni]
                )
            ],
            macs=self.macs[ni],
        )
