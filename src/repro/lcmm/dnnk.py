"""DNNK — the DNN Knapsack on-chip memory allocator (Alg. 1, Sec. 3.3).

The allocation problem is a 0/1 knapsack: items are virtual buffers (size =
largest member tensor), capacity is the on-chip memory left after the tile
buffers, and the value of a buffer is the latency reduction of pinning its
member tensors on chip (Eq. 5).  The complication the paper calls *pivot
compensation* (Eq. 4) is that values are not additive: a node's latency is
the max of its compute and per-interface transfer terms, so the gain of
removing one transfer depends on which of the node's *other* tensors are
already on chip.

Alg. 1 handles this by consulting, while evaluating buffer ``i`` at
capacity column ``j``, the decisions earlier rows made *in the same
column* (``pbuf_table(op.get_idx(d), j)``).  We implement exactly that
context rule, but compute the resulting marginal gain exactly from the
latency model (a per-node max) instead of via the paper's
subtract-the-next-lower-latency bookkeeping — the two coincide where Eq. 4
is well defined, and the exact form extends cleanly to nodes with several
input tensors.  Because the column context is an approximation of the true
knapsack path, the final allocation is always re-scored with the exact
Eq. 1 evaluator; tests compare DNNK against exhaustive search on small
instances.

Gains are evaluated by :class:`_EngineGainEvaluator`, which reads the
model's flat per-node table (:class:`repro.perf.node_table.NodeTable`), so
a node query is one pass over small int/float tuples.  Its per-node
sums accumulate in the same order as ``LayerLatency.latency``, so every
gain, delta and total equals the plain latency-model walk bit for bit
(``tests/oracles.py`` keeps that walk as the test oracle).  It also
prunes exactly: a slot kind whose all-off-chip sum is at most the
node's compute can never bind (rounded addition of non-negative terms
is monotone), so buffers whose slots on a node lie only in such
dominated kinds drop out of that node's memo key, and a gain skips the
nodes where its buffer cannot bind — their difference is exactly
``0.0``, and adding ``+0.0`` leaves a sum unchanged.  A node memo miss
walks only the kinds that can bind, and a gain takes ``after`` from
``before`` at a node already at its compute, which more on-chip buffers
cannot lower (see ``docs/algorithms.md``, "Query complexity").
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.hw.sram import URAM_BYTES
from repro.lcmm.buffers import VirtualBuffer
from repro.perf.engine import AllocationEngine
from repro.perf.latency import LatencyModel

@dataclass(frozen=True)
class DNNKResult:
    """Outcome of a DNNK run.

    Immutable: one result is shared by every compile of a design that
    reaches the same knapsack (:func:`memoised_allocation`), so
    ``allocated`` and ``spilled`` are stored as tuples whatever sequence
    they are given as.

    Attributes:
        allocated: Virtual buffers granted on-chip memory, in input order.
        spilled: Virtual buffers left in DDR.
        onchip_tensors: All tensor values resident on chip.
        predicted_reduction: Exact Eq. 1 reduction of the final chosen
            set versus the empty allocation (re-scored after every
            refinement, so local-search moves are reflected).
        capacity_bytes: The capacity the run was given.
        used_bytes: Block-rounded consumption of the allocated buffers —
            each buffer occupies whole capacity quanta, exactly as the DP
            accounts for it.
    """

    allocated: tuple[VirtualBuffer, ...]
    spilled: tuple[VirtualBuffer, ...]
    onchip_tensors: frozenset[str]
    predicted_reduction: float
    capacity_bytes: int
    used_bytes: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "allocated", tuple(self.allocated))
        object.__setattr__(self, "spilled", tuple(self.spilled))


class _EngineGainEvaluator:
    """Exact marginal latency gain of taking one buffer, given a context.

    The context is the bitmask of buffers already decided on-chip in the
    same capacity column.  Reads the model's
    :class:`~repro.perf.node_table.NodeTable` through an
    :class:`AllocationEngine` (never the engine's mutable state: DNNK
    evaluates allocations without residuals or fractions).  What does
    not depend on the buffers — each node's slot kinds that can bind and
    its compute floor (:meth:`NodeTable.binding`) — is built once per
    model; a call only binds each of those slots to the virtual buffer
    holding its tensor.  A node query is then one pass over small
    tuples; the per-kind sums accumulate in the same slot order as
    ``LayerLatency.slot_latency`` and per-buffer node iteration follows
    name-sorted order, so every gain, delta and total is bit-for-bit
    equal to walking the latency model.
    """

    def __init__(self, engine: AllocationEngine, buffers: list[VirtualBuffer]) -> None:
        self._engine = engine
        self._buffers = buffers
        table = engine.model.node_table
        node_index = table.index
        self._rank = table.rank.__getitem__

        # Each tensor's buffer bit, 0 for a tensor no buffer holds.
        tensor_bit = [0] * len(table.tensor_names)
        tensor_index = table.tensor_index
        for bi, buf in enumerate(buffers):
            bit = 1 << bi
            for t in buf.tensors:
                tid = tensor_index.get(t.name)
                if tid is not None:
                    tensor_bit[tid] = bit

        # Per-buffer affected nodes as schedule indices, in name-sorted
        # order (gains sum per-node differences in exactly that order),
        # and per touched node the mask of buffers affecting it.
        self._affected: list[tuple[int, ...]] = []
        node_buffers: dict[int, int] = {}
        for bi, buf in enumerate(buffers):
            idxs = set()
            for t in buf.tensors:
                for n in t.affected_nodes:
                    ni = node_index.get(n)
                    if ni is not None:
                        idxs.add(ni)
            ordered = tuple(sorted(idxs, key=self._rank))
            self._affected.append(ordered)
            bit = 1 << bi
            for ni in ordered:
                node_buffers[ni] = node_buffers.get(ni, 0) | bit
        self._relevant_mask: list[int] = []
        for idxs in self._affected:
            mask = 0
            for ni in idxs:
                mask |= node_buffers[ni]
            self._relevant_mask.append(mask)

        # Touched nodes only.  Each keeps the kinds that can bind
        # ("live" kinds), in kind order, as (buffer bit or 0, latency)
        # tuples in slot order, plus its *live* mask — the bits of
        # buffers with a slot in a live kind, the only bits that change
        # the node's latency — which keys the per-node memo.
        self._node_walk: dict[int, tuple[tuple[tuple[int, float], ...], ...]] = {}
        self._node_mask: dict[int, int] = {}
        self._node_cache: dict[int, dict[int, float]] = {}
        node_floor: dict[int, float] = {}
        bit_of = tensor_bit.__getitem__
        for ni in node_buffers:
            groups, node_floor[ni] = table.binding(ni)
            walk = []
            live = 0
            for tids, lats in groups:
                bits = tuple(map(bit_of, tids))
                for bit in bits:
                    live |= bit
                walk.append(tuple(zip(bits, lats)))
            self._node_walk[ni] = tuple(walk)
            self._node_mask[ni] = live
            self._node_cache[ni] = {0: table.umm[ni]}

        # Gain loop inputs: the affected nodes where a buffer's bit is
        # live (elsewhere its per-node difference is exactly 0.0, and
        # adding +0.0 never changes a sum), in the same name-sorted order,
        # as (node, live mask, memo, floor) tuples; and the union of those
        # nodes' live masks — the only context bits its gain can depend
        # on, which keys the gain memo and the DP.
        self._gain_nodes: list[tuple[tuple[int, int, dict[int, float], float], ...]] = []
        self._gain_mask: list[int] = []
        node_mask, node_cache = self._node_mask, self._node_cache
        for bi in range(len(buffers)):
            nodes = []
            mask = 0
            for ni in self._affected[bi]:
                live = node_mask[ni]
                if live >> bi & 1:
                    nodes.append((ni, live, node_cache[ni], node_floor[ni]))
                    mask |= live
            self._gain_nodes.append(tuple(nodes))
            self._gain_mask.append(mask)

        self._cache: list[dict[int, float]] = [dict() for _ in buffers]

    # -- node queries ---------------------------------------------------
    def node_latency_mask(self, ni: int, mask: int) -> float:
        """Eq. 1 latency of the node at schedule index ``ni`` under a mask.

        Memoised on the node's live sub-mask: only the bits of buffers
        with a slot in a kind that can bind change the value, and the
        memoised value is exactly the recomputed one, so caching never
        perturbs parity.  A miss walks the live kinds only, each summed
        in slot order and folded in kind order with ``max``'s ``>``, so
        the value equals ``max(compute, s0, s1, s2)`` bit for bit.
        """
        walk = self._node_walk.get(ni)
        if walk is None:
            return self._engine.base_node_lat[ni]
        key = mask & self._node_mask[ni]
        cache = self._node_cache[ni]
        cached = cache.get(key)
        if cached is not None:
            return cached
        # Every buffer bit of a live kind is in the live mask, so ``key``
        # decides residency; bit 0 (no buffer) never tests as on chip.
        # Skipped dominated kinds sum to <= compute and could not have
        # replaced it: ``max`` keeps the first of tied values.
        value = self._engine.compute[ni]
        for terms in walk:
            s = 0.0
            for bit, lat in terms:
                if not key & bit:
                    s += lat
            if s > value:
                value = s
        cache[key] = value
        return value

    def total_latency(self, chosen: set[int]) -> float:
        """Exact end-to-end latency with a chosen buffer set on chip.

        Sums per-node latencies in schedule order — untouched nodes keep
        their all-off-chip value — matching
        ``LatencyModel.total_latency`` bit-for-bit.
        """
        mask = 0
        for i in chosen:
            mask |= 1 << i
        return self.total_latency_mask(mask)

    def total_latency_mask(self, mask: int) -> float:
        node_walk = self._node_walk
        total = 0.0
        for ni, base in enumerate(self._engine.base_node_lat):
            if ni in node_walk:
                total += self.node_latency_mask(ni, mask)
            else:
                total += base
        return total

    # -- move evaluation ------------------------------------------------
    def _affected_union(self, indices: tuple[int, ...]) -> Sequence[int]:
        if len(indices) == 1:
            # Already unique and in name order.
            return self._affected[indices[0]]
        affected: set[int] = set()
        for i in indices:
            affected.update(self._affected[i])
        return sorted(affected, key=self._rank)

    def move_delta(self, context_mask: int, add: int | None, drop: int | None) -> float:
        """Exact latency change of adding/dropping buffers (negative = better)."""
        new_mask = context_mask
        indices = []
        if drop is not None:
            new_mask &= ~(1 << drop)
            indices.append(drop)
        if add is not None:
            new_mask |= 1 << add
            indices.append(add)
        delta = 0.0
        for ni in self._affected_union(tuple(indices)):
            delta += self.node_latency_mask(ni, new_mask)
            delta -= self.node_latency_mask(ni, context_mask)
        return delta

    def pair_delta(self, context_mask: int, a: int, b: int) -> float:
        """Exact latency change of adding buffers ``a`` and ``b`` together."""
        trial = (context_mask | 1 << a) | 1 << b
        delta = 0.0
        for ni in self._affected_union((a, b)):
            delta += self.node_latency_mask(ni, trial)
            delta -= self.node_latency_mask(ni, context_mask)
        return delta

    def exchange_delta(
        self, context_mask: int, incoming: tuple[int, ...], evict: list[int]
    ) -> float:
        """Exact latency change of adding ``incoming`` while evicting ``evict``."""
        trial = context_mask
        for inc in incoming:
            trial |= 1 << inc
        for out in evict:
            trial &= ~(1 << out)
        delta = 0.0
        for ni in self._affected_union((*incoming, *evict)):
            delta += self.node_latency_mask(ni, trial)
            delta -= self.node_latency_mask(ni, context_mask)
        return delta

    def relevant_pair(self, a: int, b: int) -> bool:
        """Whether two buffers share a node (can be complementary)."""
        return bool(self._relevant_mask[a] >> b & 1)

    def gain(self, buffer_index: int, context_mask: int) -> float:
        """Marginal latency reduction of taking ``buffer_index``."""
        key = context_mask & self._gain_mask[buffer_index]
        cache = self._cache[buffer_index]
        cached = cache.get(key)
        if cached is not None:
            self._engine.stats.gain_cache_hits += 1
            return cached
        self._engine.stats.gain_cache_misses += 1
        bit = 1 << buffer_index
        total = 0.0
        # Inlined node lookups; each per-node term accumulates as a single
        # difference, exactly like a plain per-node walk.  Compute floor:
        # on a node whose terms are all non-negative and not NaN, taking
        # more buffers only shrinks each slot-order kind sum, so a node
        # already at its compute stays there — ``after`` is ``before``
        # (and an infinite compute still gives inf - inf = NaN).
        for ni, live, nc, floor in self._gain_nodes[buffer_index]:
            kb = context_mask & live
            before = nc.get(kb)
            if before is None:
                before = self.node_latency_mask(ni, kb)
            if before == floor:
                after = before
            else:
                ka = kb | bit
                after = nc.get(ka)
                if after is None:
                    after = self.node_latency_mask(ni, ka)
            total += before - after
        cache[key] = total
        return total


def dnnk_allocate(
    buffers: list[VirtualBuffer],
    model: LatencyModel,
    capacity_bytes: int,
    granularity: int = URAM_BYTES,
    engine: AllocationEngine | None = None,
) -> DNNKResult:
    """Run the DNNK dynamic program (Alg. 1 of the paper).

    Args:
        buffers: Unallocated virtual buffer list (feature + weight).
        model: Latency model supplying the operation latency table.
        capacity_bytes: On-chip memory available for tensor buffers
            (``Rsram`` in the paper).
        granularity: Capacity quantum of the DP sweep; defaults to one
            URAM block, the unit the device allocates buffers in.
        engine: :class:`AllocationEngine` of ``model`` to reuse; one is
            built when absent.

    Returns:
        The allocation, with decisions backtraced from the DP memo.
    """
    if capacity_bytes < 0:
        raise ValueError("capacity_bytes must be non-negative")
    if granularity <= 0:
        raise ValueError("granularity must be positive")

    units = capacity_bytes // granularity
    sizes = [math.ceil(b.size_bytes / granularity) for b in buffers]
    evaluator = _EngineGainEvaluator(engine or AllocationEngine(model), buffers)

    # The DP's column-context gains depend on the order buffers are
    # processed in, so run it under two orderings — the caller's list
    # order (largest-first, from the colouring) and descending
    # value-density — refine each with local search, and keep whichever
    # scores better under the exact Eq. 1 evaluator.
    orders = [list(range(len(buffers)))]
    density_order = sorted(
        range(len(buffers)),
        key=lambda i: -buffers[i].total_latency_reduction / max(1, sizes[i]),
    )
    if density_order != orders[0]:
        orders.append(density_order)

    best_chosen: set[int] = set()
    best_latency = float("inf")
    for order in orders:
        chosen_set, _ = _dp_pass(order, sizes, units, evaluator)
        chosen_set = _local_search(chosen_set, sizes, units, evaluator, len(buffers))
        latency = evaluator.total_latency(chosen_set)
        if latency < best_latency - 1e-18:
            best_latency = latency
            best_chosen = chosen_set
    chosen_set = best_chosen
    chosen = sorted(chosen_set)

    # Re-score the *final* set exactly: local search may have moved away
    # from the DP's backtraced choice, so the DP objective would be stale.
    baseline = evaluator.total_latency(set())
    allocated = [buffers[i] for i in chosen]
    spilled = [b for i, b in enumerate(buffers) if i not in chosen_set]
    onchip = frozenset(name for i in chosen for name in buffers[i].tensor_names)
    return DNNKResult(
        allocated=allocated,
        spilled=spilled,
        onchip_tensors=onchip,
        predicted_reduction=baseline - best_latency,
        capacity_bytes=capacity_bytes,
        used_bytes=_block_rounded_bytes(buffers, chosen, granularity),
    )


def _block_rounded_bytes(
    buffers: list[VirtualBuffer], chosen, granularity: int
) -> int:
    """Block-granular consumption of a chosen buffer set.

    Every allocator reports this same quantity so ``used_bytes`` is
    comparable across DNNK, greedy and the exhaustive test oracle.
    """
    return sum(
        math.ceil(buffers[i].size_bytes / granularity) * granularity for i in chosen
    )


def _dp_pass(
    order: list[int],
    sizes: list[int],
    units: int,
    evaluator: _EngineGainEvaluator,
) -> tuple[set[int], float]:
    """One pivot-compensated DP sweep over buffers in ``order``.

    Alg. 1's table has a column per capacity unit: ``best[j]``, the best
    predicted reduction within ``j`` units, and ``context[j]``, the mask
    of buffers earlier rows took at ``j`` (the paper's
    ``pbuf_table(·, j)``).  Columns come in runs of equal ``(best,
    context)``, so the sweep keeps the row as parallel run lists and,
    for buffer ``i`` of size ``s``, walks the segments of ``[s, units]``
    where both the run of ``j`` and the run of ``j - s`` stay constant.
    Each segment makes the column rule's float64 ``best[j - s] + gain``
    and ``>`` once for all its columns, and each distinct gain key of a
    row is scored once, so the decisions, ``best[units]`` and the set of
    gain calls equal a column-by-column sweep's
    (``tests/oracles.py::column_dp``).

    Returns the backtraced chosen set (original indices) and the DP's
    predicted total reduction.
    """
    # Run k covers columns [starts[k], starts[k + 1]); masks are ints,
    # so any number of buffers fits.
    starts, values, masks = [0], [0.0], [0]
    gain_mask = evaluator._gain_mask
    # Per row, the taken columns as flat [start, end) pairs, ascending.
    taken: list[list[int]] = []
    for i in order:
        size = sizes[i]
        row: list[int] = []
        taken.append(row)
        if size > units:
            continue
        bit, want = 1 << i, gain_mask[i]
        row_gains: dict[int, float] = {}
        ends = starts[1:]
        ends.append(units + 1)
        a = bisect_right(starts, size) - 1  # the run of column size
        new_starts, new_values, new_masks = starts[:a], values[:a], masks[:a]
        if starts[a] < size:
            new_starts.append(starts[a])
            new_values.append(values[a])
            new_masks.append(masks[a])
        b = 0  # the run of column j - size
        j = size
        while j <= units:
            end = min(ends[a], ends[b] + size)
            value, mask = values[a], masks[a]
            key = mask & want
            gain = row_gains.get(key)
            if gain is None:
                gain = row_gains[key] = evaluator.gain(i, key)
            take = values[b] + gain
            if take > value:
                value = take
                mask |= bit
                if row and row[-1] == j:
                    row[-1] = end
                else:
                    row += (j, end)
            if not (new_values and new_values[-1] == value and new_masks[-1] == mask):
                new_starts.append(j)
                new_values.append(value)
                new_masks.append(mask)
            j = end
            if j == ends[a]:
                a += 1
            if j == ends[b] + size:
                b += 1
        starts, values, masks = new_starts, new_values, new_masks

    # Standard knapsack backtrace: column j lies in a taken interval of
    # row k when an odd number of its bounds are <= j.
    chosen_set: set[int] = set()
    j = units
    for k in range(len(order) - 1, -1, -1):
        if bisect_right(taken[k], j) & 1:
            chosen_set.add(order[k])
            j -= sizes[order[k]]
    return chosen_set, values[-1]


def _local_search(
    chosen_set: set[int],
    sizes: list[int],
    units: int,
    evaluator,
    num_buffers: int,
) -> set[int]:
    """Exact-gain local-search refinement of a DP allocation.

    The column-context DP has two blind spots: a buffer whose gain only
    materialises once a partner is resident (Eq. 2's second-tier tensors)
    reads as worthless when its row runs, and an early over-valued pick
    can crowd out a better large buffer.  Repair both with exact-gain
    moves against the final allocation — single and pair adds first, then
    single and pair adds with evictions — each strictly improving and capacity-respecting, until a
    full sweep changes nothing.
    """
    chosen_set = set(chosen_set)
    remaining = units - sum(sizes[i] for i in chosen_set)
    for _ in range(2 * num_buffers + 1):
        context_mask = 0
        for i in chosen_set:
            context_mask |= 1 << i
        improved = False
        for i in range(num_buffers):
            if i in chosen_set or sizes[i] > remaining:
                continue
            if evaluator.gain(i, context_mask) > 1e-15:
                chosen_set.add(i)
                context_mask |= 1 << i
                remaining -= sizes[i]
                improved = True
        if not improved:
            # Pair-add: two complementary buffers (e.g. the if and wt
            # tensors of one operation) can each be worthless alone yet
            # valuable together — no single-add move ever discovers them.
            pair = None
            spilled = [
                i
                for i in range(num_buffers)
                if i not in chosen_set and sizes[i] <= remaining
            ]
            for a_pos, a in enumerate(spilled):
                for b in spilled[a_pos + 1 :]:
                    if sizes[a] + sizes[b] > remaining:
                        continue
                    # Only pairs that share a node can be complementary.
                    if not evaluator.relevant_pair(a, b):
                        continue
                    if evaluator.pair_delta(context_mask, a, b) < -1e-15:
                        pair = (a, b)
                        break
                if pair:
                    break
            if pair:
                chosen_set.update(pair)
                remaining -= sizes[pair[0]] + sizes[pair[1]]
                improved = True
        if not improved:
            # Add-with-eviction: offer each spilled buffer, then each
            # complementary spilled pair (which pair-add could not fit);
            # evict the cheapest (per block) residents until the offer
            # fits, and keep the exchange only when the exact Eq. 1 total
            # improves.  Pairs are only offered once no single exchange
            # helps, so a pair worthless alone can still displace a
            # resident it beats together.
            # Both eviction orders depend only on the resident set, which
            # stays fixed until an exchange is accepted: sort once.
            eviction_orders = (
                sorted(
                    chosen_set,
                    key=lambda i: evaluator.move_delta(context_mask, add=None, drop=i)
                    / sizes[i],
                ),
                sorted(chosen_set, key=lambda i: -sizes[i]),
            )
            spilled = [i for i in range(num_buffers) if i not in chosen_set]
            offers = itertools.chain(
                ((i,) for i in spilled),
                (
                    (a, b)
                    for a_pos, a in enumerate(spilled)
                    for b in spilled[a_pos + 1 :]
                    if evaluator.relevant_pair(a, b)
                ),
            )
            for offer in offers:
                need = sum(sizes[i] for i in offer)
                if need > units:
                    continue
                best_delta = 0.0
                best_evict: list[int] | None = None
                for order in eviction_orders:
                    evict: list[int] = []
                    freed = remaining
                    for out in order:
                        if freed >= need:
                            break
                        evict.append(out)
                        freed += sizes[out]
                    if freed < need:
                        continue
                    delta = evaluator.exchange_delta(context_mask, offer, evict)
                    if delta < best_delta - 1e-15:
                        best_delta = delta
                        best_evict = evict
                if best_evict is not None:
                    chosen_set.difference_update(best_evict)
                    chosen_set.update(offer)
                    remaining = units - sum(sizes[i] for i in chosen_set)
                    improved = True
                    break
        if not improved:
            break
    return chosen_set


def greedy_allocate(
    buffers: list[VirtualBuffer],
    model: LatencyModel,
    capacity_bytes: int,
    granularity: int = URAM_BYTES,
    engine: AllocationEngine | None = None,
) -> DNNKResult:
    """Density-greedy baseline allocator (ablation reference).

    Repeatedly takes the buffer with the best exact marginal
    reduction-per-byte that still fits, with the same block-granular size
    accounting as DNNK.  Used to quantify what the dynamic program buys
    over the obvious heuristic.  ``engine`` is reused like DNNK's.

    Raises:
        ValueError: On a negative capacity or a non-positive granularity.
    """
    if capacity_bytes < 0:
        raise ValueError("capacity_bytes must be non-negative")
    if granularity <= 0:
        raise ValueError("granularity must be positive")
    evaluator = _EngineGainEvaluator(engine or AllocationEngine(model), buffers)
    block_sizes = [
        math.ceil(b.size_bytes / granularity) * granularity for b in buffers
    ]
    remaining = (capacity_bytes // granularity) * granularity
    pool = list(range(len(buffers)))
    chosen: list[int] = []
    context_mask = 0
    while pool:
        best_idx, best_density, best_gain = None, 0.0, 0.0
        for i in pool:
            if block_sizes[i] > remaining:
                continue
            gain = evaluator.gain(i, context_mask)
            density = gain / buffers[i].size_bytes
            if density > best_density:
                best_idx, best_density, best_gain = i, density, gain
        if best_idx is None:
            break
        pool.remove(best_idx)
        chosen.append(best_idx)
        context_mask |= 1 << best_idx
        remaining -= block_sizes[best_idx]
    chosen_set = set(chosen)
    onchip = frozenset(
        name for i in chosen_set for name in buffers[i].tensor_names
    )
    # Report the exact reduction of the final set, not the accumulated
    # marginal gains (which drift by pair effects and float rounding).
    reduction = (
        evaluator.total_latency(set()) - evaluator.total_latency(chosen_set)
    )
    return DNNKResult(
        allocated=[buffers[i] for i in sorted(chosen_set)],
        spilled=[b for i, b in enumerate(buffers) if i not in chosen_set],
        onchip_tensors=onchip,
        predicted_reduction=reduction,
        capacity_bytes=capacity_bytes,
        used_bytes=_block_rounded_bytes(buffers, chosen_set, granularity),
    )


def _allocation_memo(model: LatencyModel) -> dict:
    """The allocator outcomes stored on ``model``; see :func:`memoised_allocation`."""
    return {}


def memoised_allocation(
    allocate: Callable[..., DNNKResult],
    buffers: list[VirtualBuffer],
    model: LatencyModel,
    capacity_bytes: int,
    granularity: int = URAM_BYTES,
    engine: AllocationEngine | None = None,
) -> tuple[tuple[VirtualBuffer, ...], DNNKResult]:
    """``allocate(buffers, model, ...)``, run once per model.

    The pipeline's DNNK allocations and the fused reallocation go
    through here.  Every compile of one design can run on one model, and
    its ``dnnk``, ``splitting`` and fused configurations all begin with
    the same knapsack; the splitting retries and the fused reallocation
    repeat across configurations too.  Outcomes are stored on the model
    (:meth:`LatencyModel.derived`), keyed by the allocator, the buffers'
    tensor names in list order, the capacity and the granularity: the
    pipeline builds a model's buffers from the analyses of that model (or
    of the model a fused one derives from), so their names fix their
    sizes and gains.  Only a completed run is stored, and a hit returns
    the stored buffers with their result, whose buffers are the same
    (immutable) objects.  A hit runs no DP, so the compile's engine
    stats count none.

    :func:`dnnk_allocate` and :func:`greedy_allocate` themselves stay
    unmemoised: every direct call runs the allocator.
    """
    key = (
        allocate,
        tuple(tuple(b.tensor_names) for b in buffers),
        capacity_bytes,
        granularity,
    )
    memo = model.derived(_allocation_memo)
    entry = memo.get(key)
    if entry is None:
        result = allocate(buffers, model, capacity_bytes, granularity, engine=engine)
        entry = memo[key] = (tuple(buffers), result)
    return entry
