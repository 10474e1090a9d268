"""Reference implementations the package is checked against.

Nothing here ships in ``repro``: each oracle recomputes what the
engine-backed package computes, by the plainest route available, and
shares no evaluation code with :class:`repro.perf.engine.AllocationEngine`.

* :class:`NaiveGainEvaluator` — DNNK's gain evaluator walking the
  latency model through frozensets per node.  :func:`naive_allocators`
  swaps it into ``dnnk_allocate`` / ``greedy_allocate`` (on
  :func:`column_dp`) so a whole compile can be re-decided without the
  engine.
* :func:`flat_tables`, :func:`operation_rows` and
  :func:`evaluator_node_walks` — the per-node terms of Eq. 1 (the
  engine's flat arrays, the operation latency table with its Eq. 2
  terms, and the gain evaluator's prunable kinds and compute floors),
  each re-derived by walking the model's ``LayerLatency`` views, the
  check of the model's one :class:`~repro.perf.node_table.NodeTable`.
* :func:`column_dp` — Alg. 1's sweep one capacity column at a time, the
  check of the run-length sweep ``dnnk._dp_pass``.
* :func:`exhaustive_allocate` / :func:`branch_and_bound_allocate` —
  provably optimal allocators for small and medium instances.
* :func:`pairwise_interference` — interference adjacency by testing
  every pair of live ranges, the check of the interval sweep in
  ``InterferenceGraph.from_tensors``.
* :func:`latency_reduction` — a tensor's exact single-tensor latency
  reduction, the value Eq. 2's next-lower-latency metric approximates.
* :func:`onchip_hiding_capacity` — weight-channel idle time per node
  with a given set of tensors already on chip.
* :func:`naive_residuals` / :func:`naive_walk` — the published
  latency, per-node latencies and prefetch residuals of a result,
  re-derived from its decisions alone.
* :func:`simulate_tiles` / :func:`network_tile_latency` — the dataflow
  of Fig. 1 simulated one outer-loop tile iteration at a time, the
  from-first-principles check of the bulk Eq.-1 latencies.
* :func:`roofline_floor` — the floor no tile of a design can beat,
  walked over the design's characterised model, the check of
  ``FloorTable.floor``.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from unittest import mock

from repro.hw.sram import URAM_BYTES
from repro.ir.layer import Attention, ComputeKind, Conv2D, Gemm, GemmDims
from repro.ir.tensor import TensorKind, weight_tensor_name
from repro.lcmm.buffers import VirtualBuffer
from repro.lcmm.dnnk import DNNKResult, _block_rounded_bytes, dnnk_allocate
from repro.lcmm.fusion import apply_fusion
from repro.lcmm.prefetch import PrefetchResult
from repro.perf.latency import LatencyModel
from repro.perf.systolic import gemm_compute_cycles, gemm_cycles_lower_bound
from repro.sim import simulate


class NaiveGainEvaluator:
    """Exact marginal latency gain of taking one buffer, given a context.

    The context is the set of buffers already decided on-chip in the same
    capacity column.  Gains are memoised per buffer on the *relevant*
    sub-mask — the context bits belonging to buffers that touch the same
    nodes — so repeated columns with identical local context hit the cache.
    Every node query rebuilds the resident frozenset and walks the latency
    model; the engine-backed evaluator must reproduce it bit for bit.
    """

    def __init__(self, model: LatencyModel, buffers: list[VirtualBuffer]) -> None:
        self._model = model
        self._buffers = buffers
        # tensor value name -> index of the buffer holding it.
        self._tensor_buffer: dict[str, int] = {}
        for idx, buf in enumerate(buffers):
            for t in buf.tensors:
                self._tensor_buffer[t.name] = idx
        # buffer index -> nodes it affects.
        self._affected: list[tuple[str, ...]] = []
        # buffer index -> bitmask of buffer indices sharing a node with it.
        self._relevant_mask: list[int] = []
        # buffer index -> frozenset of its member tensor names.
        self._member_tensors: list[frozenset[str]] = [
            frozenset(b.tensor_names) for b in buffers
        ]
        node_to_buffers: dict[str, set[int]] = {}
        for idx, buf in enumerate(buffers):
            nodes = sorted({n for t in buf.tensors for n in t.affected_nodes})
            self._affected.append(tuple(nodes))
            for n in nodes:
                node_to_buffers.setdefault(n, set()).add(idx)
        for idx in range(len(buffers)):
            mask = 0
            for n in self._affected[idx]:
                for other in node_to_buffers[n]:
                    mask |= 1 << other
            self._relevant_mask.append(mask)
        self._cache: list[dict[int, float]] = [dict() for _ in buffers]

    def _node_latency(self, node: str, onchip: frozenset[str]) -> float:
        return self._model.layer(node).latency(onchip)

    def _context_tensors(self, node: str, context_mask: int) -> set[str]:
        """Tensors of ``node`` resident on-chip under a context mask."""
        resident = set()
        for slot in self._model.layer(node).slots:
            buf_idx = self._tensor_buffer.get(slot.tensor)
            if buf_idx is not None and context_mask >> buf_idx & 1:
                resident.add(slot.tensor)
        return resident

    def node_latency_under_mask(self, node: str, context_mask: int) -> float:
        """Exact Eq. 1 latency of one node given a buffer bitmask."""
        return self._node_latency(node, frozenset(self._context_tensors(node, context_mask)))

    def _affected_union(self, indices: tuple[int, ...]) -> list[str]:
        affected: set[str] = set()
        for i in indices:
            affected.update(self._affected[i])
        return sorted(affected)

    def _delta(self, indices: tuple[int, ...], before: int, after: int) -> float:
        delta = 0.0
        for node in self._affected_union(indices):
            delta += self.node_latency_under_mask(node, after)
            delta -= self.node_latency_under_mask(node, before)
        return delta

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
        return self._delta(tuple(indices), context_mask, new_mask)

    def pair_delta(self, context_mask: int, a: int, b: int) -> float:
        """Exact latency change of adding buffers ``a`` and ``b`` together."""
        return self._delta((a, b), context_mask, (context_mask | 1 << a) | 1 << b)

    def exchange_delta(
        self, context_mask: int, incoming: tuple[int, ...], evict: list[int]
    ) -> float:
        """Exact latency change of adding ``incoming`` while evicting ``evict``."""
        trial = context_mask
        for inc in incoming:
            trial |= 1 << inc
        for out in evict:
            trial &= ~(1 << out)
        return self._delta((*incoming, *evict), context_mask, trial)

    def relevant_pair(self, a: int, b: int) -> bool:
        """Whether two buffers share a node (can be complementary)."""
        return bool(self._relevant_mask[a] >> b & 1)

    def gain(self, buffer_index: int, context_mask: int) -> float:
        """Marginal latency reduction of taking ``buffer_index``."""
        key = context_mask & self._relevant_mask[buffer_index]
        cached = self._cache[buffer_index].get(key)
        if cached is not None:
            return cached
        members = self._member_tensors[buffer_index]
        total = 0.0
        for node in self._affected[buffer_index]:
            before = frozenset(self._context_tensors(node, context_mask))
            after = frozenset(before | members)
            total += self._node_latency(node, before) - self._node_latency(node, after)
        self._cache[buffer_index][key] = total
        return total

    def total_latency(self, chosen: set[int]) -> float:
        """Exact end-to-end latency with a chosen buffer set on chip."""
        onchip = frozenset(
            name for i in chosen for name in self._buffers[i].tensor_names
        )
        model = self._model
        return sum(model.layer(name).latency(onchip) for name in model.nodes())


#: Interface index per tensor kind, in the order Eq. 1's max considers them.
_KIND_INDEX = {TensorKind.IFMAP: 0, TensorKind.WEIGHT: 1, TensorKind.OFMAP: 2}


@dataclass
class FlatTables:
    """A model's per-node slot arrays, flattened from its layer views.

    Node and tensor ids are schedule order and first-slot order; the
    all-off-chip per-kind sums accumulate each node's slots in order.
    """

    node_names: list[str]
    node_index: dict[str, int]
    compute: list[float]
    slot_kinds: list[tuple[int, ...]]
    slot_tids: list[tuple[int, ...]]
    slot_lats: list[tuple[float, ...]]
    tensor_index: dict[str, int]
    tensor_nodes: list[tuple[int, ...]]
    base_sums: list[tuple[float, float, float]]
    base_node_lat: list[float]


def flat_tables(model: LatencyModel) -> FlatTables:
    """Flatten every ``LayerLatency`` view of ``model`` into slot arrays."""
    names = model.nodes()
    tables = FlatTables(
        names, {n: i for i, n in enumerate(names)}, [], [], [], [], {}, [], [], []
    )
    tensor_nodes: list[list[int]] = []
    for ni, name in enumerate(names):
        ll = model.layer(name)
        kinds, tids, lats = [], [], []
        sums = [0.0, 0.0, 0.0]
        for slot in ll.slots:
            tid = tables.tensor_index.setdefault(slot.tensor, len(tensor_nodes))
            if tid == len(tensor_nodes):
                tensor_nodes.append([])
            if not tensor_nodes[tid] or tensor_nodes[tid][-1] != ni:
                tensor_nodes[tid].append(ni)
            kind = _KIND_INDEX[slot.kind]
            kinds.append(kind)
            tids.append(tid)
            lats.append(slot.latency)
            sums[kind] += slot.latency
        tables.compute.append(ll.compute)
        tables.slot_kinds.append(tuple(kinds))
        tables.slot_tids.append(tuple(tids))
        tables.slot_lats.append(tuple(lats))
        tables.base_sums.append((sums[0], sums[1], sums[2]))
        tables.base_node_lat.append(max(ll.compute, sums[0], sums[1], sums[2]))
    tables.tensor_nodes = [tuple(ns) for ns in tensor_nodes]
    return tables


#: Per kind (if, wt, of), the positions of the other three components
#: in ``(compute, if, wt, of)``, in that order.
_OTHERS = ((0, 2, 3), (0, 1, 3), (0, 1, 2))


def operation_rows(model: LatencyModel) -> dict[str, tuple]:
    """Each node's operation-table row, from its layer view.

    A row is ``(compute, lat_if, lat_weight, lat_of, latency,
    eq2_terms)``: the all-off-chip kind sums in slot order, the node's
    UMM latency, and each tensor's Eq. 2 term keyed by name — the
    kind's gap to the next-lower component (the first largest of the
    others below it, or 0.0), apportioned by the tensor's first slot.
    """
    rows = {}
    for name in model.nodes():
        ll = model.layer(name)
        kinds = [_KIND_INDEX[slot.kind] for slot in ll.slots]
        sums = [0.0, 0.0, 0.0]
        for k, slot in zip(kinds, ll.slots):
            sums[k] += slot.latency
        components = (ll.compute, *sums)
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
        for k, slot in zip(kinds, ll.slots):
            if slot.tensor in seen:
                continue
            seen.add(slot.tensor)
            gap = gaps[k]
            if gap is not None:
                terms[slot.tensor] = gap[1] * (slot.latency / gap[0])
        rows[name] = (ll.compute, *sums, max(ll.compute, *sums), terms)
    return rows


def evaluator_node_walks(
    model: LatencyModel, buffers: list[VirtualBuffer]
) -> dict[int, tuple[tuple, int, float]]:
    """DNNK's per-node gain analysis, node by node from the flat arrays.

    For each node some buffer touches, by schedule index: the kinds that
    can bind Eq. 1's max, in kind order, each as ``(buffer bit or 0,
    latency)`` pairs in slot order; the *live* mask of the buffer bits
    in those kinds; and the compute floor — the node's compute when no
    term is negative or NaN, else NaN.  A kind is dropped only when its
    all-off-chip sum is at most the compute and the compute and every
    kind's sum are finite.
    """
    tables = flat_tables(model)
    tid_buffer: dict[int, int] = {}
    for bi, buf in enumerate(buffers):
        for t in buf.tensors:
            tid = tables.tensor_index.get(t.name)
            if tid is not None:
                tid_buffer[tid] = bi
    touched = {
        tables.node_index[n]
        for buf in buffers
        for t in buf.tensors
        for n in t.affected_nodes
        if n in tables.node_index
    }
    walks = {}
    for ni in sorted(touched):
        compute = tables.compute[ni]
        clean = compute == compute
        full = [0.0, 0.0, 0.0]
        per_kind: tuple[list, list, list] = ([], [], [])
        for kind, tid, lat in zip(
            tables.slot_kinds[ni], tables.slot_tids[ni], tables.slot_lats[ni]
        ):
            bi = tid_buffer.get(tid)
            per_kind[kind].append((0 if bi is None else 1 << bi, lat))
            if lat >= 0.0:
                full[kind] += lat
            else:
                full[kind] = math.inf
                clean = False
        prune = max(compute, *full) < math.inf
        walk = []
        live = 0
        for terms, total in zip(per_kind, full):
            if terms and not (prune and total <= compute):
                walk.append(tuple(terms))
                for bit, _ in terms:
                    live |= bit
        walks[ni] = (tuple(walk), live, compute if clean else math.nan)
    return walks


def column_dp(
    order: list[int],
    sizes: list[int],
    units: int,
    evaluator,
) -> tuple[set[int], float]:
    """One pivot-compensated DP sweep, column by column.

    Returns the backtraced chosen set (original indices) and the DP's
    predicted total reduction, as ``dnnk._dp_pass`` does.
    """
    # L[j]: best predicted reduction using buffers processed so far within
    # capacity j.  decisions[k] is the take/skip bit per column for row k.
    best = [0.0] * (units + 1)
    decisions: list[list[bool]] = []
    # Column context: bitmask of buffers taken at each column by earlier
    # rows — the paper's pbuf_table(·, j) pivot-compensation context.
    context = [0] * (units + 1)

    for i in order:
        size = sizes[i]
        row = [False] * (units + 1)
        if size <= units:
            new_best = list(best)
            # Sweep descending so best[j - size] is still the prior row.
            for j in range(units, size - 1, -1):
                gain = evaluator.gain(i, context[j])
                take = best[j - size] + gain
                if take > best[j]:
                    new_best[j] = take
                    row[j] = True
            best = new_best
        decisions.append(row)
        for j in range(units + 1):
            if row[j]:
                context[j] |= 1 << i

    # Standard knapsack backtrace over the stored decisions.
    chosen_set: set[int] = set()
    j = units
    for k in range(len(order) - 1, -1, -1):
        if decisions[k][j]:
            chosen_set.add(order[k])
            j -= sizes[order[k]]
    return chosen_set, best[units]


@contextmanager
def naive_allocators():
    """Make DNNK and greedy decide with :class:`NaiveGainEvaluator`.

    Inside the block every allocator call — including the ones the
    passes make — evaluates gains by walking the latency model, and DNNK
    sweeps with :func:`column_dp`, so the decisions share only the
    local-search driver with the engine-backed path.  (The run-length
    sweep keys its rows on the engine evaluator's gain masks, which the
    naive evaluator does not have.)  A compile inside the block needs a
    model no compile outside it ran on: the passes answer a knapsack
    the model already solved from its memo
    (:func:`repro.lcmm.dnnk.memoised_allocation`) without allocating.
    """
    with mock.patch(
        "repro.lcmm.dnnk._EngineGainEvaluator",
        lambda engine, buffers: NaiveGainEvaluator(engine.model, buffers),
    ), mock.patch("repro.lcmm.dnnk._dp_pass", column_dp):
        yield


def exhaustive_allocate(
    buffers: list[VirtualBuffer],
    model: LatencyModel,
    capacity_bytes: int,
    max_buffers: int = 20,
    granularity: int = URAM_BYTES,
) -> DNNKResult:
    """Optimal allocation by exhaustive subset search.

    Scores every fitting subset, by ascending size, from scratch with the
    exact Eq. 1 evaluator, using the same block-granular size accounting
    as :func:`dnnk_allocate`.

    Raises:
        ValueError: If more than ``max_buffers`` buffers are given.
    """
    if len(buffers) > max_buffers:
        raise ValueError(
            f"exhaustive search limited to {max_buffers} buffers, got {len(buffers)}"
        )
    block_sizes = [
        math.ceil(b.size_bytes / granularity) * granularity for b in buffers
    ]
    baseline = model.total_latency()
    best_subset: set[int] = set()
    best_latency = baseline
    for r in range(len(buffers) + 1):
        for subset in itertools.combinations(range(len(buffers)), r):
            if sum(block_sizes[i] for i in subset) > capacity_bytes:
                continue
            onchip = frozenset(
                name for i in subset for name in buffers[i].tensor_names
            )
            latency = model.total_latency(onchip)
            if latency < best_latency - 1e-15:
                best_latency = latency
                best_subset = set(subset)
    chosen = sorted(best_subset)
    return DNNKResult(
        allocated=[buffers[i] for i in chosen],
        spilled=[b for i, b in enumerate(buffers) if i not in best_subset],
        onchip_tensors=frozenset(
            name for i in chosen for name in buffers[i].tensor_names
        ),
        predicted_reduction=baseline - best_latency,
        capacity_bytes=capacity_bytes,
        used_bytes=_block_rounded_bytes(buffers, chosen, granularity),
    )


@dataclass
class _SearchState:
    """Mutable best-so-far of the branch-and-bound DFS."""

    best_gain: float
    best_mask: int
    nodes_visited: int = 0


def branch_and_bound_allocate(
    buffers: list[VirtualBuffer],
    model: LatencyModel,
    capacity_bytes: int,
    granularity: int = URAM_BYTES,
    max_buffers: int = 40,
) -> DNNKResult:
    """Provably optimal allocation for medium instances (up to ~40 buffers).

    Depth-first search with pruning.  The bound is built from per-buffer
    gain ceilings: the marginal gain of buffer ``b`` in *any* context is
    at most the total reducible slack of the nodes it touches —
    ``sum over affected nodes n of (lat(n, nothing on-chip) - lat(n,
    every candidate on-chip))`` — because a node's latency is monotone in
    its off-chip set.  The classic fractional-knapsack relaxation over
    those ceilings is therefore a valid optimistic bound for any partial
    solution.  (A tighter "gain given all others resident" bound would be
    invalid: the gains are neither sub- nor supermodular — pinning one
    tensor can expose another interface as the binding term and shrink a
    later marginal.)

    Raises:
        ValueError: If more than ``max_buffers`` buffers are given, or on
            a negative capacity.
    """
    if len(buffers) > max_buffers:
        raise ValueError(
            f"branch-and-bound limited to {max_buffers} buffers, got {len(buffers)}"
        )
    if capacity_bytes < 0:
        raise ValueError("capacity_bytes must be non-negative")

    units = capacity_bytes // granularity
    sizes = [math.ceil(b.size_bytes / granularity) for b in buffers]
    evaluator = NaiveGainEvaluator(model, buffers)
    n = len(buffers)
    all_on = (1 << n) - 1

    # Per-buffer gain ceiling: the total reducible slack of the nodes the
    # buffer touches (valid in any context, see the docstring).
    upper = []
    for i in range(n):
        slack = 0.0
        for node in evaluator._affected[i]:
            slack += evaluator.node_latency_under_mask(node, 0)
            slack -= evaluator.node_latency_under_mask(node, all_on)
        upper.append(slack)

    # Branch in descending bound-density order so good solutions are found
    # early and the fractional bound prunes aggressively.
    order = sorted(
        range(n), key=lambda i: -(upper[i] / sizes[i] if sizes[i] else math.inf)
    )

    # Warm start from DNNK so pruning bites immediately.
    warm = dnnk_allocate(buffers, model, capacity_bytes, granularity)
    warm_mask = 0
    for i, buf in enumerate(buffers):
        if buf in warm.allocated:
            warm_mask |= 1 << i
    baseline = model.total_latency()
    warm_gain = baseline - model.total_latency(warm.onchip_tensors)
    state = _SearchState(best_gain=warm_gain, best_mask=warm_mask)

    def fractional_bound(pos: int, remaining: int) -> float:
        """Optimistic gain from buffers order[pos:] within ``remaining``."""
        bound = 0.0
        for k in range(pos, n):
            i = order[k]
            if upper[i] <= 0:
                continue
            if sizes[i] <= remaining:
                bound += upper[i]
                remaining -= sizes[i]
            else:
                bound += upper[i] * remaining / sizes[i]
                break
        return bound

    def dfs(pos: int, mask: int, gain: float, remaining: int) -> None:
        state.nodes_visited += 1
        if gain > state.best_gain + 1e-15:
            state.best_gain = gain
            state.best_mask = mask
        if pos == n:
            return
        if gain + fractional_bound(pos, remaining) <= state.best_gain + 1e-15:
            return
        i = order[pos]
        # Include branch first (density order makes it the promising one).
        if sizes[i] <= remaining:
            marginal = evaluator.gain(i, mask)
            dfs(pos + 1, mask | 1 << i, gain + marginal, remaining - sizes[i])
        dfs(pos + 1, mask, gain, remaining)

    dfs(0, 0, 0.0, units)

    chosen = [i for i in range(n) if state.best_mask >> i & 1]
    return DNNKResult(
        allocated=[buffers[i] for i in chosen],
        spilled=[b for i, b in enumerate(buffers) if not state.best_mask >> i & 1],
        onchip_tensors=frozenset(
            name for i in chosen for name in buffers[i].tensor_names
        ),
        predicted_reduction=state.best_gain,
        capacity_bytes=capacity_bytes,
        used_bytes=sum(buffers[i].size_bytes for i in chosen),
    )


def latency_reduction(
    model: LatencyModel, tensor_name: str, affected_nodes: tuple[str, ...]
) -> float:
    """Exact single-tensor latency reduction over ``affected_nodes``:
    ``sum of lat(n, nothing on chip) - lat(n, {tensor})``."""
    onchip = frozenset((tensor_name,))
    total = 0.0
    for node in affected_nodes:
        total += model.node_latency(node) - model.node_latency(node, onchip)
    return total


def onchip_hiding_capacity(
    model: LatencyModel,
    node_latencies: list[float],
    schedule: list[str],
    onchip: frozenset[str],
) -> list[float]:
    """Weight-channel idle time per node with ``onchip`` resident.

    The general form of :func:`repro.lcmm.prefetch.hiding_capacity`
    (which measures against the all-off-chip weight demand): each
    node's own weight demand is walked with ``onchip`` resident.
    """
    return [
        max(0.0, lat - model.layer(name).slot_latency(TensorKind.WEIGHT, onchip))
        for lat, name in zip(node_latencies, schedule)
    ]


def naive_residuals(
    model: LatencyModel, prefetch: PrefetchResult, onchip: frozenset[str]
) -> dict[str, float]:
    """Unhidden prefetch time per on-chip weight tensor, by a plain walk.

    Hiding windows are measured against the post-allocation node
    latencies with :func:`onchip_hiding_capacity`.
    """
    schedule = model.nodes()
    index_of = {name: idx for idx, name in enumerate(schedule)}
    latencies = [model.node_latency(name, onchip) for name in schedule]
    capacities = onchip_hiding_capacity(model, latencies, schedule, onchip)
    residuals: dict[str, float] = {}
    for node, edge in prefetch.edges.items():
        wname = weight_tensor_name(node)
        if wname not in onchip:
            continue
        start, end = index_of[edge.start], index_of[node]
        residual = max(0.0, edge.load_time - sum(capacities[start:end]))
        if residual > 0.0:
            residuals[wname] = residual
    return residuals


def naive_walk(
    result, model: LatencyModel
) -> tuple[float, dict[str, float], dict[str, float]]:
    """``(latency, node_latencies, residuals)`` of a result, re-derived.

    Rebuilds the fused model from ``fused_edges``, recomputes the
    residuals and replays Eq. 1 from the result's decisions alone, and
    replays the transfer scheduler's accept-if-improves gate when the
    result carries a timeline.
    """
    if result.fused_edges:
        model = apply_fusion(model, result.fused_edges)
    onchip, fractions = result.onchip_tensors, result.fractions
    residuals = naive_residuals(model, result.prefetch_result, onchip)
    latency = model.total_latency(onchip, residuals, fractions)
    node_latencies = {
        name: model.node_latency(name, onchip, residuals, fractions)
        for name in model.nodes()
    }
    if result.transfer_timeline is not None:
        timeline = simulate(
            model, onchip, residuals, fractions, overlap_loads=True
        )
        if timeline.makespan < latency - 1e-15:
            return timeline.makespan, timeline.node_latencies(), residuals
    return latency, node_latencies, residuals


def pairwise_interference(tensors) -> dict[str, set[str]]:
    """Interference adjacency by testing every pair of live ranges."""
    tensors = list(tensors)
    adjacency: dict[str, set[str]] = {t.name: set() for t in tensors}
    for a, b in itertools.combinations(tensors, 2):
        if a.live_range.overlaps(b.live_range):
            adjacency[a.name].add(b.name)
            adjacency[b.name].add(a.name)
    return adjacency


# ---------------------------------------------------------------------------
# Tile-granularity dataflow model
# ---------------------------------------------------------------------------
#
# Each tiled layer is decomposed into its outer iterations — for a conv
# ``ceil(M/tm) x ceil(H/th) x ceil(W/tw)``, for a GEMM or attention node
# ``ceil(M/(th*tw)) x ceil(P/tm)`` of its leading multiply.  Every
# iteration loads an input and a weight tile (unless resident), computes
# and stores an output tile; loads for iteration ``k+1`` overlap the
# compute of iteration ``k`` (double buffering), so the first loads are
# the pipeline fill the bulk model ignores.


@dataclass
class TileLevelResult:
    """Outcome of a tile-granularity layer simulation.

    Attributes:
        node: Layer simulated.
        iterations: Number of outer-loop iterations.
        total_latency: Makespan with double buffering.
        pipeline_fill: The unhidden first-load time (the term the bulk
            model ignores).
        bulk_latency: The analytical Eq. 1 latency for comparison.
    """

    node: str
    iterations: int
    total_latency: float
    pipeline_fill: float
    bulk_latency: float


def _has_tile_schedule(layer) -> bool:
    """Convs, attention and GEMMs run a multi-tile outer loop.  FC heads
    run the conv datapath as a single 1x1x1 tile and keep their bulk
    latency, as do the single-tile data-movement ops."""
    if isinstance(layer, Conv2D):
        return True
    return isinstance(layer, (Gemm, Attention)) and not getattr(
        layer, "conv_datapath", False
    )


def simulate_tiles(
    model: LatencyModel, node: str, onchip: frozenset[str] = frozenset()
) -> TileLevelResult:
    """Simulate one tiled layer at tile granularity.

    The per-interface payloads are read from the node's characterised
    slots, so the totals match the bulk model exactly and a fused
    stream (a zero-byte slot) loads in zero time.  Edge tiles are
    averaged out: for ``n`` iterations with uniform stage times the
    makespan is the classic ``fill + (n-1) * period + drain``.

    Raises:
        ValueError: If the layer has no tile-level schedule (pool,
            eltwise, norm, concat, input, conv-datapath FC).
    """
    graph, accel = model.graph, model.accel
    tile = accel.tile
    layer = graph.layer(node)
    if not _has_tile_schedule(layer):
        raise ValueError(
            f"{node!r} (kind {layer.compute_kind}) has no tile-level schedule"
        )
    if isinstance(layer, Conv2D):
        out = graph.output_shape(node)
        iterations = (
            tile.output_channel_trips(out.channels)
            * math.ceil(out.height / tile.th)
            * math.ceil(out.width / tile.tw)
        )
        macs = layer.macs(graph.input_shapes(node))
        effective = accel.array.effective_macs(out.channels, layer.in_channels)
        compute = macs / (effective * accel.frequency)
    else:
        # Attention's downstream GEMMs run out of the tile buffers: they
        # add compute time but no extra streams.
        dims = layer.gemm_dims()
        components = dims if isinstance(dims, tuple) else (dims,)
        lead = components[0]
        iterations = tile.gemm_row_trips(lead.m) * tile.gemm_output_trips(lead.p)
        cycles = sum(gemm_compute_cycles(d, accel.array, tile) for d in components)
        compute = cycles / accel.frequency

    payload = dict.fromkeys(TensorKind, 0)
    for slot in model.layer(node).slots:
        if slot.tensor not in onchip:
            payload[slot.kind] += slot.bytes
    if_t, wt_t, of_t = (
        payload[kind] / accel.interface_bandwidth(kind.value) / iterations
        for kind in (TensorKind.IFMAP, TensorKind.WEIGHT, TensorKind.OFMAP)
    )
    compute_t = compute / iterations
    load = max(if_t, wt_t)
    period = max(load, compute_t, of_t)
    return TileLevelResult(
        node=node,
        iterations=iterations,
        total_latency=load + compute_t + of_t + (iterations - 1) * period,
        pipeline_fill=load,
        bulk_latency=model.layer(node).latency(onchip),
    )


def network_tile_latency(
    model: LatencyModel, onchip: frozenset[str] = frozenset()
) -> float:
    """End-to-end latency with tiled layers at tile granularity; the
    single-tile layers keep their bulk latencies."""
    return sum(
        simulate_tiles(model, node, onchip).total_latency
        if _has_tile_schedule(model.graph.layer(node))
        else model.layer(node).latency(onchip)
        for node in model.nodes()
    )


def roofline_floor(model: LatencyModel) -> float:
    """The UMM latency floor of a model's design, walked over its nodes.

    A node whose terms depend on the tile (conv, depthwise, systolic
    GEMM, attention) streams every tensor once and runs each GEMM in a
    single tile with one pipeline fill; every other node keeps its UMM
    latency.  The nodes combine their terms as Eq. 1 does and sum in
    schedule order — the floor ``FloorTable.floor`` must equal bit for
    bit.
    """
    graph, accel = model.graph, model.accel
    elem = accel.precision.bytes

    def transfer(num_bytes: int, kind: str) -> float:
        return num_bytes / accel.interface_bandwidth(kind) if num_bytes else 0.0

    total = 0.0
    for name in model.nodes():
        node = model.layer(name)
        layer = graph.layer(name)
        kind = layer.compute_kind
        if kind is ComputeKind.GEMM and layer.conv_datapath:
            kind = None  # the FC head: one pass over every tensor at any tile
        if kind not in _TILED_KINDS:
            total += node.latency()
            continue
        compute = node.compute
        if kind in (ComputeKind.GEMM, ComputeKind.ATTENTION):
            dims = layer.gemm_dims()
            cycles = 0
            for gemm in (dims,) if isinstance(dims, GemmDims) else dims:
                cycles += gemm_cycles_lower_bound(gemm, accel.array)
            compute = cycles / accel.frequency
        if_lat = 0.0
        for slot in node.slots[:-2]:  # (if..., wt, of)
            producer = slot.tensor.partition(":")[2]
            if_lat += transfer(graph.output_shape(producer).volume * elem, "if")
        wt_lat = transfer(layer.weight_shape.volume * elem, "wt")
        total += max(compute, if_lat, wt_lat, node.slots[-1].latency)
    return total


#: Compute kinds whose latency terms depend on the tile.
_TILED_KINDS = (
    ComputeKind.CONV,
    ComputeKind.DEPTHWISE,
    ComputeKind.GEMM,
    ComputeKind.ATTENTION,
)
