"""Incremental allocation-evaluation engine for the LCMM hot path.

Every LCMM decision — the DNNK dynamic program, local-search refinement,
buffer splitting, fractional fill — bottoms out in
re-evaluating Eq. 1 latencies.  The naive route walks every node and every
slot per query (``LatencyModel.total_latency``) and rebuilds frozensets of
resident tensors on the way, so one candidate evaluation costs
O(nodes x slots).  This module reads the model's flat per-node arrays
(its :class:`~repro.perf.node_table.NodeTable`, built once when the model
characterises its design) and maintains a mutable resident-set with
cached per-node latencies, so a state change costs O(slots of the
affected nodes) and a total query costs O(nodes).

Exactness contract
------------------
The engine is *bit-for-bit* equivalent to the naive route, not merely
close: a cached node latency is recomputed by iterating the node's slots
in their original order and accumulating the three per-kind interface sums
exactly as ``LayerLatency.slot_latency`` does, and ``total()`` re-sums the
cached per-node latencies in schedule order exactly as
``LatencyModel.total_latency`` does.  No incremental float accumulation is
ever trusted for a value the naive route would compute differently —
incrementality buys the *selection* of what to recompute, never a
different arithmetic.  This is what lets the test suite check every
engine-backed result against a plain latency-model walk bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.perf.latency import LatencyModel
from repro.robustness.inject import declare_fault_point, fault_point

declare_fault_point(
    "engine.set_state", "absolute state jump of the incremental engine"
)

@dataclass
class EngineStats:
    """Observability counters for the evaluation engine.

    Attributes:
        node_evaluations: Per-node latency recomputations (the O(slots)
            unit of work).
        full_rescores: Whole-graph evaluations (engine construction and
            explicit full re-sums).
        applies: Incremental ``apply``/``set_state`` transitions.
        undos: State transitions rolled back.
        gain_cache_hits: DNNK gain queries answered from the memo.
        gain_cache_misses: DNNK gain queries that recomputed node latencies.
        pass_seconds: Wall time per framework pass, keyed by pass name.
    """

    node_evaluations: int = 0
    full_rescores: int = 0
    applies: int = 0
    undos: int = 0
    gain_cache_hits: int = 0
    gain_cache_misses: int = 0
    pass_seconds: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-friendly view (used by the CLI and benchmarks)."""
        return {
            "node_evaluations": self.node_evaluations,
            "full_rescores": self.full_rescores,
            "applies": self.applies,
            "undos": self.undos,
            "gain_cache_hits": self.gain_cache_hits,
            "gain_cache_misses": self.gain_cache_misses,
            "pass_seconds": dict(self.pass_seconds),
        }

    def publish(self, registry, **labels) -> None:
        """Mirror the counters into a :class:`repro.obs.MetricsRegistry`.

        Called once per compilation at run granularity (never from the
        engine's hot loop), so the per-transition counters stay plain
        integer increments and the metrics layer costs nothing unless a
        run is being observed.
        """
        for name, value in (
            ("engine.node_evaluations", self.node_evaluations),
            ("engine.full_rescores", self.full_rescores),
            ("engine.applies", self.applies),
            ("engine.undos", self.undos),
            ("engine.gain_cache_hits", self.gain_cache_hits),
            ("engine.gain_cache_misses", self.gain_cache_misses),
        ):
            registry.counter(name).inc(value, **labels)
        timer = registry.histogram(
            "engine.pass_seconds", "wall seconds per framework pass"
        )
        for pass_name, seconds in self.pass_seconds.items():
            timer.observe(seconds, **dict(labels, pass_name=pass_name))


class AllocationEngine:
    """Incrementally-updated allocation state over a :class:`LatencyModel`.

    The engine reads the model's :class:`~repro.perf.node_table.NodeTable`:
    the interned tensor ids, each node's parallel ``(kind, tensor-id,
    latency)`` slot arrays, the all-off-chip per-kind sums and node
    latencies, and the tensor -> nodes adjacency, so a state change only
    revisits the nodes it can affect.  Every engine of one model shares
    that table and allocates only its mutable state.  Mutable state per
    tensor mirrors
    the three allocation inputs of ``LatencyModel.total_latency``: fully
    resident (``onchip``), resident with an unhidden prefetch residual,
    and fractionally pinned.

    Args:
        model: The latency model to evaluate.  The engine never mutates it.
        stats: Optional shared stats sink; a fresh one is created if absent.
    """

    def __init__(self, model: LatencyModel, stats: EngineStats | None = None) -> None:
        self.model = model
        self.stats = stats if stats is not None else EngineStats()

        table = model.node_table
        if not table.charged:
            # The first engine of a model counts the characterisation's
            # node walk; later engines walk nothing at construction, so
            # ``node_evaluations`` and ``full_rescores`` stay a count of
            # walks actually made.
            table.charged = True
            self.stats.node_evaluations += len(table.names)
            self.stats.full_rescores += 1
        self.node_names = table.names
        self.node_index = table.index
        self.compute = table.compute
        self.slot_kinds = table.kinds
        self.slot_tids = table.tids
        self.slot_lats = table.lats
        self.tensor_index = table.tensor_index
        self.tensor_nodes = table.tensor_nodes
        #: Immutable all-off-chip node latencies (the UMM decomposition).
        self.base_node_lat = table.umm
        n_tensors = len(self.tensor_nodes)

        # Mutable allocation state per interned tensor.
        self._resident = bytearray(n_tensors)
        self._residual = [0.0] * n_tensors
        self._has_frac = bytearray(n_tensors)
        self._frac = [0.0] * n_tensors
        #: Tensors whose state differs from the all-off-chip default.
        self._dirty: set[int] = set()

        # Cached per-node results under the current state.
        self._node_lat = list(table.umm)
        self._node_sums = list(table.sums)

        self._undo_stack: list[tuple[list, list]] = []

    # ------------------------------------------------------------------
    # Core recomputation (the only place slot arrays are walked)
    # ------------------------------------------------------------------
    def _recompute_node(self, ni: int) -> None:
        """Recompute one node's per-kind sums and cached latency.

        Mirrors ``LayerLatency.latency`` exactly: each interface sum
        accumulates the node's slots in their original order, so the
        result is bit-for-bit what ``LayerLatency.latency`` returns.
        """
        resident = self._resident
        residual = self._residual
        has_frac = self._has_frac
        frac = self._frac
        s0 = s1 = s2 = 0.0
        for kind, tid, lat in zip(
            self.slot_kinds[ni], self.slot_tids[ni], self.slot_lats[ni]
        ):
            if resident[tid]:
                value = residual[tid]
                if value == 0.0:
                    continue
            elif has_frac[tid]:
                value = lat * (1.0 - frac[tid])
            else:
                value = lat
            if kind == 0:
                s0 += value
            elif kind == 1:
                s1 += value
            else:
                s2 += value
        self._node_sums[ni] = (s0, s1, s2)
        self._node_lat[ni] = max(self.compute[ni], s0, s1, s2)
        self.stats.node_evaluations += 1

    # ------------------------------------------------------------------
    # State transitions
    # ------------------------------------------------------------------
    def _snapshot(self, tid: int) -> tuple:
        return (
            tid,
            self._resident[tid],
            self._residual[tid],
            self._has_frac[tid],
            self._frac[tid],
        )

    def _restore(self, snap: tuple) -> None:
        tid, res, residual, hasf, frac = snap
        self._resident[tid] = res
        self._residual[tid] = residual
        self._has_frac[tid] = hasf
        self._frac[tid] = frac
        if res or residual or hasf:
            self._dirty.add(tid)
        else:
            self._dirty.discard(tid)

    def _apply_tensor(
        self,
        tid: int,
        resident: bool,
        residual: float,
        fraction: float | None,
    ) -> bool:
        """Set one tensor's full state; returns whether anything changed."""
        hasf = fraction is not None
        frac = fraction if hasf else 0.0
        if (
            bool(self._resident[tid]) == resident
            and self._residual[tid] == residual
            and bool(self._has_frac[tid]) == hasf
            and self._frac[tid] == frac
        ):
            return False
        self._resident[tid] = 1 if resident else 0
        self._residual[tid] = residual
        self._has_frac[tid] = 1 if hasf else 0
        self._frac[tid] = frac
        if resident or residual or hasf:
            self._dirty.add(tid)
        else:
            self._dirty.discard(tid)
        return True

    def _transition(self, changes: Iterable[tuple[int, bool, float, float | None]]) -> float:
        """Apply per-tensor changes, recompute affected nodes, push undo.

        Returns the summed latency delta over the affected nodes (the
        per-node differences, accumulated in schedule order).
        """
        tensor_snaps: list[tuple] = []
        affected: set[int] = set()
        for tid, resident, residual, fraction in changes:
            snap = self._snapshot(tid)
            if self._apply_tensor(tid, resident, residual, fraction):
                tensor_snaps.append(snap)
                affected.update(self.tensor_nodes[tid])
            # else: no-op change; nothing recorded.
        node_snaps: list[tuple] = []
        delta = 0.0
        for ni in sorted(affected):
            old_lat = self._node_lat[ni]
            node_snaps.append((ni, old_lat, self._node_sums[ni]))
            self._recompute_node(ni)
            delta += self._node_lat[ni] - old_lat
        self._undo_stack.append((tensor_snaps, node_snaps))
        self.stats.applies += 1
        return delta

    def apply(
        self,
        add: Iterable[str] = (),
        drop: Iterable[str] = (),
        residuals: Mapping[str, float] | None = None,
        fractions: Mapping[str, float] | None = None,
    ) -> float:
        """Incrementally mutate the allocation state; undoable.

        Args:
            add: Tensor names to pin fully on chip (residual defaults to
                the tensor's current residual, normally 0).
            drop: Tensor names to move back off chip.
            residuals: Residual seconds to set for (resident) tensors.
            fractions: Partial-residency fractions to set for off-chip
                tensors.

        Returns:
            The latency delta over affected nodes (negative = faster).
            Unknown tensor names are ignored, matching the latency
            model's set-membership semantics.
        """
        changes: list[tuple[int, bool, float, float | None]] = []
        index = self.tensor_index
        for name in add:
            tid = index.get(name)
            if tid is not None:
                changes.append((tid, True, self._residual[tid], None))
        for name in drop:
            tid = index.get(name)
            if tid is not None:
                changes.append((tid, False, 0.0, None))
        if residuals:
            for name, value in residuals.items():
                tid = index.get(name)
                if tid is not None:
                    changes.append((tid, True, value, None))
        if fractions:
            for name, value in fractions.items():
                tid = index.get(name)
                if tid is not None and not self._resident[tid]:
                    changes.append((tid, False, 0.0, value))
        return self._transition(changes)

    def undo(self) -> float:
        """Roll back the most recent ``apply``/``set_state`` transition.

        Restores the saved per-node latencies directly (no recomputation),
        so the cached values remain bit-identical to a fresh evaluation.

        Returns:
            The latency delta of the rollback over the affected nodes.
        """
        if not self._undo_stack:
            raise RuntimeError("undo() with no transition to roll back")
        tensor_snaps, node_snaps = self._undo_stack.pop()
        # One transition may change the same tensor more than once (e.g.
        # an add followed by a residual); unwind the layered snapshots in
        # reverse so the first one — the true prior state — lands last.
        for snap in reversed(tensor_snaps):
            self._restore(snap)
        delta = 0.0
        for ni, old_lat, old_sums in node_snaps:
            delta += old_lat - self._node_lat[ni]
            self._node_lat[ni] = old_lat
            self._node_sums[ni] = old_sums
        self.stats.undos += 1
        return delta

    def set_state(
        self,
        onchip: Iterable[str] = frozenset(),
        residuals: Mapping[str, float] | None = None,
        fractions: Mapping[str, float] | None = None,
    ) -> float:
        """Jump to an absolute allocation state (diffed incrementally).

        Tensors not named revert to off-chip with no residual/fraction.
        Only the nodes of tensors whose state actually changes are
        recomputed.  Unlike :meth:`apply`, a jump is a barrier: it clears
        the undo stack, since callers use it to reset between candidate
        allocations, never to roll back.

        Returns:
            The latency delta of the jump.
        """
        fault_point("engine.set_state")
        index = self.tensor_index
        target: dict[int, tuple[bool, float, float | None]] = {}
        for name in onchip:
            tid = index.get(name)
            if tid is not None:
                target[tid] = (True, 0.0, None)
        if residuals:
            for name, value in residuals.items():
                tid = index.get(name)
                if tid is not None and tid in target:
                    # Residuals only apply to resident tensors, exactly as
                    # LayerLatency.slot_latency consults them.
                    target[tid] = (True, value, None)
        if fractions:
            for name, value in fractions.items():
                tid = index.get(name)
                if tid is not None and tid not in target:
                    target[tid] = (False, 0.0, value)
        changes: list[tuple[int, bool, float, float | None]] = []
        for tid in self._dirty - set(target):
            changes.append((tid, False, 0.0, None))
        for tid, (resident, residual, fraction) in target.items():
            changes.append((tid, resident, residual, fraction))
        delta = self._transition(changes)
        self._undo_stack.clear()
        return delta

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def total(self) -> float:
        """End-to-end latency under the current state.

        Re-sums the cached per-node latencies in schedule order, which is
        bit-for-bit what ``LatencyModel.total_latency`` computes for the
        same state.
        """
        return sum(self._node_lat)

    def node_latency(self, name: str) -> float:
        """Cached Eq. 1 latency of one node under the current state."""
        return self._node_lat[self.node_index[name]]

    def node_latency_list(self) -> list[float]:
        """Cached per-node latencies in schedule order."""
        return list(self._node_lat)

    def node_latencies(self) -> dict[str, float]:
        """Cached per-node latencies keyed by node name."""
        return dict(zip(self.node_names, self._node_lat))

    def weight_demand(self, ni: int) -> float:
        """Current weight-interface sum of one node (by schedule index).

        Equals ``LayerLatency.slot_latency(TensorKind.WEIGHT, ...)`` under
        the current state — the demand term of the prefetch hiding
        capacity.
        """
        return self._node_sums[ni][1]

    def onchip(self) -> frozenset[str]:
        """Tensor values currently fully resident."""
        names = []
        for name, tid in self.tensor_index.items():
            if self._resident[tid]:
                names.append(name)
        return frozenset(names)
