"""The DDR timeline: one walk of the schedule against three DMA channels.

Eq. 1 is *bulk-synchronous*: a node's transfers overlap its own compute
and nothing else, so a node costs ``max(compute, if, wt, of)``.
:func:`simulate` plays the schedule one transfer at a time (SoMa-style)
instead.  Each DDR interface (if / wt / of) is a **channel** moving one
stream at a time at its bandwidth.  Node ``i`` computes once node
``i-1`` is done and is done once its compute and streams are.  Its
stores start with its compute; its loads too (the *bulk* policy) or,
with ``overlap_loads``, as early as node ``i-1``'s start (the one-deep
**load window** the ping-pong tile buffers provide).

An on-chip weight costs its unhidden ``residuals`` seconds on its slot,
or, given ``prefetch``, a background PDG load issued when its start node
begins.  Demand streams have channel priority, prefetches take only the
weight channel's idle tail of each node, and a node whose prefetch is
unfinished stalls until it lands: the contention Eq. 1 ignores.

Guarantees (property-tested in ``tests/test_sim_schedule.py``):
**conservation** (records move exactly :func:`demand_bytes`),
**capacity** (per channel, records never overlap nor beat the
bandwidth) and **monotonicity** (under the load window the makespan
never exceeds Eq. 1: by induction node ``j``'s loads start no earlier
than ``t_{j-1}`` on a channel free by ``t_j``, so every stream ends by
``t_j + L_j``).  Under the bulk policy without prefetch, every node
spans its Eq.-1 latency.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import AllocationError, ConfigError
from repro.ir.tensor import TensorKind, weight_tensor_name
from repro.lcmm.prefetch import PrefetchResult
from repro.obs.spans import span as obs_span
from repro.perf.latency import LatencyModel

_KINDS = (TensorKind.IFMAP, TensorKind.WEIGHT, TensorKind.OFMAP)


class EventKind(str, enum.Enum):
    """What happened at a timeline event."""

    NODE_START = "node_start"
    NODE_END = "node_end"
    TRANSFER = "transfer"
    PREFETCH_START = "prefetch_start"
    PREFETCH_END = "prefetch_end"
    STALL = "stall"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class TimelineEvent:
    """One event on the simulated timeline: ``kind`` happened to ``node``
    at ``time`` seconds.  ``detail`` annotates it (interface, stall
    cause) and span-like events (transfers, stalls) carry a duration."""

    time: float
    kind: EventKind
    node: str
    detail: str = ""
    duration: float = 0.0

    def __str__(self) -> str:
        span = f" (+{self.duration * 1e6:.1f}us)" if self.duration else ""
        note = f" [{self.detail}]" if self.detail else ""
        return f"{self.time * 1e3:9.4f}ms {self.kind}:{self.node}{note}{span}"


@dataclass(frozen=True)
class TransferRecord:
    """One DMA stream on one channel: ``bytes`` of ``tensor`` for
    ``node``, occupying the channel for ``duration`` seconds from
    ``start`` (0 bytes when a resident weight pays only its residual)."""

    node: str
    kind: TensorKind
    tensor: str
    bytes: int
    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class Timeline:
    """One simulated inference.

    Attributes:
        records: Every demand stream, in schedule order.
        node_spans: Per node ``(start, end)`` of its execution window.
        makespan: End-to-end latency of the simulated execution.
        baseline: The Eq.-1 total for the same ``(onchip, residuals,
            fractions)``.
        stall_time: Total time nodes waited for unfinished prefetches.
        prefetch_busy: Weight-channel seconds spent on prefetches.
        prefetch_events: The prefetch start/end and stall events.
    """

    records: tuple[TransferRecord, ...]
    node_spans: dict[str, tuple[float, float]]
    makespan: float
    baseline: float
    stall_time: float = 0.0
    prefetch_busy: float = 0.0
    prefetch_events: tuple[TimelineEvent, ...] = field(default=(), repr=False)

    @property
    def total_bytes(self) -> int:
        """Bytes moved over all channels (conserved vs the demand)."""
        return sum(r.bytes for r in self.records)

    @property
    def improvement(self) -> float:
        """Seconds saved vs the bulk-synchronous Eq.-1 timeline."""
        return self.baseline - self.makespan

    def node_latencies(self) -> dict[str, float]:
        """Per-node wall-clock residence on the timeline."""
        return {n: end - start for n, (start, end) in self.node_spans.items()}

    def channel_records(self, kind: TensorKind) -> list[TransferRecord]:
        """Records of one channel, in start order."""
        return sorted(
            (r for r in self.records if r.kind is kind), key=lambda r: r.start
        )

    @property
    def channel_busy(self) -> dict[str, float]:
        """Busy seconds per interface (``"if"``/``"wt"``/``"of"``)."""
        busy = {kind.value: 0.0 for kind in _KINDS}
        for r in self.records:
            busy[r.kind.value] += r.duration
        busy[TensorKind.WEIGHT.value] += self.prefetch_busy
        return busy

    def channel_utilization(self, kind: str) -> float:
        """Busy fraction of one interface over the whole run."""
        if self.makespan <= 0:
            return 0.0
        return self.channel_busy[kind] / self.makespan

    @property
    def events(self) -> list[TimelineEvent]:
        """The full event timeline, time-ordered."""
        events = list(self.prefetch_events)
        records = iter(self.records)
        record = next(records, None)
        for node, (start, end) in self.node_spans.items():
            events.append(TimelineEvent(start, EventKind.NODE_START, node))
            while record is not None and record.node == node:
                events.append(TimelineEvent(
                    record.start, EventKind.TRANSFER, node,
                    record.kind.value, record.duration,
                ))
                record = next(records, None)
            events.append(TimelineEvent(end, EventKind.NODE_END, node))
        events.sort(key=lambda e: e.time)
        return events


def _effective(
    tensor: str, num_bytes: int, latency: float, onchip, residuals, fractions
) -> tuple[int, float]:
    """(bytes, seconds) a slot of ``tensor`` occupies under an allocation;
    mirrors :meth:`repro.perf.node_table.LayerLatency.slot_latency` bit for bit."""
    if tensor in onchip:
        residual = residuals.get(tensor, 0.0) if residuals else 0.0
        return 0, residual
    if fractions and tensor in fractions:
        keep = 1.0 - fractions[tensor]
        return round(num_bytes * keep), latency * keep
    return num_bytes, latency


def demand_bytes(
    model: LatencyModel,
    onchip: frozenset[str] = frozenset(),
    residuals: dict[str, float] | None = None,
    fractions: dict[str, float] | None = None,
) -> int:
    """Total DDR bytes one inference demands under an allocation."""
    table = model.node_table
    names = table.tensor_names
    return sum(
        _effective(names[tid], num_bytes, lat, onchip, residuals, fractions)[0]
        for tids, byte_counts, lats in zip(table.tids, table.bytes, table.lats)
        for tid, num_bytes, lat in zip(tids, byte_counts, lats)
    )


def simulate(
    model: LatencyModel,
    onchip: frozenset[str] = frozenset(),
    residuals: dict[str, float] | None = None,
    fractions: dict[str, float] | None = None,
    prefetch: PrefetchResult | None = None,
    *,
    overlap_loads: bool = False,
) -> Timeline:
    """Walk one inference under an allocation against the DDR channels.

    Args:
        model: Characterised latency model (fused or plain).
        onchip: Tensor values fully resident on chip (empty = UMM).
        residuals: Unhidden prefetch seconds per on-chip weight tensor.
        fractions: Partial residency per tensor.
        prefetch: Load the on-chip weights as background PDG traffic.
        overlap_loads: Start a node's loads at its predecessor's start.

    Raises:
        ConfigError: If ``prefetch`` comes with ``residuals`` (the same
            unhidden load, counted twice) or ``overlap_loads`` (early
            loads would claim the idle time prefetches drain into).
        AllocationError: If ``prefetch`` has no edge for an on-chip
            weight, so nothing would ever load it.
    """
    if prefetch is not None and (residuals is not None or overlap_loads):
        raise ConfigError("prefetch cannot be combined with residuals or overlap_loads")
    with obs_span(
        "sim.simulate", graph=model.graph.name, onchip=len(onchip)
    ) as sim_span:
        issue_at: dict[str, list[tuple[str, float]]] = {}  # by start node
        prefetched: set[str] = set()
        if prefetch is not None:
            for node, edge in prefetch.edges.items():
                if weight_tensor_name(node) in onchip:
                    issue_at.setdefault(edge.start, []).append((node, edge.load_time))
                    prefetched.add(node)
            unloaded = sorted(
                s.tensor for s in model.slots() if s.kind is TensorKind.WEIGHT
                and s.tensor in onchip and s.node not in prefetched
            )
            if unloaded:
                raise AllocationError(f"no prefetch edge loads {unloaded}")

        free = dict.fromkeys(_KINDS, 0.0)
        records: list[TransferRecord] = []
        node_spans: dict[str, tuple[float, float]] = {}
        prefetch_events: list[TimelineEvent] = []
        ready: set[str] = set()
        outstanding: list[list] = []  # FIFO of [node, remaining seconds]
        stall_time = prefetch_busy = 0.0
        clock = window = 0.0  # the predecessor's end and start

        def drain(begin: float, end: float) -> None:
            """Give the weight channel's idle ``[begin, end)`` to prefetches."""
            nonlocal prefetch_busy
            idle = end - begin
            while outstanding and idle > 1e-18:
                entry = outstanding[0]
                served = min(idle, entry[1])
                entry[1] -= served
                idle -= served
                prefetch_busy += served
                if entry[1] <= 1e-18:
                    ready.add(entry[0])
                    prefetch_events.append(TimelineEvent(
                        end - idle, EventKind.PREFETCH_END, entry[0], "wt"
                    ))
                    outstanding.pop(0)

        table = model.node_table
        tensor_names = table.tensor_names
        for ni, name in enumerate(table.names):
            for target, load_time in issue_at.get(name, ()):
                outstanding.append([target, load_time])
                prefetch_events.append(TimelineEvent(
                    clock, EventKind.PREFETCH_START, target, "wt", load_time
                ))
            # Stall until this node's weights land; the idle channel
            # drains everything queued up to them at full rate.
            start = clock
            if name in prefetched and name not in ready:
                wait = 0.0
                for target, remaining in outstanding:
                    wait += remaining
                    if target == name:
                        break
                prefetch_events.append(TimelineEvent(
                    start, EventKind.STALL, name, "await-prefetch", wait
                ))
                sim_span.annotate("sim.stall", node=name, wait=wait)
                stall_time += wait
                drain(start, start + wait)
                start += wait

            load_start = window if overlap_loads else start
            end = start + table.compute[ni]
            for k, tid, slot_bytes, lat in zip(
                table.kinds[ni], table.tids[ni], table.bytes[ni], table.lats[ni]
            ):
                tensor = tensor_names[tid]
                num_bytes, duration = _effective(
                    tensor, slot_bytes, lat, onchip, residuals, fractions
                )
                if num_bytes == 0 and duration == 0.0:
                    continue
                kind = _KINDS[k]
                earliest = start if kind is TensorKind.OFMAP else load_start
                begin = max(free[kind], earliest)
                free[kind] = finish = begin + duration
                records.append(TransferRecord(
                    name, kind, tensor, num_bytes, begin, duration
                ))
                end = max(end, finish)
            if outstanding:
                drain(max(start, free[TensorKind.WEIGHT]), end)
            node_spans[name] = (start, end)
            window, clock = start, end

        sim_span.annotate("sim.result", makespan=clock, stall=stall_time)
    return Timeline(
        records=tuple(records),
        node_spans=node_spans,
        makespan=clock,
        baseline=model.total_latency(onchip, residuals, fractions),
        stall_time=stall_time,
        prefetch_busy=prefetch_busy,
        prefetch_events=tuple(prefetch_events),
    )
