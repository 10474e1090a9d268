"""Multi-die layer-pipelined partitioning with an inter-die link model.

ROADMAP item 5 — the scale-out axis.  The network is partitioned into
``k`` contiguous stages, one per FPGA **die**, arranged as a linear
daisy-chain pipeline (AutoWS's deployment model for weight-streamed
transformers; TGPA's for heterogeneous CNN stages):

* every die is a *whole* device: it keeps its own SRAM budget, its own
  DDR channels and (by default) the full systolic array of the base
  design point — compute and memory genuinely scale with the die count,
  unlike the single-chip fabric-division of :mod:`repro.perf.pipeline`;
* stage-boundary feature tensors are **not free**: they cross the
  inter-die link at a configurable per-link bandwidth.  A tensor
  consumed two stages downstream physically traverses every link in
  between (store-and-forward on the chain), so each cut's traffic is the
  classic edge-cut of the dataflow graph at that schedule position;
* per-die LCMM runs on a **stage subgraph** containing only the stage's
  own nodes (boundary inputs become proxy input layers), so a die can
  only spend its SRAM on tensors its own nodes live with — the
  whole-graph over-approximation of the single-chip sketch cannot
  happen by construction;
* stage boundaries are chosen by a dynamic program over true per-stage
  costs *including* link time: ``cost(i, j) = max(sum of node
  latencies, receive time at cut i, send time at cut j)`` — the Eq.-1
  ``max(compute, transfer)`` shape lifted to the stage level, since the
  link streams while the die computes;
* steady-state batch throughput integrates with
  :mod:`repro.perf.batching`: persistent per-die weight buffers pay
  their prefetch once, so the pipeline period is the slowest stage's
  *steady* latency including its link time.

Degradation: the requested die count clamps to ``[1, min(8, layers)]``;
with the link model off (``link=None``) or when the partitioned design
does not beat the single-die baseline, the result falls back to the
single-die compilation (accept-if-improves, the PR-9 pass idiom).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.ir.graph import ComputationGraph
from repro.ir.layer import InputLayer, OpType
from repro.ir.tensor import feature_tensor_name
from repro.lcmm.framework import LCMMOptions, LCMMResult, run_lcmm
from repro.perf.batching import BatchResult, persistent_weight_tensors
from repro.perf.latency import LatencyModel
from repro.perf.systolic import AcceleratorConfig

__all__ = [
    "MAX_DEVICES",
    "InterDieLink",
    "DieStage",
    "PartitionResult",
    "cut_traffic_bytes",
    "design_partition",
    "partition_batched_latency",
    "stage_subgraph",
    "throughput_balanced_cuts",
]

#: Hard ceiling on the pipeline depth — the largest multi-FPGA chain the
#: deployment model targets; requests above it clamp (and report it).
MAX_DEVICES = 8


@dataclass(frozen=True)
class InterDieLink:
    """One direction of the serial link between neighbouring dies.

    Attributes:
        gbps: Raw link bandwidth in GB/s (1 GB = 1e9 bytes) — e.g. 12.5
            for a 100 GbE chain, ~30 for an Aurora quad.
        efficiency: Fraction of the raw bandwidth sustained after
            protocol framing/flow-control overheads.
    """

    gbps: float
    efficiency: float = 1.0

    def __post_init__(self) -> None:
        if self.gbps <= 0:
            raise ValueError(f"link bandwidth must be positive, got {self.gbps}")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("link efficiency must be in (0, 1]")

    @property
    def bytes_per_second(self) -> float:
        """Sustained bandwidth in bytes/second."""
        return self.gbps * 1e9 * self.efficiency

    def latency(self, num_bytes: int | float) -> float:
        """Seconds to move ``num_bytes`` across the link."""
        if num_bytes <= 0:
            return 0.0
        return num_bytes / self.bytes_per_second


def cut_traffic_bytes(graph: ComputationGraph, element_bytes: int) -> list[int]:
    """Bytes crossing every cut position of the compute schedule.

    Entry ``c`` is the feature-tensor traffic over a stage boundary
    placed *before* schedule index ``c``: every tensor produced at an
    index ``< c`` (the input image counts as index ``-1``: it enters at
    die 0) with a consumer at an index ``>= c``.  On a daisy-chain a
    tensor consumed several stages downstream is forwarded hop by hop,
    so it contributes to every cut it spans — this is exactly the
    per-link traffic, pass-through included.

    Entries 0 and ``n`` are always zero: host input and network output
    move through die DDR, not over an inter-die link (they are already
    charged as ordinary if/of slots of the latency model).
    """
    schedule = graph.compute_schedule()
    index = {name: i for i, name in enumerate(schedule)}
    traffic = [0] * (len(schedule) + 1)
    for tensor in graph.feature_tensors():
        producer_idx = index.get(tensor.producer, -1)
        consumer_idxs = [index[c] for c in tensor.consumers if c in index]
        if not consumer_idxs:
            continue
        last = max(consumer_idxs)
        num_bytes = tensor.bytes(element_bytes)
        # Range-add over the spanned cuts (producer_idx, last].
        for cut in range(max(producer_idx + 1, 1), min(last + 1, len(schedule))):
            traffic[cut] += num_bytes
    return traffic


def throughput_balanced_cuts(
    weights: list[float],
    cut_seconds: list[float],
    k: int,
) -> list[int]:
    """Optimal contiguous ``k``-partition under the linked-stage cost.

    Minimises the pipeline bottleneck where stage ``[i, j)`` costs
    ``max(sum(weights[i:j]), cut_seconds[i], cut_seconds[j])`` — compute
    overlapped with the stage's receive and send streams (the Eq.-1
    shape at stage granularity).  It sees the link time a candidate
    boundary would create, so it will shift a cut off a fat feature map
    onto a thin one even at the price of slightly less balanced compute;
    with all-zero ``cut_seconds`` it is the classic balanced partition.
    Among bottleneck-optimal partitions it returns one with the least
    sum of squared stage costs, so slack spreads evenly over the stages.

    Args:
        weights: Per-node latencies, in schedule order (length ``n``).
        cut_seconds: Link seconds per cut position (length ``n + 1``;
            entries 0 and ``n`` must be 0).
        k: Stage count, ``1 <= k <= n``.

    Returns:
        Exactly ``k - 1`` strictly increasing cut indices in ``(0, n)``.

    Raises:
        ValueError: On an infeasible ``k`` or mismatched inputs.
    """
    n = len(weights)
    if not 1 <= k <= n:
        raise ValueError(f"cannot split {n} items into {k} runs")
    if len(cut_seconds) != n + 1:
        raise ValueError("cut_seconds must have one entry per cut position")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")

    prefix = [0.0]
    for w in weights:
        prefix.append(prefix[-1] + w)

    def stage_cost(i: int, j: int) -> float:
        return max(prefix[j] - prefix[i], cut_seconds[i], cut_seconds[j])

    inf = float("inf")

    def solve(fold, cap: float) -> tuple[float, list[list[int]]]:
        # dp[j] = best folded cost of the first j items in s stages,
        # using only stages that cost at most ``cap``.
        dp = [0.0] + [inf] * n
        choice: list[list[int]] = []
        for s in range(1, k + 1):
            nxt = [inf] * (n + 1)
            arg = [0] * (n + 1)
            # Stage s covers (i, j]; previous stages cover the first i items.
            lo_j = s  # each stage is non-empty
            hi_j = n - (k - s)  # leave room for the remaining stages
            for j in range(lo_j, hi_j + 1):
                best, best_i = inf, -1
                for i in range(s - 1, j):
                    if dp[i] >= best:  # folding never lowers the prefix
                        continue
                    cost = stage_cost(i, j)
                    if cost > cap:
                        continue
                    value = fold(dp[i], cost)
                    if value < best:
                        best, best_i = value, i
                nxt[j], arg[j] = best, best_i
            dp = nxt
            choice.append(arg)
        return dp[n], choice

    bottleneck, _ = solve(max, inf)
    # Among the bottleneck-optimal partitions, the least sum of squared
    # stage costs spreads the slack evenly instead of leaving 1-node
    # stages in front of full ones.  ``bottleneck`` is a ``stage_cost``
    # value, so the cap admits the optimum exactly.
    _, choice = solve(lambda acc, cost: acc + cost * cost, bottleneck)
    cuts: list[int] = []
    j = n
    for s in range(k, 1, -1):
        j = choice[s - 1][j]
        cuts.append(j)
    cuts.reverse()
    return cuts


def stage_subgraph(
    graph: ComputationGraph, stage_nodes: list[str], index: int
) -> ComputationGraph:
    """Extract one stage as a standalone graph with proxy inputs.

    The subgraph contains the stage's compute nodes (the original layer
    objects, shared — they are never mutated), any concat nodes they
    read through (concatenation is address steering and takes no
    execution step), and one proxy :class:`InputLayer` per boundary
    input, named after the foreign producer so every tensor identity
    (``f:<producer>``) matches the full graph.  LCMM on the subgraph can
    therefore only allocate the stage's *own* live tensors — boundary
    inputs behave exactly like the network input does on a single die
    (pinned on chip if the allocator finds it worthwhile, streamed from
    the die's DDR otherwise).
    """
    members = set(stage_nodes)
    concats: set[str] = set()
    proxies: set[str] = set()
    stack = [src for name in stage_nodes for src in graph.layer(name).inputs]
    while stack:
        src = stack.pop()
        if src in members or src in concats or src in proxies:
            continue
        if graph.layer(src).op_type is OpType.CONCAT:
            concats.add(src)
            stack.extend(graph.layer(src).inputs)
        else:
            proxies.add(src)
    sub = ComputationGraph(name=f"{graph.name}::stage{index}")
    for name in graph.schedule():
        if name in proxies:
            sub.add(InputLayer(name=name, shape=graph.output_shape(name)))
        elif name in members or name in concats:
            sub.add(graph.layer(name))
    sub.validate()
    return sub


@dataclass
class DieStage:
    """One die of the partitioned pipeline.

    Attributes:
        index: Die number along the chain, 0-based.
        nodes: Executed nodes of this stage, in schedule order.
        accel: The die's design point (a full device).
        lcmm: The stage-local allocation, computed on the stage subgraph.
        compute_latency: First-image stage latency excluding link time
            (per-node Eq. 1 sums plus prefetch residuals).
        steady_compute_latency: Steady-state stage latency excluding
            link time — persistent weight buffers no longer re-fill.
        recv_bytes: Boundary bytes received on the left link per image.
        send_bytes: Boundary bytes sent on the right link per image.
        recv_latency: Seconds the left link streams per image.
        send_latency: Seconds the right link streams per image.
    """

    index: int
    nodes: list[str]
    accel: AcceleratorConfig
    lcmm: LCMMResult
    compute_latency: float
    steady_compute_latency: float
    recv_bytes: int
    send_bytes: int
    recv_latency: float
    send_latency: float

    @property
    def latency(self) -> float:
        """First-image stage latency: compute overlapped with its links."""
        return max(self.compute_latency, self.recv_latency, self.send_latency)

    @property
    def steady_latency(self) -> float:
        """Steady-state stage latency: the term the period maximises."""
        return max(
            self.steady_compute_latency, self.recv_latency, self.send_latency
        )

    @property
    def link_bound(self) -> bool:
        """Whether a link, not compute, limits this stage's throughput."""
        return max(self.recv_latency, self.send_latency) > self.steady_compute_latency


@dataclass
class PartitionResult:
    """Outcome of a multi-die partitioned design.

    Attributes:
        stages: The per-die stages in chain order (one for single-die).
        boundaries: Schedule boundaries, ``len(stages) + 1`` entries.
        cut_bytes: Link traffic per internal cut, one per link.
        link: The inter-die link model (None when disabled).
        image_latency: One image end to end: every stage's first-image
            compute plus every link crossing on the critical path.
        period: Steady-state initiation interval — the slowest stage
            including its link time, after persistent weights settled.
        devices_requested: Die count the caller asked for.
        fell_back: Why the single-die result was kept, or None when the
            partitioned design was accepted.
        single_latency: Latency of the single-die baseline compilation.
    """

    stages: list[DieStage]
    boundaries: list[int]
    cut_bytes: list[int]
    link: InterDieLink | None
    image_latency: float
    period: float
    devices_requested: int
    fell_back: str | None = None
    single_latency: float = 0.0

    @property
    def num_devices(self) -> int:
        """Dies actually used after clamping/fallback."""
        return len(self.stages)

    @property
    def steady_state_throughput(self) -> float:
        """Images per second once the pipeline is full."""
        return 1.0 / self.period

    @property
    def speedup_vs_single(self) -> float:
        """Steady-state throughput gain over the single-die design."""
        return self.single_latency / self.period


def _die_accel(base: AcceleratorConfig, index: int) -> AcceleratorConfig:
    """The design point of one die: the full base device, relabelled."""
    return replace(base, name=f"{base.name}-die{index}")


def _stage_latencies(
    model: LatencyModel, lcmm: LCMMResult
) -> tuple[float, float]:
    """(first-image, steady-state) stage latency excluding link time.

    The first image pays every prefetch residual; in steady state the
    weight buffers that hold a single tensor stay resident across images
    (:func:`repro.perf.batching.persistent_weight_tensors`), so only the
    recurring residuals remain.
    """
    first = lcmm.latency
    persistent = persistent_weight_tensors(lcmm)
    recurring = {
        name: value
        for name, value in lcmm.residuals.items()
        if name not in persistent
    }
    steady = model.total_latency(
        lcmm.onchip_tensors, recurring, lcmm.fractions or None
    )
    return first, steady


def _single_die(
    graph: ComputationGraph,
    base: AcceleratorConfig,
    options: LCMMOptions,
    devices_requested: int,
    fell_back: str | None,
    cache=None,
) -> PartitionResult:
    """The single-die floor: one plain LCMM compilation, bit-identical
    to the non-partitioned flow (same graph object, same design point,
    same options), wrapped in the partition result shape."""
    model = LatencyModel(graph, base)
    lcmm = run_lcmm(graph, base, options=options, model=model, cache=cache)
    first, steady = _stage_latencies(model, lcmm)
    schedule = graph.compute_schedule()
    stage = DieStage(
        index=0,
        nodes=list(schedule),
        accel=base,
        lcmm=lcmm,
        compute_latency=first,
        steady_compute_latency=steady,
        recv_bytes=0,
        send_bytes=0,
        recv_latency=0.0,
        send_latency=0.0,
    )
    return PartitionResult(
        stages=[stage],
        boundaries=[0, len(schedule)],
        cut_bytes=[],
        link=None,
        image_latency=first,
        period=steady,
        devices_requested=devices_requested,
        fell_back=fell_back,
        single_latency=steady,
    )


def design_partition(
    graph: ComputationGraph,
    base: AcceleratorConfig,
    devices: int,
    link: InterDieLink | None = InterDieLink(gbps=12.5),
    options: LCMMOptions | None = None,
    cache=None,
) -> PartitionResult:
    """Partition a network across ``devices`` dies in a linear pipeline.

    Args:
        graph: The DNN computation graph.
        base: The per-die design point.  Every die is a whole device —
            full array, full SRAM, own DDR channels.
        devices: Requested die count; clamps to
            ``[1, min(MAX_DEVICES, executed layers)]``.
        link: Inter-die link model.  ``None`` disables it, which refuses
            to fabricate free-streaming speedups: the result degrades to
            the single-die compilation (``fell_back = "link-model-off"``).
        options: LCMM switches applied on every die (``sram_budget``
            caps each die's SRAM individually).
        cache: Optional :class:`~repro.cache.store.CompilationCache`
            forwarded to the single-die baseline compilation.  Per-stage
            subgraph compilations and the partitioned result are not
            cached.

    Returns:
        The partitioned design, or the single-die result when the
        partitioned pipeline does not improve steady-state throughput
        (accept-if-improves — ``fell_back`` records why).
    """
    schedule = graph.compute_schedule()
    options = options or LCMMOptions()
    requested = devices
    devices = max(1, min(devices, MAX_DEVICES, len(schedule)))
    if devices == 1:
        return _single_die(graph, base, options, requested, None, cache=cache)
    if link is None:
        single = _single_die(
            graph, base, options, requested, "link-model-off", cache=cache
        )
        return single

    # Stage assignment: DP over per-node latencies under the per-die
    # model plus the exact link time each candidate boundary creates.
    balance_model = LatencyModel(graph, base)
    weights = [balance_model.node_latency(n) for n in schedule]
    traffic = cut_traffic_bytes(graph, base.precision.bytes)
    cut_seconds = [link.latency(b) for b in traffic]
    cuts = throughput_balanced_cuts(weights, cut_seconds, devices)
    boundaries = [0] + cuts + [len(schedule)]

    stages: list[DieStage] = []
    for idx in range(devices):
        nodes = schedule[boundaries[idx] : boundaries[idx + 1]]
        accel = _die_accel(base, idx)
        sub = stage_subgraph(graph, list(nodes), idx)
        model = LatencyModel(sub, accel)
        lcmm = run_lcmm(sub, accel, options=options, model=model)
        first, steady = _stage_latencies(model, lcmm)
        recv = traffic[boundaries[idx]] if idx > 0 else 0
        send = traffic[boundaries[idx + 1]] if idx < devices - 1 else 0
        stages.append(
            DieStage(
                index=idx,
                nodes=list(nodes),
                accel=accel,
                lcmm=lcmm,
                compute_latency=first,
                steady_compute_latency=steady,
                recv_bytes=recv,
                send_bytes=send,
                recv_latency=link.latency(recv),
                send_latency=link.latency(send),
            )
        )

    image_latency = sum(s.compute_latency for s in stages) + sum(
        link.latency(traffic[c]) for c in cuts
    )
    period = max(s.steady_latency for s in stages)

    # Accept-if-improves: the partitioned pipeline must beat the
    # single-die steady state, else keep the known-good baseline.
    single = _single_die(graph, base, options, requested, None, cache=cache)
    if period >= single.period:
        single.fell_back = "no-improvement"
        return single
    return PartitionResult(
        stages=stages,
        boundaries=boundaries,
        cut_bytes=[traffic[c] for c in cuts],
        link=link,
        image_latency=image_latency,
        period=period,
        devices_requested=requested,
        fell_back=None,
        single_latency=single.period,
    )


def partition_batched_latency(result: PartitionResult, batch: int) -> BatchResult:
    """Steady-state batch profile of a partitioned pipeline.

    The first image fills the pipeline end to end (every stage's
    first-image compute plus every link crossing); each subsequent image
    retires one steady-state period later — the slowest stage including
    its link time, with persistent per-die weight buffers already
    resident.

    Raises:
        ValueError: If ``batch`` is not positive.
    """
    if batch < 1:
        raise ValueError(f"batch must be at least 1, got {batch}")
    first = result.image_latency
    steady = result.period
    total = first + (batch - 1) * steady
    return BatchResult(
        first_image_latency=first,
        steady_image_latency=steady,
        batch=batch,
        total_latency=total,
    )
