"""Layer-pipelined partitioning: one stage designer, two die models.

The network's schedule is split into ``k`` contiguous stages arranged
as a linear pipeline.  The ``link`` argument of :func:`design_partition`
chooses what a stage runs on:

* an :class:`InterDieLink` — each stage on a *whole* FPGA die of a
  daisy chain (AutoWS's deployment model; TGPA's for heterogeneous CNN
  stages), with its own SRAM, DDR channels and full array.  Boundary
  feature tensors cross the link, store-and-forward, so a tensor read
  two stages downstream pays every link in between;
* :data:`ON_CHIP` — the stages share **one** device (TGPA's intra-FPGA
  heterogeneity, which the paper's conclusion names as future work):
  each stage gets a sub-array tuned to its layers within ``1/k`` of the
  MACs (:func:`tune_stage_array`) and ``1/k`` of the SRAM, and boundary
  tensors stream on chip for free;
* ``None`` — the link model is off: the single-die compilation, not a
  fabricated free-streaming speedup.

Either way LCMM runs per stage on a **stage subgraph** (boundary inputs
become proxy input layers), so a stage spends its SRAM only on its own
tensors.  Stage boundaries come from one DP over ``cost(i, j) = max(sum
of node latencies, receive time at cut i, send time at cut j)`` — the
Eq.-1 ``max(compute, transfer)`` shape at stage level.  Stage timing is
:func:`repro.perf.batching.first_and_steady_latency`, so the period is
the slowest stage's *steady* latency including its link time.

Degradation: the stage count clamps to ``[1, min(8, layers)]`` and one
stage is the plain single-die compilation.  Whole dies add hardware, so
a partition that does not beat the single die falls back to it
(accept-if-improves, the PR-9 pass idiom); an on-chip split reuses the
same hardware, so its trade-off is reported as is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.ir.graph import ComputationGraph
from repro.ir.layer import InputLayer, OpType
from repro.lcmm.framework import LCMMOptions, LCMMResult, run_lcmm
from repro.perf.batching import (
    BatchResult,
    batch_profile,
    first_and_steady_latency,
)
from repro.perf.latency import LatencyModel
from repro.perf.systolic import AcceleratorConfig, SystolicArray

__all__ = [
    "MAX_DEVICES",
    "ON_CHIP",
    "InterDieLink",
    "DieStage",
    "PartitionResult",
    "cut_traffic_bytes",
    "design_partition",
    "partition_batched_latency",
    "stage_subgraph",
    "throughput_balanced_cuts",
    "tune_stage_array",
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


#: The die model of one device split into fabric stages: boundary
#: tensors stream between stages on chip, so every cut costs nothing.
#: Pass it as ``link`` to :func:`design_partition`; it is recognised by
#: identity, so an equal link built elsewhere still means whole dies.
ON_CHIP = InterDieLink(gbps=math.inf)


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


def _stage_array(base: SystolicArray, k: int) -> SystolicArray:
    """Divide the array between ``k`` stages along the column dimension."""
    cols = max(1, base.cols // k)
    return SystolicArray(rows=base.rows, cols=cols, simd=base.simd)


def _clamp_to_budget(array: SystolicArray, mac_budget: int) -> SystolicArray:
    """Shrink an array until it fits a per-stage MAC budget.

    Halves the cheapest dimension first (columns, then SIMD, then rows)
    so the shape degrades the way :func:`_stage_array` grows it.  The
    1x1x1 array always fits any positive budget.
    """
    rows, cols, simd = array.rows, array.cols, array.simd
    while rows * cols * simd > mac_budget:
        if cols > 1:
            cols //= 2
        elif simd > 1:
            simd //= 2
        elif rows > 1:
            rows //= 2
        else:
            break
    return SystolicArray(rows=rows, cols=cols, simd=simd)


#: Candidate dimensions for per-stage array tuning.
_ROW_CANDIDATES = (8, 16, 32, 64)
_COL_CANDIDATES = (1, 2, 4, 8, 16)
_SIMD_CANDIDATES = (2, 4, 8, 11, 16)


def tune_stage_array(
    graph: ComputationGraph,
    nodes: list[str],
    mac_budget: int,
    fallback: SystolicArray,
) -> SystolicArray:
    """Pick the array shape that minimises a stage's compute cycles.

    This is the heterogeneity of TGPA [17]: each stage's array matches
    *its* layers' channel geometry, cutting the padding waste a uniform
    array pays on mismatched layers.

    Args:
        graph: The network.
        nodes: The stage's executed nodes.
        mac_budget: Maximum MAC units the stage's array may use.
        fallback: Shape to fall back on if nothing fits the budget.  The
            fallback is clamped to ``mac_budget`` too — the uniform
            split divides only the column dimension, so ``rows * simd``
            alone can exceed a deep pipeline's per-stage share, and an
            unclamped fallback would overcommit the device's DSPs.
    """
    fallback = _clamp_to_budget(fallback, max(1, mac_budget))
    jobs = []
    for name in nodes:
        layer = graph.layer(name)
        if not layer.has_weights:
            continue
        out = graph.output_shape(name)
        in_channels = getattr(layer, "in_channels", 0) or getattr(
            layer, "in_features", 0
        ) or out.channels
        jobs.append((layer.macs(graph.input_shapes(name)), out.channels, in_channels))
    if not jobs:
        return fallback

    best: SystolicArray | None = None
    best_cycles = float("inf")
    for rows in _ROW_CANDIDATES:
        for cols in _COL_CANDIDATES:
            for simd in _SIMD_CANDIDATES:
                if rows * cols * simd > mac_budget:
                    continue
                array = SystolicArray(rows=rows, cols=cols, simd=simd)
                cycles = sum(
                    macs / array.effective_macs(m, c) for macs, m, c in jobs
                )
                if cycles < best_cycles:
                    best_cycles = cycles
                    best = array
    if best is None:
        return fallback
    return best

@dataclass
class DieStage:
    """One stage of the partitioned pipeline.

    Attributes:
        index: Stage number along the chain, 0-based.
        nodes: Executed nodes of this stage, in schedule order.
        accel: The stage's design point: a full device, or on chip the
            device with the stage's tuned sub-array.
        lcmm: The stage-local allocation, computed on the stage subgraph.
        compute_latency: First-image stage latency excluding link time
            (per-node Eq. 1 sums plus prefetch residuals).
        steady_compute_latency: Steady-state stage latency excluding
            link time — persistent weight buffers no longer re-fill.
        recv_bytes: Boundary bytes received on the left link per image
            (0 on chip, where nothing crosses a link).
        send_bytes: Boundary bytes sent on the right link per image
            (0 on chip).
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
        link: The inter-die link model (:data:`ON_CHIP` for stages on
            one device, None for a single die).
        image_latency: One image end to end: every stage's first-image
            compute plus every link crossing on the critical path.
        period: Steady-state initiation interval — the slowest stage
            including its link time, after persistent weights settled.
        devices_requested: Stage count the caller asked for.
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
        """Stages actually used after clamping/fallback."""
        return len(self.stages)

    @property
    def steady_state_throughput(self) -> float:
        """Images per second once the pipeline is full."""
        return 1.0 / self.period

    @property
    def speedup_vs_single(self) -> float:
        """Steady-state throughput gain over the single-die design."""
        return self.single_latency / self.period


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
    first, steady = first_and_steady_latency(model, lcmm)
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


def _streamed_tensors(
    graph: ComputationGraph, schedule: list[str], boundaries: list[int]
) -> frozenset[str]:
    """Feature tensors read outside their producer's stage."""
    node_stage = {
        node: idx
        for idx in range(len(boundaries) - 1)
        for node in schedule[boundaries[idx] : boundaries[idx + 1]]
    }
    return frozenset(
        tensor.name
        for tensor in graph.feature_tensors()
        if tensor.producer in node_stage
        and any(
            node_stage.get(c) != node_stage[tensor.producer]
            for c in tensor.consumers
        )
    )


def design_partition(
    graph: ComputationGraph,
    base: AcceleratorConfig,
    devices: int,
    link: InterDieLink | None = InterDieLink(gbps=12.5),
    options: LCMMOptions | None = None,
    cache=None,
) -> PartitionResult:
    """Partition a network into a linear pipeline of ``devices`` stages.

    Args:
        graph: The DNN computation graph.
        base: The single-device design point.
        devices: Requested stage count; clamps to
            ``[1, min(MAX_DEVICES, executed layers)]``.  One stage is
            the plain single-die compilation.
        link: The die model.  An :class:`InterDieLink` puts each stage
            on a whole die (full array, full SRAM, own DDR channels)
            and charges boundary tensors to the link.  :data:`ON_CHIP`
            splits ``base``'s fabric: each stage gets a tuned sub-array
            within ``1/k`` of the MACs and ``1/k`` of the SRAM, and
            boundary tensors stream on chip for free.  ``None`` disables
            the link model, which refuses to fabricate free-streaming
            speedups: the result degrades to the single-die compilation
            (``fell_back = "link-model-off"``).
        options: LCMM switches applied in every stage (on whole dies
            ``sram_budget`` caps each die's SRAM individually; on chip
            each stage's share replaces it).
        cache: Optional :class:`~repro.cache.store.CompilationCache`
            forwarded to the single-die baseline compilation.  Per-stage
            subgraph compilations and the partitioned result are not
            cached.

    Returns:
        The partitioned design.  On whole dies, the single-die result
        when the partitioned pipeline does not improve steady-state
        throughput (accept-if-improves — ``fell_back`` records why).
    """
    schedule = graph.compute_schedule()
    options = options or LCMMOptions()
    requested = devices
    devices = max(1, min(devices, MAX_DEVICES, len(schedule)))
    if devices == 1 or link is None:
        reason = None if devices == 1 else "link-model-off"
        return _single_die(graph, base, options, requested, reason, cache=cache)

    # Stage assignment: DP over per-node latencies under the per-stage
    # model plus the exact link time each candidate boundary creates.
    on_chip = link is ON_CHIP
    stage_options = options
    if on_chip:
        uniform = _stage_array(base.array, devices)
        balance_model = LatencyModel(graph, replace(base, array=uniform))
        traffic = [0] * (len(schedule) + 1)
        stage_options = replace(
            options, sram_budget=int(base.device.sram_bytes * (1.0 / devices))
        )
    else:
        balance_model = LatencyModel(graph, base)
        traffic = cut_traffic_bytes(graph, base.precision.bytes)
    weights = [balance_model.node_latency(n) for n in schedule]
    cut_seconds = [link.latency(b) for b in traffic]
    cuts = throughput_balanced_cuts(weights, cut_seconds, devices)
    boundaries = [0] + cuts + [len(schedule)]
    streamed = (
        _streamed_tensors(graph, schedule, boundaries) if on_chip else frozenset()
    )

    stages: list[DieStage] = []
    for idx in range(devices):
        nodes = schedule[boundaries[idx] : boundaries[idx + 1]]
        array = base.array
        if on_chip:
            array = tune_stage_array(
                graph, nodes, max(1, base.array.macs // devices), uniform
            )
        accel = replace(base, name=f"{base.name}-die{idx}", array=array)
        sub = stage_subgraph(graph, nodes, idx)
        model = LatencyModel(sub, accel)
        lcmm = run_lcmm(sub, accel, options=stage_options, model=model)
        first, steady = first_and_steady_latency(model, lcmm, streamed)
        recv = traffic[boundaries[idx]] if idx > 0 else 0
        send = traffic[boundaries[idx + 1]] if idx < devices - 1 else 0
        stages.append(
            DieStage(
                index=idx,
                nodes=nodes,
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

    # Accept-if-improves: whole dies add hardware, so the partitioned
    # pipeline must beat the single-die steady state, else keep the
    # known-good baseline.  An on-chip split reuses the same hardware,
    # so its trade-off is reported as is.
    single = _single_die(graph, base, options, requested, None, cache=cache)
    if not on_chip and period >= single.period:
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
    return batch_profile(result.image_latency, result.period, batch)
