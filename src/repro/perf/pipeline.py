"""Multi-accelerator pipelining with per-stage LCMM (the paper's future work).

The conclusion of the paper notes that LCMM "is orthogonal to the
heterogeneous design methodology [TGPA, 17] which could be integrated into
our designs in the future to further improve performance density".  This
module performs that integration:

* the network's schedule is split into ``k`` contiguous **stages**;
* each stage gets its own systolic sub-array (the DSP budget divides
  between stages) and its own slice of the on-chip memory;
* consecutive stages stream feature tiles to each other on chip (as TGPA
  does), so stage-boundary tensors pay no DDR transfer;
* LCMM runs *inside* every stage, pinning that stage's memory-bound
  tensors into its SRAM slice;
* images pipeline through the stages: the steady-state period is the
  slowest stage, so throughput scales with balanced stages while
  single-image latency stays the sum.

Stage boundaries are chosen by the optimal contiguous partition of
:func:`repro.perf.partition.throughput_balanced_cuts` over the per-node
latencies under the per-stage array, with free links: on-chip streams
cost nothing at a cut.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.ir.graph import ComputationGraph
from repro.lcmm.framework import LCMMOptions, LCMMResult, run_lcmm
from repro.perf.latency import LatencyModel
from repro.perf.partition import stage_subgraph, throughput_balanced_cuts
from repro.perf.systolic import AcceleratorConfig, SystolicArray


@dataclass
class PipelineStage:
    """One stage of the pipelined design.

    Attributes:
        index: Stage number, 0-based.
        nodes: Executed nodes of this stage, in schedule order.
        accel: The stage's design point (its sub-array).
        lcmm: The stage-local allocation.
        latency: Stage latency for one image, boundary streams excluded.
    """

    index: int
    nodes: list[str]
    accel: AcceleratorConfig
    lcmm: LCMMResult
    latency: float


@dataclass
class PipelineResult:
    """Outcome of a pipelined multi-accelerator design.

    Attributes:
        stages: The pipeline stages in order.
        image_latency: One image's end-to-end latency (sum of stages).
        period: Steady-state initiation interval (the slowest stage).
    """

    stages: list[PipelineStage]
    image_latency: float
    period: float

    @property
    def steady_state_throughput(self) -> float:
        """Images per second once the pipeline is full."""
        return 1.0 / self.period

    @property
    def num_stages(self) -> int:
        """Number of pipeline stages."""
        return len(self.stages)


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


def _stage_latency(
    model: LatencyModel,
    nodes: list[str],
    lcmm: LCMMResult,
    streamed: frozenset[str],
) -> float:
    """Stage latency with boundary tensors streamed on chip for free."""
    onchip = frozenset(lcmm.onchip_tensors | streamed)
    return sum(
        model.node_latency(node, onchip, lcmm.residuals) for node in nodes
    )


def design_pipeline(
    graph: ComputationGraph,
    base: AcceleratorConfig,
    num_stages: int,
    options: LCMMOptions | None = None,
    sram_share: float | None = None,
    tune_arrays: bool = True,
) -> PipelineResult:
    """Build a ``num_stages``-deep pipelined design with per-stage LCMM.

    Args:
        graph: The DNN computation graph.
        base: Single-accelerator design point to divide between stages.
        num_stages: Pipeline depth (1 reproduces the plain LCMM design).
        options: LCMM switches applied inside every stage.
        sram_share: Fraction of the device SRAM available to each stage;
            defaults to an even split.
        tune_arrays: Give each stage an array shape tuned to its layers
            (the TGPA heterogeneity); False divides the base array evenly.

    Raises:
        ValueError: On a pipeline deeper than the executed layer count.
    """
    schedule = graph.compute_schedule()
    if not 1 <= num_stages <= len(schedule):
        raise ValueError(
            f"cannot pipeline {len(schedule)} layers into {num_stages} stages"
        )
    if sram_share is None:
        sram_share = 1.0 / num_stages
    if not 0.0 < sram_share <= 1.0:
        raise ValueError("sram_share must be in (0, 1]")

    uniform_array = _stage_array(base.array, num_stages)
    stage_base = replace(base, name=f"{base.name}-stage0", array=uniform_array)
    balance_model = LatencyModel(graph, stage_base)
    weights = [balance_model.node_latency(n) for n in schedule]
    cuts = throughput_balanced_cuts(weights, [0.0] * (len(schedule) + 1), num_stages)
    boundaries = [0] + cuts + [len(schedule)]

    # Stage-boundary feature values stream between accelerators on chip.
    streamed: set[str] = set()
    stage_node_sets = [
        set(schedule[boundaries[i] : boundaries[i + 1]])
        for i in range(len(boundaries) - 1)
    ]
    node_stage = {
        node: idx for idx, nodes in enumerate(stage_node_sets) for node in nodes
    }
    for tensor in graph.feature_tensors():
        if tensor.producer not in node_stage:
            continue
        producer_stage = node_stage[tensor.producer]
        if any(node_stage.get(c) != producer_stage for c in tensor.consumers):
            streamed.add(tensor.name)
    streamed_frozen = frozenset(streamed)

    # One shared model per stage design point (stages share the array
    # geometry, so one model suffices).
    stages: list[PipelineStage] = []
    options = options or LCMMOptions()
    stage_options = replace(
        options, sram_budget=int(base.device.sram_bytes * sram_share)
    )
    mac_budget = max(1, base.array.macs // num_stages)
    for idx in range(len(boundaries) - 1):
        nodes = schedule[boundaries[idx] : boundaries[idx + 1]]
        if tune_arrays:
            array = tune_stage_array(graph, list(nodes), mac_budget, uniform_array)
        else:
            array = uniform_array
        accel = replace(base, name=f"{base.name}-stage{idx}", array=array)
        # LCMM runs on the stage *subgraph*, so the stage's SRAM slice
        # can only hold tensors its own nodes live with.  (The previous
        # whole-graph run let a stage pin foreign-stage tensors into its
        # slice — burning budget on tensors that never cut its latency.)
        if len(nodes) == len(schedule):
            stage_graph = graph  # single stage: bit-identical to plain LCMM
        else:
            stage_graph = stage_subgraph(graph, list(nodes), idx)
        model = LatencyModel(stage_graph, accel)
        lcmm = run_lcmm(stage_graph, accel, options=stage_options, model=model)
        latency = _stage_latency(model, list(nodes), lcmm, streamed_frozen)
        stages.append(
            PipelineStage(
                index=idx, nodes=list(nodes), accel=accel, lcmm=lcmm, latency=latency
            )
        )

    image_latency = sum(s.latency for s in stages)
    period = max(s.latency for s in stages)
    return PipelineResult(
        stages=stages, image_latency=image_latency, period=period
    )
