"""Performance model of the systolic-array accelerator.

Models the two-level loop-tiling dataflow of the paper's baseline
accelerator ([18], "Automated Systolic Array Architecture Synthesis...",
DAC 2017): outer loops stream tiles from DDR, middle loops feed the PE
array, inner loops are fully unrolled in hardware (Fig. 1 of the LCMM
paper).  The model produces, per layer, the compute latency and the three
per-interface transfer latencies that Eq. 1 of the paper combines, plus
roofline characterisation and a small design-space explorer that stands in
for the external DSE the paper plugs LCMM into.
"""

from repro.perf.tiling import TileConfig
from repro.perf.systolic import AcceleratorConfig, SystolicArray, default_accelerator
from repro.perf.engine import AllocationEngine, EngineStats
from repro.perf.latency import LatencyModel, LayerLatency, Slot
from repro.perf.roofline import RooflineModel, RooflinePoint
from repro.perf.dse import (
    DesignPoint,
    WorkerStats,
    candidate_tiles,
)
from repro.perf.pool import ScorerPool, close_pool, persistent_pool
from repro.perf.space import (
    DesignSpace,
    SampledSpace,
    SpaceResult,
    explore_space,
    large_space,
    small_space,
)
from repro.perf.batching import BatchResult, batched_latency, umm_batched_latency
from repro.perf.partition import (
    DieStage,
    InterDieLink,
    PartitionResult,
    design_partition,
    partition_batched_latency,
)
from repro.perf.pipeline import PipelineResult, PipelineStage, design_pipeline

__all__ = [
    "TileConfig",
    "SystolicArray",
    "AcceleratorConfig",
    "default_accelerator",
    "AllocationEngine",
    "EngineStats",
    "LatencyModel",
    "LayerLatency",
    "Slot",
    "RooflineModel",
    "RooflinePoint",
    "DesignPoint",
    "WorkerStats",
    "candidate_tiles",
    "ScorerPool",
    "close_pool",
    "persistent_pool",
    "DesignSpace",
    "SampledSpace",
    "SpaceResult",
    "explore_space",
    "large_space",
    "small_space",
    "BatchResult",
    "batched_latency",
    "umm_batched_latency",
    "DieStage",
    "InterDieLink",
    "PartitionResult",
    "design_partition",
    "partition_batched_latency",
    "PipelineResult",
    "PipelineStage",
    "design_pipeline",
]
