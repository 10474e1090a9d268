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

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.perf.tiling": ("TileConfig",),
        "repro.perf.systolic": (
            "AcceleratorConfig",
            "SystolicArray",
            "default_accelerator",
        ),
        "repro.perf.engine": ("AllocationEngine", "EngineStats"),
        "repro.perf.latency": ("LatencyModel", "LayerLatency", "Slot"),
        "repro.perf.roofline": ("RooflineModel", "RooflinePoint"),
        "repro.perf.dse": ("DesignPoint", "WorkerStats", "candidate_tiles"),
        "repro.perf.pool": ("ScorerPool", "close_pool", "persistent_pool"),
        "repro.perf.space": (
            "DesignSpace",
            "SampledSpace",
            "SpaceResult",
            "explore_space",
            "large_space",
            "small_space",
        ),
        "repro.perf.batching": (
            "BatchResult",
            "batched_latency",
            "umm_batched_latency",
        ),
        "repro.perf.partition": (
            "DieStage",
            "InterDieLink",
            "PartitionResult",
            "design_partition",
            "partition_batched_latency",
        ),
        "repro.perf.pipeline": ("PipelineResult", "PipelineStage", "design_pipeline"),
    },
)

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
