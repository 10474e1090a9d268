"""LCMM — Layer Conscious Memory Management (the paper's contribution).

The four coordinated techniques of Sec. 3:

* :mod:`repro.lcmm.feature_reuse` — liveness analysis + size-minimising
  colouring of feature tensors (Sec. 3.1);
* :mod:`repro.lcmm.prefetch` — weight buffer prefetching and the
  prefetching dependence graph (Sec. 3.2);
* :mod:`repro.lcmm.dnnk` — the DNN-knapsack on-chip memory allocator with
  pivot compensation (Sec. 3.3, Alg. 1);
* :mod:`repro.lcmm.splitting` — buffer splitting against misspilling
  (Sec. 3.4);

plus the UMM baseline, the pass pipeline (:mod:`repro.lcmm.passes`) that
orchestrates them, the thin :func:`run_lcmm` driver and invariant checks.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.lcmm.buffers": (
            "CandidateTensor",
            "PhysicalBuffer",
            "TensorClass",
            "VirtualBuffer",
        ),
        "repro.lcmm.liveness": (
            "LiveRange",
            "feature_live_ranges",
            "schedule_positions",
        ),
        "repro.lcmm.interference": ("InterferenceGraph",),
        "repro.lcmm.coloring": (
            "color_buffers",
            "total_buffer_bytes",
            "validate_coloring",
        ),
        "repro.lcmm.feature_reuse": ("FeatureReuseResult", "feature_reuse_pass"),
        "repro.lcmm.prefetch": (
            "PrefetchEdge",
            "PrefetchResult",
            "weight_prefetch_pass",
        ),
        "repro.lcmm.dnnk": ("DNNKResult", "dnnk_allocate", "greedy_allocate"),
        "repro.lcmm.splitting": (
            "SplitAttempt",
            "SplittingOutcome",
            "buffer_splitting_pass",
        ),
        "repro.lcmm.passes": (
            "CompilationContext",
            "Pass",
            "PassDiagnostic",
            "PassManager",
            "PipelineError",
            "default_pipeline",
            "make_pass",
            "pipeline_from_names",
            "register_pass",
            "registered_passes",
        ),
        "repro.lcmm.tables": (
            "OperationLatencyRow",
            "operation_latency_table",
            "tensor_metric_table",
            "virtual_buffer_table",
        ),
        "repro.lcmm.umm": ("UMMResult", "run_umm"),
        "repro.lcmm.double_buffer": (
            "DoubleBufferResult",
            "LinearityError",
            "is_linear",
            "run_double_buffer",
        ),
        "repro.lcmm.reorder": ("peak_live_feature_bytes", "reorder_depth_first"),
        "repro.lcmm.cotuning": ("CoTuningResult", "cotune"),
        "repro.lcmm.framework": ("LCMMOptions", "LCMMResult", "run_lcmm"),
        "repro.lcmm.validate": (
            "AllocationError",
            "validate_buffers",
            "validate_result",
        ),
    },
)

__all__ = [
    "CandidateTensor",
    "TensorClass",
    "VirtualBuffer",
    "PhysicalBuffer",
    "LiveRange",
    "schedule_positions",
    "feature_live_ranges",
    "InterferenceGraph",
    "color_buffers",
    "total_buffer_bytes",
    "validate_coloring",
    "FeatureReuseResult",
    "feature_reuse_pass",
    "PrefetchEdge",
    "PrefetchResult",
    "weight_prefetch_pass",
    "DNNKResult",
    "dnnk_allocate",
    "greedy_allocate",
    "SplitAttempt",
    "SplittingOutcome",
    "buffer_splitting_pass",
    "CompilationContext",
    "Pass",
    "PassDiagnostic",
    "PassManager",
    "PipelineError",
    "default_pipeline",
    "make_pass",
    "pipeline_from_names",
    "register_pass",
    "registered_passes",
    "OperationLatencyRow",
    "operation_latency_table",
    "tensor_metric_table",
    "virtual_buffer_table",
    "UMMResult",
    "run_umm",
    "DoubleBufferResult",
    "LinearityError",
    "is_linear",
    "run_double_buffer",
    "reorder_depth_first",
    "peak_live_feature_bytes",
    "CoTuningResult",
    "cotune",
    "LCMMOptions",
    "LCMMResult",
    "run_lcmm",
    "AllocationError",
    "validate_result",
    "validate_buffers",
]
