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

from repro.lcmm.buffers import (
    CandidateTensor,
    PhysicalBuffer,
    TensorClass,
    VirtualBuffer,
)
from repro.lcmm.liveness import LiveRange, feature_live_ranges, schedule_positions
from repro.lcmm.interference import InterferenceGraph
from repro.lcmm.coloring import color_buffers, total_buffer_bytes, validate_coloring
from repro.lcmm.feature_reuse import FeatureReuseResult, feature_reuse_pass
from repro.lcmm.prefetch import PrefetchEdge, PrefetchResult, weight_prefetch_pass
from repro.lcmm.dnnk import DNNKResult, dnnk_allocate, greedy_allocate
from repro.lcmm.splitting import SplitAttempt, SplittingOutcome, buffer_splitting_pass
from repro.lcmm.passes import (
    CompilationContext,
    Pass,
    PassDiagnostic,
    PassManager,
    PipelineError,
    default_pipeline,
    make_pass,
    pipeline_from_names,
    register_pass,
    registered_passes,
)
from repro.lcmm.tables import (
    OperationLatencyRow,
    operation_latency_table,
    tensor_metric_table,
    virtual_buffer_table,
)
from repro.lcmm.umm import UMMResult, run_umm
from repro.lcmm.double_buffer import (
    DoubleBufferResult,
    LinearityError,
    is_linear,
    run_double_buffer,
)
from repro.lcmm.reorder import peak_live_feature_bytes, reorder_depth_first
from repro.lcmm.cotuning import CoTuningResult, cotune
from repro.lcmm.framework import LCMMOptions, LCMMResult, run_lcmm
from repro.lcmm.validate import AllocationError, validate_buffers, validate_result

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
