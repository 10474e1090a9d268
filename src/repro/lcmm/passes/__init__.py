"""Compiler-style pass pipeline for LCMM.

The framework's Fig. 4 flow as an explicit, explorable pass schedule:
:class:`Pass` implementations over a shared :class:`CompilationContext`,
executed by a :class:`PassManager` with per-pass timing, artifact
validation and structured :class:`PassDiagnostic` records.

Quick tour::

    from repro.lcmm.passes import (
        CompilationContext, PassManager, default_pipeline,
    )

    ctx = CompilationContext.create(graph, accel, options)
    manager = PassManager(default_pipeline(options))
    manager.run(ctx)
    score = ctx.require("score")          # exact latency + residuals

Custom pipelines come from the registry (``pipeline_from_names``) or
plain lists mixing standard and user-defined passes — see
``examples/custom_pipeline.py``.
"""

from repro.lcmm.passes.core import (
    PASS_REGISTRY,
    CompilationContext,
    Pass,
    PassDiagnostic,
    PassExecution,
    PassManager,
    PipelineError,
    make_pass,
    pipeline_from_names,
    register_pass,
    registered_passes,
)
from repro.lcmm.passes.standard import (
    AllocationDecision,
    AllocationScore,
    DNNKAllocatePass,
    FeatureReusePass,
    FractionalFillPass,
    FuseLayersPass,
    FusionDecision,
    GreedyAllocatePass,
    Placement,
    PlacementPass,
    ScorePass,
    SplittingAllocatePass,
    TransferSchedulePass,
    WeightPrefetchPass,
    compute_residuals,
    default_pipeline,
    empty_dnnk_result,
    empty_feature_result,
    empty_prefetch_result,
    evaluate_allocation,
)

__all__ = [
    "PASS_REGISTRY",
    "CompilationContext",
    "Pass",
    "PassDiagnostic",
    "PassExecution",
    "PassManager",
    "PipelineError",
    "make_pass",
    "pipeline_from_names",
    "register_pass",
    "registered_passes",
    "AllocationDecision",
    "AllocationScore",
    "FusionDecision",
    "Placement",
    "FeatureReusePass",
    "WeightPrefetchPass",
    "DNNKAllocatePass",
    "GreedyAllocatePass",
    "SplittingAllocatePass",
    "ScorePass",
    "PlacementPass",
    "FractionalFillPass",
    "FuseLayersPass",
    "TransferSchedulePass",
    "compute_residuals",
    "evaluate_allocation",
    "default_pipeline",
    "empty_dnnk_result",
    "empty_feature_result",
    "empty_prefetch_result",
]
