"""The LCMM framework — a thin driver over the pass pipeline (Fig. 4).

The four techniques of the paper's flow diagram — feature buffer reuse
(Sec. 3.1), weight buffer prefetching (Sec. 3.2), DNNK allocation
(Sec. 3.3) and buffer splitting (Sec. 3.4) — live in
:mod:`repro.lcmm.passes` as registered :class:`~repro.lcmm.passes.Pass`
classes.  :func:`run_lcmm` only assembles the pipeline
(:func:`~repro.lcmm.passes.default_pipeline` from the options, or a
caller-supplied pass list), executes it through a
:class:`~repro.lcmm.passes.PassManager`, and packages the context
artifacts into an :class:`LCMMResult`.

**Fault tolerance.**  The paper's value proposition is that LCMM never
does worse than UMM, so a crashing pass must degrade, not abort: by
default :func:`run_lcmm` falls back along a degradation chain — the
requested pipeline, then plain DNNK, then the greedy allocator, then a
pure UMM result built without any pass machinery at all — and records
the level it landed on in :attr:`LCMMResult.degradation_level` plus a
``degraded`` diagnostic per abandoned attempt.  Every attempt's result
must pass :func:`repro.lcmm.validate.validate_result` before it is
returned or cached; a violated invariant fails the attempt like a
crashing pass.  ``fallback=False`` restores fail-fast behaviour.

The result carries the exact end-to-end latency (Eq. 1 with prefetch
residuals), the physical buffer map, the utilisation metrics Tab. 1,
Tab. 2 and Fig. 8 report — and, new with the pipeline, the structured
per-pass diagnostics and the executed pipeline description that
``lcmm run <model> --explain`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Sequence

from repro.errors import DeadlineExceeded, PassError, PipelineError, ReproError
from repro.fingerprint import compile_key, result_reply
from repro.hw.sram import BRAM36_BYTES, SRAMUsage, blocks_for
from repro.obs.metrics import registry as obs_registry
from repro.obs.spans import annotate as obs_annotate
from repro.obs.spans import enabled as obs_enabled
from repro.obs.spans import span as obs_span
from repro.ir.graph import ComputationGraph
from repro.lcmm.buffers import PhysicalBuffer
from repro.lcmm.feature_reuse import FeatureReuseResult
from repro.lcmm.options import LCMMOptions
from repro.lcmm.dnnk import DNNKResult
from repro.lcmm.passes import (
    CompilationContext,
    Pass,
    PassDiagnostic,
    PassManager,
    default_pipeline,
    empty_dnnk_result,
    empty_feature_result,
    empty_prefetch_result,
)
from repro.lcmm.prefetch import PrefetchResult
from repro.lcmm.validate import validate_result
from repro.perf.engine import EngineStats
from repro.perf.latency import LatencyModel
from repro.perf.systolic import AcceleratorConfig

if TYPE_CHECKING:
    from repro.cache.store import CompilationCache

__all__ = ["LCMMOptions", "LCMMResult", "run_lcmm", "umm_only_result"]


@dataclass
class LCMMResult:
    """Outcome of an LCMM run.

    Attributes:
        graph_name: Model evaluated.
        accel: The design point.
        latency: Exact end-to-end latency (Eq. 1 + prefetch residuals).
        throughput: Ops/second over the network's nominal operations.
        onchip_tensors: Tensor values resident on chip.
        residuals: Unhidden prefetch seconds per on-chip weight tensor.
        node_latencies: Per executed node latency under the allocation.
        feature_result: Feature reuse pass output.
        prefetch_result: Weight prefetching pass output.
        dnnk_result: Final allocator decision.
        physical_buffers: On-chip buffers with block placement.
        sram_usage: Block-level memory consumption (tile + tensor buffers).
        splitting_iterations: Buffer splits that were kept.
    """

    graph_name: str
    accel: AcceleratorConfig
    latency: float
    throughput: float
    onchip_tensors: frozenset[str]
    residuals: dict[str, float]
    node_latencies: dict[str, float]
    feature_result: FeatureReuseResult
    prefetch_result: PrefetchResult
    dnnk_result: DNNKResult
    physical_buffers: list[PhysicalBuffer]
    sram_usage: SRAMUsage
    splitting_iterations: int
    #: Partial residency per spilled tensor (extension; empty unless
    #: ``LCMMOptions.fractional_fill`` is enabled).
    fractions: dict[str, float] = field(default_factory=dict)
    #: Evaluation-engine counters and per-pass wall time (``None`` only
    #: for the UMM-only floor, which runs no passes).
    engine_stats: EngineStats | None = None
    #: Structured per-pass records (splits kept, fusion verdicts,
    #: stranded capacity, ...) in emission order.
    diagnostics: tuple[PassDiagnostic, ...] = ()
    #: The executed pipeline as ``"feature_reuse -> ... -> placement"``.
    pipeline_description: str = ""
    #: Per-pass wall seconds of the executed passes, in order
    #: (``engine_stats.pass_seconds`` sums the same spans by pass name,
    #: failed passes included).
    pass_timings: tuple[tuple[str, float], ...] = ()
    #: How far the fallback chain had to degrade: 0 = the requested
    #: pipeline succeeded, each +1 is one abandoned attempt (see
    #: ``degradation_path``); the floor is a pure UMM result.
    degradation_level: int = 0
    #: Labels of the abandoned attempts, in order (e.g. ``("dnnk-splitting",)``).
    degradation_path: tuple[str, ...] = ()
    #: Accepted fused-layer tiling edges (empty unless
    #: ``LCMMOptions.fuse_layers`` ran and improved the objective).
    fused_edges: tuple = ()
    #: Scheduled DMA timeline (``None`` unless
    #: ``LCMMOptions.transfer_schedule`` ran).
    transfer_timeline: object | None = None

    @property
    def tops(self) -> float:
        """Throughput in tera-ops/second."""
        return self.throughput / 1e12

    @property
    def sram_utilization(self) -> float:
        """Fraction of device SRAM consumed (tile + tensor buffers)."""
        return self.sram_usage.used_bytes / self.accel.device.sram_bytes

    def percentage_onchip_layers(self, model: LatencyModel) -> float:
        """POL metric of Tab. 2: memory-bound layers that benefit.

        A memory-bound layer benefits when at least one of its tensors is
        resident on chip.
        """
        bound = model.memory_bound_nodes()
        if not bound:
            return 0.0
        benefiting = 0
        for node in bound:
            slots = model.layer(node).slots
            if any(s.tensor in self.onchip_tensors for s in slots):
                benefiting += 1
        return benefiting / len(bound)


def package_result(ctx: CompilationContext, manager: PassManager) -> LCMMResult:
    """Assemble an :class:`LCMMResult` from an executed pipeline's context.

    Raises:
        repro.lcmm.passes.PipelineError: When the pipeline did not
            produce the ``"allocation"``, ``"score"`` and ``"placement"``
            artifacts a result requires.
    """
    allocation = ctx.require("allocation")
    score = ctx.require("score")
    placement = ctx.require("placement")
    feature = ctx.get("feature")
    prefetch = ctx.get("prefetch")
    fusion = ctx.get("fusion")
    return LCMMResult(
        graph_name=ctx.graph.name,
        accel=ctx.accel,
        latency=score.latency,
        throughput=ctx.model.throughput(score.latency),
        onchip_tensors=score.onchip,
        residuals=score.residuals,
        node_latencies=score.node_latencies,
        feature_result=feature if feature is not None else empty_feature_result(),
        prefetch_result=prefetch if prefetch is not None else empty_prefetch_result(),
        dnnk_result=allocation.result,
        physical_buffers=placement.buffers,
        sram_usage=placement.usage,
        splitting_iterations=allocation.splitting_iterations,
        fractions=ctx.get("fractions", {}),
        engine_stats=ctx.stats,
        diagnostics=tuple(ctx.diagnostics),
        pipeline_description=manager.description(),
        pass_timings=manager.timings(),
        fused_edges=fusion.edges if fusion is not None else (),
        transfer_timeline=ctx.get("transfer_schedule"),
    )


def umm_only_result(
    graph: ComputationGraph,
    accel: AcceleratorConfig,
    model: LatencyModel | None = None,
) -> LCMMResult:
    """Uniform memory management — the paper's baseline (Sec. 2.1).

    Every layer streams tiles of all three tensors through the
    double-buffered tile buffers; no tensor ever stays on chip between
    layers.  This is the strategy of the prior accelerators the paper
    compares against ([10, 12, 18, 22, 23]) and the denominator of every
    speedup it reports.  Only the tile buffers occupy SRAM, counted in
    whole BRAM blocks as the device allocates them.

    The same result is the degradation floor of the fallback chain.  It
    is built with plain loops over the pure latency model — no passes,
    no engine, no colouring — so it stays reachable when any of that
    machinery is the thing that is failing.  Latency equals the UMM
    latency by construction, which satisfies every invariant
    :func:`repro.lcmm.validate.validate_result` checks.
    """
    model = model or LatencyModel(graph, accel)
    latency = model.umm_latency()
    usage = SRAMUsage(budget=accel.device.sram)
    usage.bram36_used += blocks_for(accel.tile_buffer_bytes(), BRAM36_BYTES)
    return LCMMResult(
        graph_name=graph.name,
        accel=accel,
        latency=latency,
        throughput=model.throughput(latency),
        onchip_tensors=frozenset(),
        residuals={},
        node_latencies=dict(zip(model.node_table.names, model.node_table.umm)),
        feature_result=empty_feature_result(),
        prefetch_result=empty_prefetch_result(),
        dnnk_result=empty_dnnk_result(),
        physical_buffers=[],
        sram_usage=usage,
        splitting_iterations=0,
        pipeline_description="umm-only",
    )


def _degradation_chain(
    options: LCMMOptions,
    pipeline: Sequence[Pass] | None,
) -> list[tuple[str, LCMMOptions | None]]:
    """The attempts :func:`run_lcmm` makes, strongest first.

    Each entry is ``(label, attempt_options)``; ``attempt_options`` is
    ``None`` for the final UMM-only floor, which bypasses the pass
    machinery entirely.  Levels identical to the requested configuration
    are dropped so the chain never repeats a failed attempt.
    """
    if pipeline is not None:
        primary = "custom"
    elif options.use_greedy:
        primary = "greedy"
    elif options.splitting:
        primary = "dnnk-splitting"
    else:
        primary = "dnnk"
    if pipeline is None and (options.fuse_layers or options.transfer_schedule):
        primary = f"fused-{primary}"
    safe = replace(
        options,
        splitting=False,
        use_greedy=False,
        fractional_fill=False,
        fuse_layers=False,
        transfer_schedule=False,
    )
    chain: list[tuple[str, LCMMOptions | None]] = [(primary, options)]
    if primary != "dnnk":
        chain.append(("dnnk", safe))
    if primary != "greedy":
        chain.append(("greedy", replace(safe, use_greedy=True)))
    chain.append(("umm-only", None))
    return chain


def run_lcmm(
    graph: ComputationGraph,
    accel: AcceleratorConfig,
    options: LCMMOptions | None = None,
    model: LatencyModel | None = None,
    pipeline: Sequence[Pass] | None = None,
    fallback: bool = True,
    cache: "CompilationCache | None" = None,
) -> LCMMResult:
    """Run the full LCMM pipeline on a model and design point.

    Args:
        graph: The DNN computation graph.
        accel: The accelerator design point (from DSE).
        options: Feature switches; defaults enable everything.
        model: Optional pre-built latency model to reuse; without one,
            the compile builds one and every attempt shares it.
        pipeline: Optional explicit pass list, overriding the default
            assembled from ``options`` — the entry point for custom and
            ablation pipelines (it must still produce the
            ``"allocation"``, ``"score"`` and ``"placement"`` artifacts).
        fallback: Degrade along the chain *requested pipeline -> DNNK ->
            greedy -> UMM-only* instead of raising when a pass fails or
            a result violates an invariant; the landed level is recorded
            in :attr:`LCMMResult.degradation_level`.  With ``False``, the
            first failure propagates.
        cache: Optional :class:`~repro.cache.store.CompilationCache`.
            When given, the compilation is short-circuited by a
            content-addressed lookup (key: canonical graph + every
            design-point field + options + cache schema version) and
            healthy results are stored back.  Off by default; custom
            ``pipeline`` objects cannot be fingerprinted, so they bypass
            the cache, and only ``degradation_level == 0`` results are
            ever stored — a degraded artifact must not mask a fixed
            fault on the next run.

    Raises:
        repro.errors.ReproError: With ``fallback=False``, whatever the
            failing pass raised, or the
            :class:`~repro.errors.AllocationError` of a violated
            invariant; with ``fallback=True`` only if even the
            UMM-only floor cannot be built (e.g. the tile buffers do not
            fit the device at all).
    """
    options = options or LCMMOptions()
    cache_key: str | None = None
    if cache is not None and pipeline is None:
        cache_key = compile_key(graph, accel, options)
        cached = cache.get(cache_key)
        if cached is not None:
            with obs_span("lcmm.run", graph=graph.name, cached=True) as run_span:
                run_span.annotate(
                    "lcmm.result",
                    landed=cached.pipeline_description or "umm-only",
                    degradation_level=cached.degradation_level,
                    cached=True,
                )
                if obs_enabled():
                    _publish_run_metrics(cached, graph.name)
                return cached
    # One model serves every attempt of the chain, the UMM floor included.
    model = model or LatencyModel(graph, accel)
    attempts = _degradation_chain(options, pipeline)
    failed: list[str] = []
    carried: list[PassDiagnostic] = []
    with obs_span("lcmm.run", graph=graph.name, fallback=fallback) as run_span:
        for label, attempt_options in attempts:
            if attempt_options is None:
                with obs_span("lcmm.attempt", label=label, graph=graph.name):
                    result = umm_only_result(graph, accel, model=model)
            else:
                attempt_pipeline = (
                    list(pipeline)
                    if pipeline is not None and label == attempts[0][0]
                    else default_pipeline(attempt_options)
                )
                ctx = CompilationContext.create(
                    graph, accel, options=attempt_options, model=model
                )
                # The model before fusion: FuseLayersPass swaps ctx.model.
                base_model = ctx.model
                manager = PassManager(attempt_pipeline)
                try:
                    with obs_span("lcmm.attempt", label=label, graph=graph.name):
                        manager.run(ctx)
                        result = package_result(ctx, manager)
                        validate_result(result, base_model)
                except PipelineError:
                    # A malformed pipeline (unknown pass, broken artifact
                    # contract) is a caller error, not a runtime fault —
                    # degrading would silently ignore the caller's request.
                    raise
                except DeadlineExceeded:
                    # An expired request budget must fail fast: degrading
                    # would burn more of a budget that is already spent
                    # (every weaker attempt would trip the same check).
                    raise
                except ReproError as exc:
                    if not fallback:
                        raise
                    failed.append(label)
                    carried.extend(ctx.diagnostics)
                    carried.append(
                        PassDiagnostic(
                            pass_name="framework",
                            category="degraded",
                            message=(
                                f"attempt {label!r} failed "
                                f"({type(exc).__name__}: {exc}); degrading"
                            ),
                            data={"attempt": label, "error": type(exc).__name__},
                        )
                    )
                    obs_annotate(
                        "degraded", attempt=label, error=type(exc).__name__
                    )
                    continue
            result.degradation_level = len(failed)
            result.degradation_path = tuple(failed)
            if carried:
                result.diagnostics = tuple(carried) + result.diagnostics
            if cache_key is not None and result.degradation_level == 0:
                cache.put(cache_key, result, reply=result_reply(result))
            run_span.annotate(
                "lcmm.result",
                landed=result.pipeline_description or "umm-only",
                degradation_level=result.degradation_level,
            )
            if obs_enabled():
                _publish_run_metrics(result, graph.name)
            return result
    raise PassError(  # pragma: no cover — the UMM floor never raises ReproError
        "all degradation levels failed", details={"attempts": [a[0] for a in attempts]}
    )


def _publish_run_metrics(result: LCMMResult, graph_name: str) -> None:
    """Mirror one run's outcome into the process metrics registry.

    Only called while observation is on (``lcmm run --trace``, ``lcmm
    stats``, tests) — the plain compile path records nothing.
    """
    registry = obs_registry()
    registry.counter("lcmm.runs", "LCMM compilations completed").inc(
        graph=graph_name
    )
    registry.gauge(
        "lcmm.degradation_level", "fallback-chain level of the last run"
    ).set(result.degradation_level, graph=graph_name)
    registry.histogram("lcmm.latency_seconds", "end-to-end Eq. 1 latency").observe(
        result.latency, graph=graph_name
    )
    registry.gauge("lcmm.used_bytes", "block-rounded SRAM consumption").set(
        result.sram_usage.used_bytes, graph=graph_name
    )
    registry.gauge("lcmm.onchip_tensors", "tensor values resident on chip").set(
        len(result.onchip_tensors), graph=graph_name
    )
    if result.engine_stats is not None:
        result.engine_stats.publish(registry, graph=graph_name)
