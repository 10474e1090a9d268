"""The standard LCMM passes — Fig. 4 of the paper, one class per stage.

Each technique of the monolithic ``run_lcmm`` is re-expressed as a
registered :class:`~repro.lcmm.passes.core.Pass`:

* :class:`FeatureReusePass` — liveness + colouring of feature tensors
  (Sec. 3.1), publishes ``"feature"``;
* :class:`WeightPrefetchPass` — the PDG and weight buffer colouring
  (Sec. 3.2), publishes ``"prefetch"``;
* :class:`DNNKAllocatePass` / :class:`GreedyAllocatePass` /
  :class:`SplittingAllocatePass` — the allocator variants (Sec. 3.3 /
  ablation baseline / Sec. 3.4), publish ``"allocation"``;
* :class:`ScorePass` — exact Eq. 1 scoring with prefetch residuals,
  publishes ``"score"``;
* :class:`RefinementPass` — the optional prefetch fixpoint, *as a pass*
  rather than a driver loop, republishes ``"prefetch"``/``"allocation"``/
  ``"score"`` on accepted iterations;
* :class:`PlacementPass` — block-granular URAM/BRAM placement, publishes
  ``"placement"``;
* :class:`FractionalFillPass` — the partial-residency extension,
  publishes ``"fractions"`` and republishes ``"score"``;
* :class:`FuseLayersPass` — LoopTree-style fused-layer tiling
  (:mod:`repro.lcmm.fusion`): adjacent producer/consumer pairs whose
  intermediate tile fits the provisioned input tile buffer stream
  through on-chip instead of round-tripping DRAM, with reuse-aware
  shortcut handling; publishes ``"fusion"`` and, when the fused
  candidate wins, swaps the context's model/engine and republishes
  ``"allocation"``/``"score"``;
* :class:`TransferSchedulePass` — SoMa-style DMA scheduling
  (:func:`repro.sim.simulate` with its load window): every transfer is
  slotted onto its DDR channel with a double-buffered prefetch window;
  publishes
  ``"transfer_schedule"`` and republishes ``"score"`` when the
  scheduled makespan beats the bulk-synchronous Eq. 1 timeline.

All numeric work is byte-identical to the pre-pipeline monolith: the
passes call the same technique functions with the same inputs in the
same order, and the incremental engine never changes arithmetic, only
what gets recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import AllocationError
from repro.hw.sram import SRAMUsage, blocks_for, BRAM36_BYTES
from repro.ir.tensor import TensorKind, weight_tensor_name
from repro.lcmm.buffers import PhysicalBuffer, VirtualBuffer
from repro.lcmm.dnnk import DNNKResult, dnnk_allocate, greedy_allocate
from repro.lcmm.feature_reuse import FeatureReuseResult, feature_reuse_pass
from repro.lcmm.fusion import FusedEdge, apply_fusion, find_fusion_candidates
from repro.lcmm.interference import InterferenceGraph
from repro.lcmm.passes.core import CompilationContext, Pass, register_pass
from repro.lcmm.prefetch import PrefetchResult, weight_prefetch_pass
from repro.lcmm.splitting import buffer_splitting_pass, combine_buffers
from repro.perf.engine import AllocationEngine
from repro.sim import Timeline, demand_bytes, simulate


# ---------------------------------------------------------------------------
# Artifact types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AllocationDecision:
    """The ``"allocation"`` artifact: what the allocator chose.

    Attributes:
        buffers: Combined virtual buffer list the allocator ran on.
        result: The DNNK (or greedy) outcome.
        splitting_iterations: Buffer splits that were kept (0 for the
            non-splitting variants).
    """

    buffers: list[VirtualBuffer]
    result: DNNKResult
    splitting_iterations: int = 0


@dataclass(frozen=True)
class AllocationScore:
    """The ``"score"`` artifact: the exact evaluation of an allocation.

    Attributes:
        onchip: Tensor values fully resident on chip.
        residuals: Unhidden prefetch seconds per on-chip weight tensor.
        latency: Exact end-to-end latency (Eq. 1 + residuals).
        node_latencies: Per executed node latency under the allocation.
    """

    onchip: frozenset[str]
    residuals: dict[str, float]
    latency: float
    node_latencies: dict[str, float]


@dataclass(frozen=True)
class FusionDecision:
    """The ``"fusion"`` artifact: what the fused-tiling pass decided.

    Attributes:
        edges: Accepted fusion edges (empty when fusion found no legal
            candidates or the fused evaluation did not improve Eq. 1).
        bytes_saved: DDR bytes the accepted edges remove per inference.
        candidates: Legal edges considered (accepted or not).
        reallocated: The winning fused evaluation re-ran the allocator
            on the fused model (vs keeping the incumbent on-chip set).
    """

    edges: tuple[FusedEdge, ...] = ()
    bytes_saved: int = 0
    candidates: int = 0
    reallocated: bool = False

    @property
    def accepted(self) -> bool:
        return bool(self.edges)


@dataclass(frozen=True)
class Placement:
    """The ``"placement"`` artifact: block-level physical memory map.

    ``usage`` is a live ledger: a later pass that claims more blocks
    (fractional fill) allocates from it rather than replacing it.
    """

    usage: SRAMUsage
    buffers: list[PhysicalBuffer] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Shared evaluation helpers
# ---------------------------------------------------------------------------


def empty_feature_result() -> FeatureReuseResult:
    """The no-op feature artifact (feature reuse disabled or not run)."""
    return FeatureReuseResult(
        candidates=[], interference=InterferenceGraph(), buffers=[]
    )


def empty_prefetch_result() -> PrefetchResult:
    """The no-op prefetch artifact (prefetching disabled or not run)."""
    return PrefetchResult(
        edges={}, candidates=[], interference=InterferenceGraph(), buffers=[]
    )


def empty_dnnk_result(capacity_bytes: int = 0) -> DNNKResult:
    """An allocator outcome that keeps every tensor in DDR (UMM-only)."""
    return DNNKResult(
        allocated=[],
        spilled=[],
        onchip_tensors=frozenset(),
        predicted_reduction=0.0,
        capacity_bytes=capacity_bytes,
        used_bytes=0,
    )


def compute_residuals(
    prefetch: PrefetchResult,
    onchip: frozenset[str],
    engine: AllocationEngine,
) -> dict[str, float]:
    """Unhidden prefetch time per on-chip weight tensor.

    Hiding capacity is re-measured on the *post-allocation* schedule:
    pinning tensors on chip makes earlier nodes faster, which shrinks the
    window a prefetch can hide behind.

    This performs exactly **one** ``set_state`` jump to ``onchip`` and
    reads the per-node latencies and weight-interface demands from the
    cached state; the engine is left parked there, so callers that need
    residuals folded in patch them incrementally (see
    :func:`evaluate_allocation`) instead of issuing a second absolute
    jump.
    """
    engine.set_state(onchip)
    # A node's hiding capacity is its latency minus its weight-interface
    # demand under `onchip` — exactly the engine's cached kind-1 sum.
    capacities = [
        max(0.0, lat - engine.weight_demand(ni))
        for ni, lat in enumerate(engine.node_latency_list())
    ]
    index_of = engine.node_index
    residuals: dict[str, float] = {}
    for node, edge in prefetch.edges.items():
        wname = weight_tensor_name(node)
        if wname not in onchip:
            continue
        start, end = index_of[edge.start], index_of[node]
        hidden = sum(capacities[start:end])
        residual = max(0.0, edge.load_time - hidden)
        if residual > 0.0:
            residuals[wname] = residual
    return residuals


def evaluate_allocation(
    prefetch: PrefetchResult,
    onchip: frozenset[str],
    engine: AllocationEngine,
) -> tuple[dict[str, float], float]:
    """Residuals and exact end-to-end latency of one candidate allocation.

    This is the allocator probe.  It costs a single ``set_state``
    transition (plus one incremental residual patch only when residuals
    exist) and leaves the engine parked on ``(onchip, residuals)``.
    """
    residuals = compute_residuals(prefetch, onchip, engine)
    if residuals:
        engine.apply(residuals=residuals)
    return residuals, engine.total()


# ---------------------------------------------------------------------------
# Technique passes
# ---------------------------------------------------------------------------


@register_pass
class FeatureReusePass(Pass):
    """Feature buffer reuse: liveness, interference, colouring (Sec. 3.1)."""

    name = "feature_reuse"
    produces = ("feature",)

    def run(self, ctx: CompilationContext) -> None:
        result = feature_reuse_pass(ctx.graph, ctx.model)
        ctx.put("feature", result)
        ctx.diagnose(
            self.name,
            "summary",
            f"{len(result.candidates)} candidate feature tensors -> "
            f"{len(result.buffers)} virtual buffers",
            candidates=len(result.candidates),
            buffers=len(result.buffers),
        )


@register_pass
class WeightPrefetchPass(Pass):
    """Weight prefetching: PDG back-trace and buffer colouring (Sec. 3.2)."""

    name = "weight_prefetch"
    produces = ("prefetch",)

    def run(self, ctx: CompilationContext) -> None:
        result = weight_prefetch_pass(ctx.graph, ctx.model)
        ctx.put("prefetch", result)
        hidden = sum(1 for e in result.edges.values() if e.fully_hidden)
        ctx.diagnose(
            self.name,
            "summary",
            f"{len(result.edges)} prefetch edges ({hidden} fully hidden) -> "
            f"{len(result.buffers)} virtual buffers",
            edges=len(result.edges),
            fully_hidden=hidden,
            buffers=len(result.buffers),
        )


class _AllocateBase(Pass):
    """Shared machinery of the allocator variants."""

    produces = ("allocation",)

    def verify(self, ctx: CompilationContext) -> None:
        """Strict check: the chosen allocation fits and is consistent."""
        allocation: AllocationDecision = ctx.require("allocation")
        result = allocation.result
        if result.used_bytes > result.capacity_bytes:
            raise AllocationError(
                f"allocator used {result.used_bytes} of "
                f"{result.capacity_bytes} capacity bytes",
                pass_name=self.name,
            )
        from_buffers = {
            t.name for buf in result.allocated for t in buf.tensors
        }
        if from_buffers != set(result.onchip_tensors):
            raise AllocationError(
                "on-chip tensor set does not match the allocated buffers",
                pass_name=self.name,
            )

    def _inputs(
        self, ctx: CompilationContext
    ) -> tuple[FeatureReuseResult, PrefetchResult]:
        # The colouring passes are optional (ablations omit them); a
        # missing artifact means an empty tensor population.
        feature = ctx.get("feature")
        if feature is None:
            feature = empty_feature_result()
        prefetch = ctx.get("prefetch")
        if prefetch is None:
            prefetch = empty_prefetch_result()
        return feature, prefetch

    def _summarise(self, ctx: CompilationContext, result: DNNKResult) -> None:
        ctx.diagnose(
            self.name,
            "summary",
            f"{len(result.allocated)} buffers on chip, "
            f"{len(result.spilled)} spilled, "
            f"{result.used_bytes} of {result.capacity_bytes} bytes used",
            allocated=len(result.allocated),
            spilled=len(result.spilled),
            used_bytes=result.used_bytes,
            capacity_bytes=result.capacity_bytes,
        )


@register_pass
class DNNKAllocatePass(_AllocateBase):
    """DNNK: the pivot-compensated 0/1 knapsack allocator (Sec. 3.3)."""

    name = "allocate_dnnk"

    def run(self, ctx: CompilationContext) -> None:
        feature, prefetch = self._inputs(ctx)
        buffers = combine_buffers([feature.buffers, prefetch.buffers])
        result = dnnk_allocate(
            buffers, ctx.model, ctx.capacity, ctx.options.granularity,
            engine=ctx.engine,
        )
        ctx.put("allocation", AllocationDecision(buffers=buffers, result=result))
        self._summarise(ctx, result)


@register_pass
class GreedyAllocatePass(_AllocateBase):
    """Density-greedy allocator — the ablation baseline DNNK is measured against."""

    name = "allocate_greedy"

    def run(self, ctx: CompilationContext) -> None:
        feature, prefetch = self._inputs(ctx)
        buffers = combine_buffers([feature.buffers, prefetch.buffers])
        result = greedy_allocate(buffers, ctx.model, ctx.capacity, engine=ctx.engine)
        ctx.put("allocation", AllocationDecision(buffers=buffers, result=result))
        self._summarise(ctx, result)


@register_pass
class SplittingAllocatePass(_AllocateBase):
    """DNNK with buffer splitting: false-edge retries against misspilling (Sec. 3.4)."""

    name = "allocate_splitting"

    def run(self, ctx: CompilationContext) -> None:
        feature, prefetch = self._inputs(ctx)
        model, engine = ctx.model, ctx.engine

        def evaluate(onchip: frozenset[str]) -> float:
            return evaluate_allocation(prefetch, onchip, engine)[1]

        outcome = buffer_splitting_pass(
            feature.interference,
            prefetch.interference,
            model,
            ctx.capacity,
            evaluate,
            granularity=ctx.options.granularity,
            engine=engine,
        )
        ctx.put(
            "allocation",
            AllocationDecision(
                buffers=outcome.buffers,
                result=outcome.result,
                splitting_iterations=outcome.iterations,
            ),
        )
        # The splitting loop may have added false edges; republish the
        # per-technique results with the loop's colourings of the final
        # graphs.  New objects, not field patches — pass results stay
        # immutable once published.
        ctx.put("feature", replace(feature, buffers=outcome.feature_buffers))
        ctx.put("prefetch", replace(prefetch, buffers=outcome.weight_buffers))
        for attempt in outcome.attempts:
            if attempt.accepted:
                ctx.diagnose(
                    self.name,
                    "split-accepted",
                    "misspilling split accepted: separated "
                    f"{attempt.tensor_a!r} from {attempt.tensor_b!r} "
                    f"(latency {attempt.latency:.3e}s)",
                    tensor_a=attempt.tensor_a,
                    tensor_b=attempt.tensor_b,
                    latency=attempt.latency,
                )
            else:
                ctx.diagnose(
                    self.name,
                    "split-rejected",
                    f"split of {attempt.tensor_a!r} from {attempt.tensor_b!r} "
                    "rejected: Δlatency ≥ 0",
                    tensor_a=attempt.tensor_a,
                    tensor_b=attempt.tensor_b,
                    latency=attempt.latency,
                )
        self._summarise(ctx, outcome.result)


@register_pass
class ScorePass(Pass):
    """Exact Eq. 1 scoring of the chosen allocation, residuals included."""

    name = "score"
    requires = ("allocation",)
    produces = ("score",)

    def run(self, ctx: CompilationContext) -> None:
        allocation: AllocationDecision = ctx.require("allocation")
        prefetch = ctx.get("prefetch")
        if prefetch is None:
            prefetch = empty_prefetch_result()
        onchip = allocation.result.onchip_tensors
        residuals, latency = evaluate_allocation(prefetch, onchip, ctx.engine)
        node_latencies = ctx.engine.node_latencies()
        ctx.put(
            "score",
            AllocationScore(
                onchip=onchip,
                residuals=residuals,
                latency=latency,
                node_latencies=node_latencies,
            ),
        )

    def verify(self, ctx: CompilationContext) -> None:
        _verify_score(self.name, ctx)


def _verify_score(pass_name: str, ctx: CompilationContext) -> None:
    """Strict check shared by the scoring passes.

    The score must sit inside the paper's bounds — never slower than UMM,
    never faster than the compute bound — and residuals may only attach
    to on-chip weight tensors.  Reads only the pure latency model.
    """
    score: AllocationScore = ctx.require("score")
    umm = ctx.model.umm_latency()
    if score.latency > umm + 1e-12:
        raise AllocationError(
            f"scored latency {score.latency} exceeds UMM latency {umm}",
            pass_name=pass_name,
        )
    floor = ctx.model.compute_bound_latency()
    if score.latency < floor - 1e-12:
        raise AllocationError(
            f"scored latency {score.latency} below compute bound {floor}",
            pass_name=pass_name,
        )
    for tensor, residual in score.residuals.items():
        if tensor not in score.onchip:
            raise AllocationError(
                f"residual on off-chip tensor {tensor!r}", pass_name=pass_name
            )
        if residual < 0:
            raise AllocationError(
                f"negative residual on {tensor!r}", pass_name=pass_name
            )


@register_pass
class FuseLayersPass(Pass):
    """Fused-layer tiling: adjacent pairs stream through on-chip.

    Finds every legal fusion edge (:func:`repro.lcmm.fusion.
    find_fusion_candidates`), derives the fused latency model with the
    fused streams zeroed, and evaluates two fused candidates exactly:

    * **keep** — the incumbent on-chip set re-scored on the fused model,
    * **reallocate** — the allocator re-run against the fused model, so
      the knapsack (and through it the DSE sweep and the cache) sees the
      post-fusion marginal gains of every buffer.

    The better of the two replaces the context's model, engine and
    score **only when it strictly improves** the Eq. 1 objective —
    zeroing a shortcut producer's read can shrink prefetch hiding
    windows, so monotonicity is enforced by evaluation, not assumed.
    """

    name = "fuse_layers"
    requires = ("allocation", "score")
    produces = ("fusion",)

    def run(self, ctx: CompilationContext) -> None:
        allocation: AllocationDecision = ctx.require("allocation")
        score: AllocationScore = ctx.require("score")
        prefetch = ctx.get("prefetch")
        if prefetch is None:
            prefetch = empty_prefetch_result()

        edges = find_fusion_candidates(ctx.model)
        if not edges:
            ctx.put("fusion", FusionDecision())
            ctx.diagnose(
                self.name,
                "fusion-none",
                "no legal fusion candidates in the schedule",
            )
            return

        fused_model = apply_fusion(ctx.model, edges)
        fused_engine = AllocationEngine(fused_model, stats=ctx.stats)
        # Candidate "keep": the incumbent on-chip set on the fused model.
        keep_residuals, keep_latency = evaluate_allocation(
            prefetch, score.onchip, fused_engine
        )
        # Candidate "reallocate": the allocator re-run on the fused model.
        if ctx.options.use_greedy:
            fused_dnnk = greedy_allocate(
                allocation.buffers, fused_model, ctx.capacity, engine=fused_engine
            )
        else:
            fused_dnnk = dnnk_allocate(
                allocation.buffers,
                fused_model,
                ctx.capacity,
                ctx.options.granularity,
                engine=fused_engine,
            )
        reall_residuals, reall_latency = evaluate_allocation(
            prefetch, fused_dnnk.onchip_tensors, fused_engine
        )

        reallocate = reall_latency < keep_latency - 1e-15
        best = reall_latency if reallocate else keep_latency
        if best >= score.latency - 1e-15:
            ctx.put("fusion", FusionDecision(candidates=len(edges)))
            ctx.diagnose(
                self.name,
                "fusion-rejected",
                f"fusion of {len(edges)} edges rejected: Δlatency ≥ 0 "
                f"(fused {best:.3e}s vs {score.latency:.3e}s)",
                candidates=len(edges),
                fused_latency=best,
                best_latency=score.latency,
            )
            return

        if reallocate:
            onchip, residuals, latency = (
                fused_dnnk.onchip_tensors, reall_residuals, reall_latency,
            )
            ctx.put(
                "allocation",
                AllocationDecision(
                    buffers=allocation.buffers,
                    result=fused_dnnk,
                    splitting_iterations=allocation.splitting_iterations,
                ),
            )
        else:
            onchip, residuals, latency = (
                score.onchip, keep_residuals, keep_latency,
            )
            # The engine is parked on the losing reallocation trial.
            fused_engine.set_state(onchip, residuals)

        # The fused model is now the model of record: every downstream
        # pass (refinement, placement, fractional fill, scheduling) and
        # the packaged result evaluate against the fused transfers.
        ctx.model = fused_model
        ctx.engine = fused_engine
        node_latencies = fused_engine.node_latencies()
        ctx.put(
            "score",
            AllocationScore(
                onchip=onchip,
                residuals=residuals,
                latency=latency,
                node_latencies=node_latencies,
            ),
        )
        decision = FusionDecision(
            edges=tuple(edges),
            bytes_saved=sum(e.bytes_saved for e in edges),
            candidates=len(edges),
            reallocated=reallocate,
        )
        ctx.put("fusion", decision)
        shortcuts = sum(1 for e in edges if e.shortcut)
        ctx.diagnose(
            self.name,
            "fusion-accepted",
            f"fused {len(edges)} edges ({shortcuts} shortcut-aware, "
            f"{decision.bytes_saved} DDR bytes elided): latency "
            f"{score.latency:.3e}s -> {latency:.3e}s"
            + (" via reallocation" if reallocate else ""),
            edges=len(edges),
            shortcuts=shortcuts,
            bytes_saved=decision.bytes_saved,
            latency=latency,
            previous_latency=score.latency,
            reallocated=reallocate,
        )

    def verify(self, ctx: CompilationContext) -> None:
        decision: FusionDecision = ctx.require("fusion")
        if decision.accepted:
            for edge in decision.edges:
                for slot in ctx.model.layer(edge.consumer).slots:
                    if (
                        slot.kind is TensorKind.IFMAP
                        and slot.tensor == edge.tensor
                        and slot.bytes != 0
                    ):
                        raise AllocationError(
                            f"fused edge {edge.producer!r} -> "
                            f"{edge.consumer!r} still streams its read",
                            pass_name=self.name,
                        )
        _verify_score(self.name, ctx)


@register_pass
class RefinementPass(Pass):
    """Prefetch fixpoint: re-derive hiding windows from the achieved schedule.

    Each iteration recomputes prefetch windows against the current
    (faster) node latencies, re-colours the weight buffers with the new
    lifespans and re-allocates; an iteration is kept only if the exact
    latency improves.  The fixpoint lives here as a pass — the driver no
    longer loops.  On exit the engine is parked on the accepted state,
    whatever trial state the last rejected iteration left it in.
    """

    name = "refinement"
    requires = ("allocation", "score")

    def run(self, ctx: CompilationContext) -> None:
        score: AllocationScore = ctx.require("score")
        prefetch = ctx.get("prefetch")
        if prefetch is None:
            ctx.diagnose(
                self.name,
                "refinement-skipped",
                "refinement skipped: no prefetch artifact in the pipeline",
            )
            return
        feature = ctx.get("feature")
        if feature is None:
            feature = empty_feature_result()
        model, engine, options = ctx.model, ctx.engine, ctx.options
        allocation: AllocationDecision = ctx.require("allocation")
        onchip, residuals = score.onchip, score.residuals
        latency, node_latencies = score.latency, score.node_latencies
        dnnk = allocation.result

        for iteration in range(1, options.prefetch_refinement + 1):
            refined = weight_prefetch_pass(ctx.graph, model, node_latencies)
            refined_buffers = combine_buffers([feature.buffers, refined.buffers])
            if options.use_greedy:
                refined_dnnk = greedy_allocate(
                    refined_buffers, model, ctx.capacity, engine=engine
                )
            else:
                refined_dnnk = dnnk_allocate(
                    refined_buffers, model, ctx.capacity, options.granularity,
                    engine=engine,
                )
            refined_onchip = refined_dnnk.onchip_tensors
            refined_residuals, refined_latency = evaluate_allocation(
                refined, refined_onchip, engine
            )
            if refined_latency >= latency - 1e-15:
                ctx.diagnose(
                    self.name,
                    "refinement-rejected",
                    f"refinement iteration {iteration} rejected: "
                    "Δlatency ≥ 0",
                    iteration=iteration,
                    latency=refined_latency,
                    best_latency=latency,
                )
                break
            ctx.diagnose(
                self.name,
                "refinement-accepted",
                f"refinement iteration {iteration} accepted: "
                f"latency {latency:.3e}s -> {refined_latency:.3e}s",
                iteration=iteration,
                latency=refined_latency,
                previous_latency=latency,
            )
            prefetch, dnnk = refined, refined_dnnk
            onchip, residuals = refined_onchip, refined_residuals
            latency = refined_latency
            node_latencies = engine.node_latencies()
            ctx.put("prefetch", prefetch)
            ctx.put(
                "allocation",
                AllocationDecision(
                    buffers=refined_buffers,
                    result=dnnk,
                    splitting_iterations=allocation.splitting_iterations,
                ),
            )
            ctx.put(
                "score",
                AllocationScore(
                    onchip=onchip,
                    residuals=residuals,
                    latency=latency,
                    node_latencies=node_latencies,
                ),
            )

        # A rejected iteration leaves the engine on its trial state; park
        # it on the accepted allocation so downstream incremental deltas
        # (fractional fill) start from the right baseline.
        engine.set_state(onchip, residuals)

    def verify(self, ctx: CompilationContext) -> None:
        score: AllocationScore = ctx.require("score")
        allocation: AllocationDecision = ctx.require("allocation")
        if score.onchip != allocation.result.onchip_tensors:
            raise AllocationError(
                "refined score and allocation disagree on the on-chip set",
                pass_name=self.name,
            )
        _verify_score(self.name, ctx)


@register_pass
class PlacementPass(Pass):
    """Block-granular physical placement: tile buffers, then URAM-first tensors."""

    name = "placement"
    requires = ("allocation",)
    produces = ("placement",)

    def run(self, ctx: CompilationContext) -> None:
        allocation: AllocationDecision = ctx.require("allocation")
        usage = SRAMUsage(budget=ctx.accel.device.sram)
        usage.bram36_used += blocks_for(ctx.accel.tile_buffer_bytes(), BRAM36_BYTES)
        physical = []
        for idx, vbuf in enumerate(allocation.result.allocated):
            uram, bram = usage.allocate(vbuf.size_bytes)
            physical.append(
                PhysicalBuffer(
                    index=idx, virtual=vbuf, uram_blocks=uram, bram36_blocks=bram
                )
            )
        ctx.put("placement", Placement(usage=usage, buffers=physical))

    def verify(self, ctx: CompilationContext) -> None:
        """Strict check: block-level placement stays within the device."""
        placement: Placement = ctx.require("placement")
        usage = placement.usage
        if usage.uram_used > usage.budget.uram_blocks:
            raise AllocationError("URAM over-committed", pass_name=self.name)
        if usage.bram36_used > usage.budget.bram36_blocks:
            raise AllocationError("BRAM over-committed", pass_name=self.name)
        allocation: AllocationDecision = ctx.require("allocation")
        if len(placement.buffers) != len(allocation.result.allocated):
            raise AllocationError(
                "placement did not place every allocated buffer",
                pass_name=self.name,
            )


@register_pass
class FractionalFillPass(Pass):
    """Partial-residency fill of stranded capacity (extension beyond the paper).

    Whole-tensor knapsacks strand capacity smaller than any remaining
    tensor; this pass pins block-floored *slices* of spilled feature
    tensors into the leftover, best latency-density first, keeping each
    pin only when the exact latency improves.
    """

    name = "fractional_fill"
    requires = ("allocation", "score", "placement")
    produces = ("fractions",)

    def run(self, ctx: CompilationContext) -> None:
        allocation: AllocationDecision = ctx.require("allocation")
        score: AllocationScore = ctx.require("score")
        placement: Placement = ctx.require("placement")
        feature = ctx.get("feature")
        if feature is None:
            feature = empty_feature_result()
        engine = ctx.engine
        granularity = ctx.options.granularity
        usage = placement.usage
        onchip, latency = score.onchip, score.latency

        fractions: dict[str, float] = {}
        allocated_bytes = sum(
            blocks_for(b.size_bytes, granularity) * granularity
            for b in allocation.result.allocated
        )
        leftover = ctx.capacity - allocated_bytes
        spill_candidates = sorted(
            (
                c
                for c in feature.candidates
                if c.name not in onchip and c.latency_reduction > 0
            ),
            key=lambda c: -c.latency_reduction / c.size_bytes,
        )
        for cand in spill_candidates:
            if leftover < granularity:
                break
            # Partial pins occupy whole blocks: floor the usable slice to
            # the capacity quantum so block-level placement cannot
            # overflow the budget.
            usable = min(
                (leftover // granularity) * granularity,
                blocks_for(cand.size_bytes, granularity) * granularity,
            )
            fraction = min(1.0, usable / cand.size_bytes)
            if fraction <= 0.0:
                continue
            trial = dict(fractions)
            trial[cand.name] = fraction
            # One-tensor incremental pin; rolled back on rejection.
            engine.apply(fractions={cand.name: fraction})
            trial_latency = engine.total()
            accepted = False
            if trial_latency < latency - 1e-15:
                block_bytes = blocks_for(
                    min(usable, cand.size_bytes), granularity
                ) * granularity
                if block_bytes <= leftover and usage.can_fit(block_bytes):
                    usage.allocate(block_bytes)
                    fractions = trial
                    latency = trial_latency
                    leftover -= block_bytes
                    accepted = True
                    ctx.diagnose(
                        self.name,
                        "fraction-accepted",
                        f"pinned {fraction:.0%} of {cand.name!r} "
                        f"({block_bytes} bytes)",
                        tensor=cand.name,
                        fraction=fraction,
                        block_bytes=block_bytes,
                    )
            if not accepted:
                engine.undo()
        if fractions:
            ctx.put(
                "score",
                replace(
                    score, latency=latency, node_latencies=engine.node_latencies()
                ),
            )
        ctx.put("fractions", fractions)
        ctx.diagnose(
            self.name,
            "stranded-capacity",
            f"fractional fill stranded {leftover} bytes "
            f"({len(fractions)} partial pins kept)",
            stranded_bytes=leftover,
            pins=len(fractions),
        )

    def verify(self, ctx: CompilationContext) -> None:
        score: AllocationScore = ctx.require("score")
        for tensor, fraction in ctx.require("fractions").items():
            if not 0.0 < fraction <= 1.0:
                raise AllocationError(
                    f"fraction {fraction} for {tensor!r} outside (0, 1]",
                    pass_name=self.name,
                )
            if tensor in score.onchip:
                raise AllocationError(
                    f"fraction pinned for already-resident tensor {tensor!r}",
                    pass_name=self.name,
                )
        _verify_score(self.name, ctx)


@register_pass
class TransferSchedulePass(Pass):
    """DMA transfer scheduling: rewrite the simulator's transfer timeline.

    Runs after placement with the final allocation fixed; list-schedules
    every transfer onto its DDR channel with double-buffered prefetch
    windows (:func:`repro.sim.simulate` with ``overlap_loads``) and, when
    the scheduled makespan beats the bulk-synchronous Eq. 1 total,
    republishes the score with the scheduled latency.  The schedule is
    monotone non-increasing by construction, so this pass can only
    tighten the result.
    """

    name = "transfer_schedule"
    requires = ("score", "placement")
    produces = ("transfer_schedule",)

    def run(self, ctx: CompilationContext) -> None:
        score: AllocationScore = ctx.require("score")
        fractions = ctx.get("fractions", {})
        timeline = simulate(
            ctx.model, score.onchip, score.residuals, fractions,
            overlap_loads=True,
        )
        ctx.put("transfer_schedule", timeline)
        if timeline.makespan < score.latency - 1e-15:
            ctx.put(
                "score",
                replace(
                    score,
                    latency=timeline.makespan,
                    node_latencies=timeline.node_latencies(),
                ),
            )
            ctx.diagnose(
                self.name,
                "schedule-accepted",
                f"scheduled {len(timeline.records)} transfers: latency "
                f"{score.latency:.3e}s -> {timeline.makespan:.3e}s "
                f"({timeline.improvement / score.latency:.1%} hidden by "
                "prefetch windows)",
                transfers=len(timeline.records),
                latency=timeline.makespan,
                previous_latency=score.latency,
            )
        else:
            ctx.diagnose(
                self.name,
                "schedule-neutral",
                f"scheduled {len(timeline.records)} transfers: timeline "
                "already tight (no overlap available)",
                transfers=len(timeline.records),
                latency=score.latency,
            )

    def verify(self, ctx: CompilationContext) -> None:
        timeline: Timeline = ctx.require("transfer_schedule")
        score: AllocationScore = ctx.require("score")
        if timeline.makespan > timeline.baseline + 1e-12:
            raise AllocationError(
                f"scheduled makespan {timeline.makespan} exceeds the "
                f"bulk-synchronous baseline {timeline.baseline}",
                pass_name=self.name,
            )
        expected = demand_bytes(
            ctx.model, score.onchip, score.residuals, ctx.get("fractions", {})
        )
        if timeline.total_bytes != expected:
            raise AllocationError(
                f"scheduled timeline moves {timeline.total_bytes} bytes, "
                f"allocation demands {expected}",
                pass_name=self.name,
            )
        for kind in (TensorKind.IFMAP, TensorKind.WEIGHT, TensorKind.OFMAP):
            recs = timeline.channel_records(kind)
            for a, b in zip(recs, recs[1:]):
                if b.start < a.end - 1e-15:
                    raise AllocationError(
                        f"overlapping transfers on the {kind.value} channel",
                        pass_name=self.name,
                    )
        _verify_score(self.name, ctx)


def default_pipeline(options) -> list[Pass]:
    """The pass list :func:`repro.lcmm.framework.run_lcmm` executes.

    Mirrors the paper's Fig. 4 flow: the enabled colouring techniques,
    one allocator variant, exact scoring, then the optional fixpoint and
    extension passes.  Ablations that used to flip option flags can
    equivalently drop or swap passes here (see
    :func:`repro.lcmm.passes.core.pipeline_from_names`).
    """
    passes: list[Pass] = []
    if options.feature_reuse:
        passes.append(FeatureReusePass())
    if options.weight_prefetch:
        passes.append(WeightPrefetchPass())
    if options.use_greedy:
        passes.append(GreedyAllocatePass())
    elif options.splitting:
        passes.append(SplittingAllocatePass())
    else:
        passes.append(DNNKAllocatePass())
    passes.append(ScorePass())
    if options.fuse_layers:
        passes.append(FuseLayersPass())
    if options.weight_prefetch and options.prefetch_refinement > 0:
        passes.append(RefinementPass())
    passes.append(PlacementPass())
    if options.fractional_fill:
        passes.append(FractionalFillPass())
    if options.transfer_schedule:
        passes.append(TransferSchedulePass())
    return passes
