"""The pass pipeline: registry, PassManager contracts, diagnostics.

Covers the compiler-style infrastructure around the techniques — the
numeric behaviour of the passes themselves is exercised by the existing
framework/fractional suites and the engine parity tests.
"""

from __future__ import annotations

import pytest

from repro.lcmm.framework import LCMMOptions, run_lcmm
from repro.lcmm.passes import (
    PASS_REGISTRY,
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

from tests.conftest import build_snippet, small_accel

STANDARD_PASSES = (
    "feature_reuse",
    "weight_prefetch",
    "allocate_dnnk",
    "allocate_greedy",
    "allocate_splitting",
    "score",
    "placement",
    "fractional_fill",
)


class TestRegistry:
    def test_standard_passes_registered(self):
        names = set(registered_passes())
        assert set(STANDARD_PASSES) <= names

    def test_make_pass_unknown_name(self):
        with pytest.raises(PipelineError, match="unknown pass"):
            make_pass("nope")

    def test_register_duplicate_name_rejected(self):
        class Impostor(Pass):
            name = "score"

            def run(self, ctx):
                pass

        with pytest.raises(PipelineError, match="already registered"):
            register_pass(Impostor)
        assert PASS_REGISTRY["score"] is not Impostor

    def test_register_unnamed_pass_rejected(self):
        class Nameless(Pass):
            def run(self, ctx):
                pass

        with pytest.raises(PipelineError, match="no name"):
            register_pass(Nameless)

    def test_describe_is_first_docstring_line(self):
        summary = type(make_pass("score")).describe()
        assert summary
        assert "\n" not in summary

    def test_pipeline_from_names_preserves_order(self):
        names = ("weight_prefetch", "feature_reuse", "allocate_dnnk")
        assert tuple(p.name for p in pipeline_from_names(names)) == names


class TestPassManagerContracts:
    def test_missing_required_artifact_raises(self, snippet_graph, accel):
        ctx = CompilationContext.create(snippet_graph, accel)
        manager = PassManager(pipeline_from_names(["score"]))
        with pytest.raises(PipelineError, match="requires artifact 'allocation'"):
            manager.run(ctx)

    def test_undeclared_produce_raises(self, snippet_graph, accel):
        class Lying(Pass):
            name = "lying"
            produces = ("allocation",)

            def run(self, ctx):
                pass

        ctx = CompilationContext.create(snippet_graph, accel)
        with pytest.raises(PipelineError, match="did not publish"):
            PassManager([Lying()]).run(ctx)

    def test_observers_see_every_pass(self, snippet_graph, accel):
        seen = []
        ctx = CompilationContext.create(snippet_graph, accel)
        manager = PassManager(
            default_pipeline(ctx.options),
            observers=[lambda p, c, s: seen.append((p.name, s))],
        )
        manager.run(ctx)
        assert [name for name, _ in seen] == [p.name for p in manager.passes]
        assert all(seconds >= 0.0 for _, seconds in seen)

    def test_description_and_timings_match_execution(self, snippet_graph, accel):
        ctx = CompilationContext.create(snippet_graph, accel)
        manager = PassManager(default_pipeline(ctx.options))
        manager.run(ctx)
        names = [name for name, _ in manager.timings()]
        assert manager.description() == " -> ".join(names)
        assert names == [p.name for p in manager.passes]

    def test_pass_timings_mirrored_into_engine_stats(self, snippet_graph, accel):
        ctx = CompilationContext.create(snippet_graph, accel)
        manager = PassManager(default_pipeline(ctx.options))
        manager.run(ctx)
        for name, _ in manager.timings():
            assert name in ctx.stats.pass_seconds


class TestCompilationContext:
    def test_require_missing_artifact(self, snippet_graph, accel):
        ctx = CompilationContext.create(snippet_graph, accel)
        with pytest.raises(PipelineError, match="'score'"):
            ctx.require("score")

    def test_budget_smaller_than_tile_buffers(self, snippet_graph, accel):
        with pytest.raises(ValueError, match="exceed"):
            CompilationContext.create(
                snippet_graph, accel, options=LCMMOptions(sram_budget=1)
            )

    def test_context_always_builds_engine(self, snippet_graph, accel):
        ctx = CompilationContext.create(snippet_graph, accel)
        assert ctx.engine.model is ctx.model
        assert ctx.stats is ctx.engine.stats


class TestRunLcmmPipelines:
    def test_explicit_pipeline_matches_option_flags(self):
        graph, accel = build_snippet(), small_accel()
        by_options = run_lcmm(
            graph, accel, options=LCMMOptions(weight_prefetch=False)
        )
        by_pipeline = run_lcmm(
            graph,
            accel,
            pipeline=pipeline_from_names(
                ("feature_reuse", "allocate_splitting", "score", "placement")
            ),
        )
        assert by_pipeline.latency == by_options.latency
        assert by_pipeline.onchip_tensors == by_options.onchip_tensors
        assert by_pipeline.node_latencies == by_options.node_latencies

    def test_result_carries_pipeline_metadata(self):
        result = run_lcmm(build_snippet(), small_accel())
        assert result.pipeline_description == (
            "feature_reuse -> weight_prefetch -> allocate_splitting "
            "-> score -> placement"
        )
        assert [name for name, _ in result.pass_timings] == [
            "feature_reuse", "weight_prefetch", "allocate_splitting",
            "score", "placement",
        ]
        assert result.diagnostics
        for diag in result.diagnostics:
            assert isinstance(diag, PassDiagnostic)
            assert str(diag).startswith(f"[{diag.pass_name}] ")

    def test_pipeline_without_placement_rejected(self):
        with pytest.raises(PipelineError, match="'placement'"):
            run_lcmm(
                build_snippet(),
                small_accel(),
                pipeline=pipeline_from_names(("allocate_dnnk", "score")),
            )

    def test_custom_registered_pass_runs_end_to_end(self):
        @register_pass
        class AuditPass(Pass):
            """Counts resident bytes after placement (test-only)."""

            name = "audit"
            requires = ("allocation", "placement")
            produces = ("audit",)

            def run(self, ctx):
                allocation = ctx.require("allocation")
                total = sum(b.size_bytes for b in allocation.result.allocated)
                ctx.put("audit", total)
                ctx.diagnose(self.name, "summary", f"{total} resident bytes")

        try:
            options = LCMMOptions()
            result = run_lcmm(
                build_snippet(),
                small_accel(),
                options=options,
                pipeline=default_pipeline(options) + [make_pass("audit")],
            )
        finally:
            del PASS_REGISTRY["audit"]
        assert result.pipeline_description.endswith("-> audit")
        audits = [d for d in result.diagnostics if d.pass_name == "audit"]
        assert len(audits) == 1 and audits[0].message.endswith("resident bytes")
        # The audit rides along without changing the compilation itself.
        baseline = run_lcmm(build_snippet(), small_accel())
        assert result.latency == baseline.latency
