"""Tests for repro.lcmm.validate — the invariant checker itself, and
its place as the post-condition of every compile."""

from dataclasses import replace

import pytest

from repro.lcmm.framework import LCMMOptions, run_lcmm, umm_only_result
from repro.lcmm.passes import ScorePass, default_pipeline
from repro.lcmm.validate import AllocationError, validate_buffers, validate_result
from repro.models.zoo import get_model
from repro.perf.latency import LatencyModel
from repro.robustness.inject import FaultPlan, injected

from tests.conftest import build_chain, small_accel


@pytest.fixture
def valid_setup():
    graph = build_chain(num_convs=6, channels=128, hw=14)
    accel = small_accel(ddr_efficiency=0.1)
    model = LatencyModel(graph, accel)
    lcmm = run_lcmm(graph, accel, model=model)
    return model, lcmm


class TestAllocationErrorRebase:
    def test_taxonomy_membership(self):
        from repro.errors import ReproError

        assert issubclass(AllocationError, ReproError)
        assert not issubclass(AllocationError, AssertionError)

    def test_carries_structured_context(self):
        err = AllocationError("URAM over-committed", details={"used": 801})
        assert "used=801" in str(err)
        assert err.context()["used"] == 801


class TestValidatorAcceptsGoodResults:
    def test_valid_result_passes(self, valid_setup):
        model, lcmm = valid_setup
        validate_result(lcmm, model)
        validate_buffers(lcmm)

    def test_umm_floor_passes(self, valid_setup):
        model, _ = valid_setup
        validate_result(umm_only_result(model.graph, model.accel, model), model)


class TestValidatorCatchesCorruption:
    def test_latency_worse_than_umm_detected(self, valid_setup):
        model, lcmm = valid_setup
        lcmm.latency = model.umm_latency() * 2
        with pytest.raises(AllocationError, match="exceeds UMM"):
            validate_result(lcmm, model)

    def test_latency_below_compute_bound_detected(self, valid_setup):
        model, lcmm = valid_setup
        lcmm.latency = model.compute_bound_latency() / 2
        # Per-node monotonicity may also fire; either way it must raise.
        with pytest.raises(AllocationError):
            validate_result(lcmm, model)

    def test_slower_node_detected(self, valid_setup):
        model, lcmm = valid_setup
        node = model.nodes()[0]
        lcmm.node_latencies[node] = model.node_latency(node) * 10
        with pytest.raises(AllocationError, match="slower"):
            validate_result(lcmm, model)

    def test_residual_on_offchip_tensor_detected(self, valid_setup):
        model, lcmm = valid_setup
        lcmm.residuals["w:ghost"] = 1.0
        with pytest.raises(AllocationError, match="off-chip tensor"):
            validate_result(lcmm, model)

    def test_negative_residual_detected(self, valid_setup):
        model, lcmm = valid_setup
        if lcmm.onchip_tensors:
            weight = next(
                (t for t in lcmm.onchip_tensors if t.startswith("w:")), None
            )
            if weight is not None:
                lcmm.residuals[weight] = -1.0
                with pytest.raises(AllocationError):
                    validate_result(lcmm, model)

    def test_overcommitted_uram_detected(self, valid_setup):
        model, lcmm = valid_setup
        lcmm.sram_usage.uram_used = lcmm.sram_usage.budget.uram_blocks + 1
        with pytest.raises(AllocationError, match="URAM"):
            validate_result(lcmm, model)

    def test_onchip_set_mismatch_detected(self, valid_setup):
        model, lcmm = valid_setup
        lcmm.onchip_tensors = lcmm.onchip_tensors | {"f:phantom"}
        with pytest.raises(AllocationError, match="does not match"):
            validate_result(lcmm, model)


class TestUmmDecomposition:
    @pytest.mark.parametrize("model_name", ["googlenet", "resnet50", "bert_base"])
    def test_engine_tables_equal_the_model_bit_for_bit(self, model_name):
        # The checker reads the UMM per-node latencies and their sum from
        # the node table the model characterised, which every compile's
        # engine reads too.
        model = LatencyModel(get_model(model_name), small_accel(ddr_efficiency=0.1))
        table = model.node_table
        assert table.names == model.nodes()
        assert list(table.umm) == [
            model.layer(n).latency() for n in model.nodes()
        ]
        assert sum(table.umm) == model.umm_latency()
        assert sum(table.compute) == model.compute_bound_latency()


class _InflatedScore(ScorePass):
    """Scores the allocation, then publishes a latency above UMM."""

    def run(self, ctx) -> None:
        super().run(ctx)
        score = ctx.require("score")
        ctx.put("score", replace(score, latency=ctx.model.umm_latency() * 2))


def _inflated_pipeline():
    return [
        _InflatedScore() if isinstance(p, ScorePass) else p
        for p in default_pipeline(LCMMOptions())
    ]


class TestPostCondition:
    """run_lcmm validates every attempt; a violation degrades like a failing pass."""

    def test_violating_pipeline_degrades(self, valid_setup):
        model, _ = valid_setup
        result = run_lcmm(
            model.graph, model.accel, model=model, pipeline=_inflated_pipeline()
        )
        assert result.degradation_level == 1
        assert result.degradation_path == ("custom",)
        (degraded,) = [d for d in result.diagnostics if d.category == "degraded"]
        assert degraded.data["error"] == "AllocationError"
        assert "exceeds UMM" in degraded.message
        validate_result(result, model)

    def test_violating_pipeline_raises_without_fallback(self, valid_setup):
        model, _ = valid_setup
        with pytest.raises(AllocationError, match="exceeds UMM"):
            run_lcmm(
                model.graph, model.accel, model=model,
                pipeline=_inflated_pipeline(), fallback=False,
            )

    def test_failing_fractional_fill_lands_on_dnnk(self, valid_setup):
        model, _ = valid_setup
        with injected(FaultPlan("pass.fractional_fill", mode="raise")) as armed:
            result = run_lcmm(
                model.graph, model.accel, model=model,
                options=LCMMOptions(fractional_fill=True),
            )
        assert armed["pass.fractional_fill"].fires == 1
        assert result.degradation_level == 1
        assert result.degradation_path == ("dnnk-splitting",)
        assert result.pipeline_description == (
            "feature_reuse -> weight_prefetch -> allocate_dnnk -> score -> placement"
        )
        assert result.fractions == {}
        assert any(d.category == "degraded" for d in result.diagnostics)
        failed = [d for d in result.diagnostics if d.category == "pass-failed"]
        assert [d.pass_name for d in failed] == ["fractional_fill"]
        validate_result(result, model)
