"""Tests for repro.lcmm.validate — the invariant checker itself."""

import pytest

from repro.lcmm.framework import run_lcmm, umm_only_result
from repro.lcmm.validate import AllocationError, validate_buffers, validate_result
from repro.perf.latency import LatencyModel

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
