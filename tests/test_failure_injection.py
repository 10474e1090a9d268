"""Failure-injection tests: corrupted results must never pass validation.

The validators are the safety net for downstream users; these tests
systematically corrupt every field of a healthy LCMM result and assert
the validator rejects each corruption.  A validator that silently accepts
a broken allocation is worse than none.
"""

from dataclasses import replace

import pytest

from repro.analysis.experiments import (
    FUSION_ABLATION_SRAM_HEADROOM,
    fusion_ablation_design,
)
from repro.errors import ReproError
from repro.hw.precision import INT8
from repro.ir.tensor import TensorKind
from repro.lcmm.buffers import CandidateTensor, TensorClass
from repro.lcmm.framework import LCMMOptions, run_lcmm
from repro.lcmm.fusion import FusedEdge
from repro.lcmm.liveness import LiveRange
from repro.lcmm.passes.standard import fused_model
from repro.lcmm.validate import AllocationError, validate_result
from repro.models.zoo import get_model
from repro.perf.latency import LatencyModel

from tests.conftest import build_chain, small_accel


class TestAllocationErrorTaxonomy:
    def test_is_repro_error(self):
        assert issubclass(AllocationError, ReproError)

    def test_not_an_assertion_error(self):
        # Historically AllocationError derived from AssertionError, so a
        # broad ``except AssertionError`` (or ``python -O``-style habits)
        # could swallow a real invariant violation.  The taxonomy rebased
        # it; a bare assert-handler must NOT catch it any more.
        assert not issubclass(AllocationError, AssertionError)
        with pytest.raises(AllocationError):
            try:
                raise AllocationError("invariant violated")
            except AssertionError:  # pragma: no cover - must not trigger
                pytest.fail("AssertionError handler swallowed AllocationError")

    def test_importable_from_both_homes(self):
        from repro.errors import AllocationError as from_errors

        assert from_errors is AllocationError


@pytest.fixture
def healthy():
    graph = build_chain(num_convs=6, channels=128, hw=14)
    accel = small_accel(ddr_efficiency=0.05)
    model = LatencyModel(graph, accel)
    lcmm = run_lcmm(graph, accel, model=model)
    assert lcmm.physical_buffers, "fixture must allocate something"
    return model, lcmm


@pytest.fixture
def fused():
    """resnet50 on the bandwidth-starved fusion ablation design: fusion is
    accepted, the transfer schedule hides time and one tensor is pinned
    in part, so every check of a fused, scheduled result has data."""
    graph = get_model("resnet50")
    accel = fusion_ablation_design(INT8, "lcmm")
    model = LatencyModel(graph, accel)
    options = LCMMOptions(
        sram_budget=accel.tile_buffer_bytes() + FUSION_ABLATION_SRAM_HEADROOM,
        fuse_layers=True,
        transfer_schedule=True,
        fractional_fill=True,
    )
    lcmm = run_lcmm(graph, accel, options=options, model=model)
    assert lcmm.degradation_level == 0
    assert lcmm.fused_edges and lcmm.fractions
    assert lcmm.transfer_timeline.improvement > 0
    return model, lcmm


def with_buffer(lcmm, index, virtual):
    """A copy of ``lcmm`` whose ``index``-th buffer is ``virtual``, both in
    the allocation and in the placement (buffers are immutable)."""
    physical = list(lcmm.physical_buffers)
    physical[index] = replace(physical[index], virtual=virtual)
    allocated = list(lcmm.dnnk_result.allocated)
    allocated[index] = virtual
    return replace(
        lcmm,
        physical_buffers=physical,
        dnnk_result=replace(lcmm.dnnk_result, allocated=allocated),
    )


class TestFieldCorruptions:
    def test_healthy_passes(self, healthy):
        model, lcmm = healthy
        validate_result(lcmm, model)

    def test_inflated_latency_caught(self, healthy):
        model, lcmm = healthy
        lcmm.latency = model.umm_latency() * 1.5
        with pytest.raises(AllocationError):
            validate_result(lcmm, model)

    def test_deflated_latency_caught(self, healthy):
        model, lcmm = healthy
        lcmm.latency = model.compute_bound_latency() * 0.5
        with pytest.raises(AllocationError):
            validate_result(lcmm, model)

    def test_phantom_onchip_tensor_caught(self, healthy):
        model, lcmm = healthy
        lcmm.onchip_tensors = lcmm.onchip_tensors | {"f:phantom"}
        with pytest.raises(AllocationError):
            validate_result(lcmm, model)

    def test_dropped_onchip_tensor_caught(self, healthy):
        model, lcmm = healthy
        victim = next(iter(lcmm.onchip_tensors))
        lcmm.onchip_tensors = lcmm.onchip_tensors - {victim}
        with pytest.raises(AllocationError):
            validate_result(lcmm, model)

    def test_duplicated_buffer_tensor_caught(self, healthy):
        model, lcmm = healthy
        assert len(lcmm.physical_buffers) >= 2
        first = lcmm.physical_buffers[0].virtual.tensors[0]
        victim = lcmm.physical_buffers[1].virtual
        corrupt = with_buffer(
            lcmm, 1, replace(victim, tensors=victim.tensors + (first,))
        )
        with pytest.raises(AllocationError, match="two physical buffers"):
            validate_result(corrupt, model)

    def test_overlapping_cohabitants_caught(self, healthy):
        model, lcmm = healthy
        buf = lcmm.physical_buffers[0].virtual
        clash = CandidateTensor(
            name="f:clash",
            tensor_class=TensorClass.FEATURE,
            size_bytes=1,
            live_range=LiveRange(0, 10**6),  # overlaps everything
            affected_nodes=("c1",),
        )
        corrupt = with_buffer(lcmm, 0, replace(buf, tensors=buf.tensors + (clash,)))
        corrupt.onchip_tensors = corrupt.onchip_tensors | {"f:clash"}
        with pytest.raises(AllocationError, match="share pbuf1"):
            validate_result(corrupt, model)

    def test_over_capacity_allocation_caught(self, healthy):
        model, lcmm = healthy
        allocation = lcmm.dnnk_result
        lcmm.dnnk_result = replace(
            allocation, used_bytes=allocation.capacity_bytes + 1
        )
        with pytest.raises(AllocationError, match="capacity bytes"):
            validate_result(lcmm, model)

    def test_unplaced_buffer_caught(self, healthy):
        model, lcmm = healthy
        lcmm.physical_buffers = lcmm.physical_buffers[:-1]
        with pytest.raises(AllocationError, match="place every allocated buffer"):
            validate_result(lcmm, model)

    def test_fraction_out_of_range_caught(self, healthy):
        model, lcmm = healthy
        lcmm.fractions = {"f:c1": 1.5}
        with pytest.raises(AllocationError, match=r"outside \(0, 1\]"):
            validate_result(lcmm, model)

    def test_fraction_on_resident_tensor_caught(self, healthy):
        model, lcmm = healthy
        lcmm.fractions = {next(iter(lcmm.onchip_tensors)): 0.5}
        with pytest.raises(AllocationError, match="already-resident"):
            validate_result(lcmm, model)

    def test_uram_overcommit_caught(self, healthy):
        model, lcmm = healthy
        lcmm.sram_usage.uram_used = lcmm.sram_usage.budget.uram_blocks + 1
        with pytest.raises(AllocationError, match="URAM"):
            validate_result(lcmm, model)

    def test_bram_overcommit_caught(self, healthy):
        model, lcmm = healthy
        lcmm.sram_usage.bram36_used = lcmm.sram_usage.budget.bram36_blocks + 1
        with pytest.raises(AllocationError, match="BRAM"):
            validate_result(lcmm, model)

    def test_slowed_node_caught(self, healthy):
        model, lcmm = healthy
        node = model.nodes()[2]
        lcmm.node_latencies[node] *= 100
        with pytest.raises(AllocationError, match="slower"):
            validate_result(lcmm, model)

    def test_negative_residual_caught(self, healthy):
        model, lcmm = healthy
        weights = [t for t in lcmm.onchip_tensors if t.startswith("w:")]
        if weights:
            lcmm.residuals[weights[0]] = -1e-6
            with pytest.raises(AllocationError):
                validate_result(lcmm, model)


class TestFusedCorruptions:
    def test_healthy_passes(self, fused):
        model, lcmm = fused
        validate_result(lcmm, model)

    def test_streaming_fused_read_caught(self, fused):
        model, lcmm = fused
        record = model.derived(fused_model)
        node, tensor = next(
            (node, slot.tensor)
            for node in record.nodes()
            for slot in record.layer(node).slots
            if slot.kind is TensorKind.IFMAP and slot.bytes
        )
        ghost = FusedEdge(
            producer="ghost",
            consumer=node,
            tensor=tensor,
            slice_bytes=1,
            bytes_saved=1,
            shortcut=False,
        )
        lcmm.fused_edges = lcmm.fused_edges + (ghost,)
        with pytest.raises(AllocationError, match="still streams its read"):
            validate_result(lcmm, model)

    def test_lost_timeline_bytes_caught(self, fused):
        model, lcmm = fused
        timeline = lcmm.transfer_timeline
        lost = next(i for i, r in enumerate(timeline.records) if r.bytes)
        records = timeline.records[:lost] + timeline.records[lost + 1 :]
        lcmm.transfer_timeline = replace(timeline, records=records)
        with pytest.raises(AllocationError, match="allocation demands"):
            validate_result(lcmm, model)

    def test_channel_overlap_caught(self, fused):
        model, lcmm = fused
        timeline = lcmm.transfer_timeline
        first, second = timeline.channel_records(TensorKind.IFMAP)[:2]
        records = tuple(
            replace(r, start=first.start) if r is second else r
            for r in timeline.records
        )
        lcmm.transfer_timeline = replace(timeline, records=records)
        with pytest.raises(AllocationError, match="overlapping transfers"):
            validate_result(lcmm, model)

    def test_makespan_over_baseline_caught(self, fused):
        model, lcmm = fused
        timeline = lcmm.transfer_timeline
        lcmm.transfer_timeline = replace(timeline, makespan=timeline.baseline * 1.5)
        with pytest.raises(AllocationError, match="bulk-synchronous baseline"):
            validate_result(lcmm, model)


class TestColoringCorruptions:
    def test_corrupted_feature_coloring_caught(self, healthy):
        from repro.lcmm.validate import validate_buffers

        model, lcmm = healthy
        feature = lcmm.feature_result
        assert len(feature.buffers) >= 2
        # Move a tensor into a buffer where it interferes.
        donor = feature.buffers[0].tensors[0]
        buffers = list(feature.buffers)
        buffers[1] = replace(buffers[1], tensors=buffers[1].tensors + (donor,))
        lcmm.feature_result = replace(feature, buffers=buffers)
        with pytest.raises(AllocationError):
            validate_buffers(lcmm)
