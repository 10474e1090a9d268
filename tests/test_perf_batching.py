"""Tests for steady-state batched inference."""

import pytest

from repro.lcmm.framework import LCMMOptions, run_lcmm, umm_only_result
from repro.perf.batching import batched_latency, persistent_weight_tensors
from repro.perf.latency import LatencyModel

from tests.conftest import build_chain, small_accel


@pytest.fixture(scope="module")
def setup():
    graph = build_chain(num_convs=6, channels=128, hw=14)
    accel = small_accel(ddr_efficiency=0.05)
    model = LatencyModel(graph, accel)
    lcmm = run_lcmm(graph, accel, model=model)
    return model, lcmm


class TestBatchedLatency:
    def test_first_image_is_single_image_latency(self, setup):
        model, lcmm = setup
        batch = batched_latency(model, lcmm, 4)
        assert batch.first_image_latency == pytest.approx(lcmm.latency)

    def test_steady_state_not_slower_than_first(self, setup):
        model, lcmm = setup
        batch = batched_latency(model, lcmm, 4)
        assert batch.steady_image_latency <= batch.first_image_latency + 1e-15

    def test_total_composition(self, setup):
        model, lcmm = setup
        batch = batched_latency(model, lcmm, 5)
        assert batch.total_latency == pytest.approx(
            batch.first_image_latency + 4 * batch.steady_image_latency
        )

    def test_amortized_converges_to_steady(self, setup):
        model, lcmm = setup
        big = batched_latency(model, lcmm, 1000)
        assert big.amortized_latency == pytest.approx(
            big.steady_image_latency, rel=0.01
        )

    def test_images_per_second(self, setup):
        model, lcmm = setup
        batch = batched_latency(model, lcmm, 2)
        assert batch.images_per_second == pytest.approx(
            1.0 / batch.steady_image_latency
        )

    def test_batch_of_one(self, setup):
        model, lcmm = setup
        batch = batched_latency(model, lcmm, 1)
        assert batch.total_latency == pytest.approx(batch.first_image_latency)

    def test_invalid_batch_rejected(self, setup):
        model, lcmm = setup
        with pytest.raises(ValueError):
            batched_latency(model, lcmm, 0)
        umm = umm_only_result(model.graph, model.accel, model)
        with pytest.raises(ValueError):
            batched_latency(model, umm, -3)


class TestCompileOptions:
    """The batch profile reads the compile it is given: fractional
    residency and the DDR-timeline makespan included."""

    @pytest.mark.parametrize(
        "name, options",
        [
            ("vgg16", LCMMOptions(fractional_fill=True)),
            ("resnet50", LCMMOptions(transfer_schedule=True)),
        ],
    )
    def test_first_image_is_the_compile_latency(self, name, options):
        from repro.analysis.experiments import reference_design
        from repro.hw.precision import INT16
        from repro.models.zoo import get_model

        graph = get_model(name)
        accel = reference_design("resnet152", INT16, "lcmm")
        model = LatencyModel(graph, accel)
        result = run_lcmm(graph, accel, options=options, model=model)
        batch = batched_latency(model, result, 1)
        assert batch.first_image_latency == result.latency
        assert batch.steady_image_latency <= batch.first_image_latency


class TestPersistence:
    def test_persistent_weights_are_exclusive_buffers(self, setup):
        _, lcmm = setup
        persistent = persistent_weight_tensors(lcmm)
        owners = {
            pbuf.tensor_names[0]: len(pbuf.tensor_names)
            for pbuf in lcmm.physical_buffers
            if pbuf.tensor_names[0] in persistent
        }
        assert all(count == 1 for count in owners.values())

    def test_umm_has_no_state(self, setup):
        model, _ = setup
        umm = umm_only_result(model.graph, model.accel, model)
        batch = batched_latency(model, umm, 7)
        assert batch.first_image_latency == batch.steady_image_latency
        assert batch.total_latency == pytest.approx(7 * model.umm_latency())

    def test_lcmm_steady_state_beats_umm(self, setup):
        model, lcmm = setup
        lcmm_batch = batched_latency(model, lcmm, 16)
        umm_batch = batched_latency(
            model, umm_only_result(model.graph, model.accel, model), 16
        )
        assert lcmm_batch.total_latency < umm_batch.total_latency

    def test_persistence_uses_canonical_weight_naming(self):
        """Membership is decided by the canonical tensor-name helpers,
        not a hard-coded prefix: every persistent tensor round-trips
        through weight_tensor_name, and no feature tensor qualifies."""
        from repro.analysis.experiments import reference_design
        from repro.hw.precision import INT8
        from repro.ir.tensor import (
            is_weight_tensor_name,
            weight_tensor_name,
        )
        from repro.models.zoo import get_model

        graph = get_model("googlenet")
        accel = reference_design("googlenet", INT8, "lcmm")
        lcmm = run_lcmm(graph, accel, model=LatencyModel(graph, accel))
        persistent = persistent_weight_tensors(lcmm)
        assert persistent, "googlenet should pin at least one weight buffer"
        for name in persistent:
            assert is_weight_tensor_name(name)
            node = name.partition(":")[2]
            assert name == weight_tensor_name(node)
            assert graph.layer(node).has_weights
        assert not any(name.startswith("f:") for name in persistent)
