"""Cross-module integration tests on the real benchmark models.

Runs the complete stack — model zoo -> latency model -> LCMM pipeline ->
validators -> simulator — on every (benchmark, precision) design point of
the paper's evaluation, and checks consistency between the analytical
model and the event-driven simulation.
"""

import pytest

from repro.analysis.experiments import (
    BENCHMARKS,
    PRECISIONS,
    reference_design,
    run_comparison,
)
from repro.hw.precision import INT8, INT16
from repro.lcmm.framework import LCMMOptions, run_lcmm
from repro.lcmm.validate import validate_buffers, validate_result
from repro.models import get_model
from repro.perf.latency import LatencyModel
from repro.sim import simulate


@pytest.mark.parametrize("bench_name", BENCHMARKS)
@pytest.mark.parametrize("precision", PRECISIONS, ids=lambda p: p.name)
class TestAllDesignPoints:
    def test_pipeline_valid_and_faster(self, bench_name, precision):
        cmp = run_comparison(bench_name, precision)
        validate_result(cmp.lcmm, cmp.lcmm_model)
        validate_buffers(cmp.lcmm)
        assert cmp.speedup > 1.0

    def test_simulation_confirms_allocation(self, bench_name, precision):
        cmp = run_comparison(bench_name, precision)
        sim = simulate(
            cmp.lcmm_model,
            cmp.lcmm.onchip_tensors,
            prefetch=cmp.lcmm.prefetch_result,
        )
        # The simulator (with contention) stays within 20% of Eq. 1.
        assert sim.makespan == pytest.approx(cmp.lcmm.latency, rel=0.20)

    def test_umm_simulation_matches_model(self, bench_name, precision):
        graph = get_model(bench_name)
        accel = reference_design(bench_name, precision, "umm")
        model = LatencyModel(graph, accel)
        sim = simulate(model)
        assert sim.makespan == pytest.approx(model.umm_latency())


class TestAblationConsistency:
    """Pass-level ablations must compose sensibly on a real model."""

    @pytest.fixture(scope="class")
    def setup(self):
        graph = get_model("googlenet")
        accel = reference_design("googlenet", INT16, "lcmm")
        model = LatencyModel(graph, accel)
        return graph, accel, model

    def test_each_pass_contributes(self, setup):
        graph, accel, model = setup
        full = run_lcmm(graph, accel, model=model)
        feat = run_lcmm(graph, accel, options=LCMMOptions(weight_prefetch=False), model=model)
        wt = run_lcmm(graph, accel, options=LCMMOptions(feature_reuse=False), model=model)
        none = run_lcmm(
            graph,
            accel,
            options=LCMMOptions(feature_reuse=False, weight_prefetch=False),
            model=model,
        )
        assert full.latency <= min(feat.latency, wt.latency)
        assert max(feat.latency, wt.latency) < none.latency
        assert none.latency == pytest.approx(model.umm_latency())

    def test_greedy_not_better_than_dnnk(self, setup):
        graph, accel, model = setup
        dnnk = run_lcmm(graph, accel, model=model)
        greedy = run_lcmm(graph, accel, options=LCMMOptions(use_greedy=True), model=model)
        assert dnnk.latency <= greedy.latency * 1.02


class TestCapacityScaling:
    """Tighter SRAM budgets must never *help* the allocator."""

    def test_latency_monotone_in_budget(self):
        graph = get_model("googlenet")
        accel = reference_design("googlenet", INT16, "lcmm")
        model = LatencyModel(graph, accel)
        tile = accel.tile_buffer_bytes()
        budgets = [tile + 1 * 2**20, tile + 4 * 2**20, tile + 16 * 2**20]
        latencies = [
            run_lcmm(graph, accel, options=LCMMOptions(sram_budget=b), model=model).latency
            for b in budgets
        ]
        assert latencies[0] >= latencies[1] >= latencies[2]

    def test_buffer_sharing_saves_memory_on_resnet(self):
        # The headline mechanism: virtual buffers hold many tensors.
        cmp = run_comparison("resnet152", INT8)
        total_tensor_bytes = sum(
            t.size_bytes
            for b in cmp.lcmm.dnnk_result.allocated
            for t in b.tensors
        )
        buffer_bytes = sum(b.size_bytes for b in cmp.lcmm.dnnk_result.allocated)
        assert buffer_bytes < total_tensor_bytes


class TestLinearModels:
    """AlexNet/VGG (linear topologies) also run through the pipeline."""

    @pytest.mark.parametrize("name", ["alexnet", "vgg16"])
    def test_pipeline_on_linear_models(self, name):
        graph = get_model(name)
        accel = reference_design("resnet152", INT8, "lcmm")
        model = LatencyModel(graph, accel)
        lcmm = run_lcmm(graph, accel, model=model)
        validate_result(lcmm, model)
        assert lcmm.latency <= model.umm_latency()
