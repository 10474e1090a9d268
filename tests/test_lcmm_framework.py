"""Tests for repro.lcmm.framework — the full pipeline and the UMM baseline."""

import pytest

from repro.errors import GraphValidationError
from repro.hw.precision import INT16
from repro.lcmm.framework import LCMMOptions, run_lcmm, umm_only_result
from repro.lcmm.validate import validate_buffers, validate_result
from repro.perf.latency import LatencyModel

from tests.conftest import (
    build_chain,
    build_input_only,
    build_residual_block,
    build_snippet,
    small_accel,
)


@pytest.fixture
def starved():
    graph = build_chain(num_convs=6, channels=128, hw=14)
    accel = small_accel(ddr_efficiency=0.1)
    return graph, accel, LatencyModel(graph, accel)


class TestUMM:
    def test_umm_latency_matches_model(self, starved):
        graph, accel, model = starved
        umm = umm_only_result(graph, accel, model)
        assert umm.latency == pytest.approx(model.umm_latency())

    def test_node_latencies_sum_to_total(self, starved):
        graph, accel, model = starved
        umm = umm_only_result(graph, accel, model)
        assert sum(umm.node_latencies.values()) == pytest.approx(umm.latency)

    def test_tops_property(self, starved):
        graph, accel, model = starved
        umm = umm_only_result(graph, accel, model)
        assert umm.tops == pytest.approx(umm.throughput / 1e12)

    def test_sram_is_tile_buffers_only(self, starved):
        graph, accel, model = starved
        umm = umm_only_result(graph, accel, model)
        assert umm.sram_usage.used_bytes >= accel.tile_buffer_bytes()
        assert umm.sram_utilization < 0.05


class TestComputeFreeGraph:
    """A graph with nothing to execute is bad input, not a crash."""

    def test_run_lcmm_raises_graph_validation_error(self):
        with pytest.raises(GraphValidationError):
            run_lcmm(build_input_only(), small_accel())

    def test_umm_only_result_raises_graph_validation_error(self):
        with pytest.raises(GraphValidationError):
            umm_only_result(build_input_only(), small_accel())


class TestLCMMPipeline:
    def test_speedup_on_memory_bound_graph(self, starved):
        graph, accel, model = starved
        umm = umm_only_result(graph, accel, model)
        lcmm = run_lcmm(graph, accel, model=model)
        assert lcmm.latency < umm.latency
        assert lcmm.throughput > umm.throughput

    def test_all_invariants_hold(self, starved):
        graph, accel, model = starved
        lcmm = run_lcmm(graph, accel, model=model)
        validate_result(lcmm, model)
        validate_buffers(lcmm)

    def test_invariants_hold_on_all_fixture_graphs(self):
        for graph in (build_chain(), build_snippet(), build_residual_block()):
            accel = small_accel(ddr_efficiency=0.2)
            model = LatencyModel(graph, accel)
            lcmm = run_lcmm(graph, accel, model=model)
            validate_result(lcmm, model)
            validate_buffers(lcmm)

    def test_node_latencies_sum_to_total(self, starved):
        graph, accel, model = starved
        lcmm = run_lcmm(graph, accel, model=model)
        assert sum(lcmm.node_latencies.values()) == pytest.approx(lcmm.latency)

    def test_compute_bound_graph_gains_nothing(self):
        graph = build_chain()
        accel = small_accel(ddr_efficiency=1.0)
        model = LatencyModel(graph, accel)
        lcmm = run_lcmm(graph, accel, model=model)
        assert lcmm.latency == pytest.approx(model.umm_latency(), rel=0.01)

    def test_sram_budget_is_respected(self, starved):
        graph, accel, model = starved
        budget = accel.tile_buffer_bytes() + 600_000
        options = LCMMOptions(sram_budget=budget)
        lcmm = run_lcmm(graph, accel, options=options, model=model)
        assert lcmm.sram_usage.used_bytes <= budget + 36864  # one block slack

    def test_budget_below_tile_buffers_raises(self, starved):
        graph, accel, model = starved
        with pytest.raises(ValueError, match="exceed"):
            run_lcmm(
                graph,
                accel,
                options=LCMMOptions(sram_budget=accel.tile_buffer_bytes() // 2),
                model=model,
            )

    def test_pol_between_zero_and_one(self, starved):
        graph, accel, model = starved
        lcmm = run_lcmm(graph, accel, model=model)
        assert 0.0 <= lcmm.percentage_onchip_layers(model) <= 1.0


class TestOptionFlags:
    def test_feature_reuse_only(self, starved):
        graph, accel, model = starved
        lcmm = run_lcmm(
            graph, accel, options=LCMMOptions(weight_prefetch=False), model=model
        )
        assert lcmm.prefetch_result.candidates == []
        assert all(name.startswith("f:") for name in lcmm.onchip_tensors)
        validate_result(lcmm, model)

    def test_prefetch_only(self, starved):
        graph, accel, model = starved
        lcmm = run_lcmm(
            graph, accel, options=LCMMOptions(feature_reuse=False), model=model
        )
        assert lcmm.feature_result.candidates == []
        assert all(name.startswith("w:") for name in lcmm.onchip_tensors)
        validate_result(lcmm, model)

    def test_both_disabled_equals_umm(self, starved):
        graph, accel, model = starved
        lcmm = run_lcmm(
            graph,
            accel,
            options=LCMMOptions(feature_reuse=False, weight_prefetch=False),
            model=model,
        )
        assert lcmm.onchip_tensors == frozenset()
        assert lcmm.latency == pytest.approx(model.umm_latency())

    def test_full_lcmm_at_least_as_good_as_single_pass(self, starved):
        graph, accel, model = starved
        full = run_lcmm(graph, accel, model=model)
        feat = run_lcmm(
            graph, accel, options=LCMMOptions(weight_prefetch=False), model=model
        )
        wt = run_lcmm(
            graph, accel, options=LCMMOptions(feature_reuse=False), model=model
        )
        assert full.latency <= feat.latency + 1e-12
        assert full.latency <= wt.latency + 1e-12

    def test_greedy_allocator_option(self, starved):
        graph, accel, model = starved
        greedy = run_lcmm(graph, accel, options=LCMMOptions(use_greedy=True), model=model)
        assert greedy.latency <= model.umm_latency()
        validate_result(greedy, model)

    def test_splitting_disabled(self, starved):
        graph, accel, model = starved
        lcmm = run_lcmm(graph, accel, options=LCMMOptions(splitting=False), model=model)
        assert lcmm.splitting_iterations == 0
        validate_result(lcmm, model)


class TestResiduals:
    def test_residuals_only_on_onchip_weights(self, starved):
        graph, accel, model = starved
        lcmm = run_lcmm(graph, accel, model=model)
        for name in lcmm.residuals:
            assert name.startswith("w:")
            assert name in lcmm.onchip_tensors

    def test_residuals_nonnegative(self, starved):
        graph, accel, model = starved
        lcmm = run_lcmm(graph, accel, model=model)
        for value in lcmm.residuals.values():
            assert value >= 0

    def test_16bit_pipeline_also_valid(self):
        graph = build_chain(num_convs=6, channels=128, hw=14)
        accel = small_accel(precision=INT16, ddr_efficiency=0.1)
        model = LatencyModel(graph, accel)
        lcmm = run_lcmm(graph, accel, model=model)
        validate_result(lcmm, model)
