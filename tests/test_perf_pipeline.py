"""Tests for on-chip pipelining: one device's fabric split into stages,
each with its own LCMM (``design_partition(..., link=ON_CHIP)``)."""

from dataclasses import replace

import pytest

from repro.lcmm.framework import LCMMOptions
from repro.perf.partition import (
    MAX_DEVICES,
    ON_CHIP,
    _stage_array,
    design_partition,
    throughput_balanced_cuts,
    tune_stage_array,
)
from repro.perf.latency import LatencyModel

from tests.conftest import build_chain, small_accel


def on_chip_design(graph, base, k, options=None):
    """The on-chip die model of the one stage designer."""
    return design_partition(graph, base, k, link=ON_CHIP, options=options)


def free_link_cuts(weights, k):
    """The single-chip stage split: the one partition DP with free links."""
    return throughput_balanced_cuts(weights, [0.0] * (len(weights) + 1), k)


class TestBalancedPartition:
    """The on-chip stage split: on-chip streams cost nothing."""

    def test_single_run(self):
        assert free_link_cuts([1, 2, 3], 1) == []

    def test_even_split(self):
        cuts = free_link_cuts([1, 1, 1, 1], 2)
        assert cuts == [2]

    def test_bottleneck_minimised(self):
        weights = [5, 1, 1, 1, 5]
        cuts = free_link_cuts(weights, 3)
        boundaries = [0] + cuts + [len(weights)]
        sums = [
            sum(weights[boundaries[i] : boundaries[i + 1]])
            for i in range(len(boundaries) - 1)
        ]
        assert max(sums) == 5  # optimal bottleneck: [5][1,1,1][5]

    def test_heavy_item_dominates(self):
        weights = [1, 100, 1]
        cuts = free_link_cuts(weights, 3)
        boundaries = [0] + cuts + [len(weights)]
        sums = [
            sum(weights[boundaries[i] : boundaries[i + 1]])
            for i in range(len(boundaries) - 1)
        ]
        assert max(sums) == 100

    def test_infeasible_k_rejected(self):
        with pytest.raises(ValueError):
            free_link_cuts([1, 2], 3)
        with pytest.raises(ValueError):
            free_link_cuts([1, 2], 0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            free_link_cuts([1, -1], 1)


class TestPipelineDesign:
    @pytest.fixture(scope="class")
    def setup(self):
        graph = build_chain(num_convs=8, channels=128, hw=14)
        accel = small_accel(ddr_efficiency=0.1)
        return graph, accel

    def test_single_stage_matches_plain_lcmm_shape(self, setup):
        graph, accel = setup
        result = on_chip_design(graph, accel, 1)
        assert result.num_devices == 1
        assert result.period == pytest.approx(result.image_latency)

    def test_single_stage_is_the_plain_compile(self, setup):
        from repro.fingerprint import fingerprint
        from repro.lcmm.framework import run_lcmm

        graph, accel = setup
        (stage,) = on_chip_design(graph, accel, 1).stages
        assert stage.accel == accel
        assert fingerprint(stage.lcmm) == fingerprint(run_lcmm(graph, accel))

    def test_stages_cover_schedule(self, setup):
        graph, accel = setup
        result = on_chip_design(graph, accel, 3)
        covered = [n for s in result.stages for n in s.nodes]
        assert covered == graph.compute_schedule()

    def test_period_is_slowest_stage(self, setup):
        graph, accel = setup
        result = on_chip_design(graph, accel, 3)
        assert result.period == pytest.approx(
            max(s.steady_latency for s in result.stages)
        )
        assert result.image_latency == pytest.approx(
            sum(s.latency for s in result.stages)
        )

    def test_stages_stream_for_free(self, setup):
        graph, accel = setup
        result = on_chip_design(graph, accel, 3)
        assert result.link is ON_CHIP and result.fell_back is None
        assert result.cut_bytes == [0, 0]
        for stage in result.stages:
            assert stage.recv_bytes == stage.send_bytes == 0
            assert stage.recv_latency == stage.send_latency == 0.0
            assert stage.lcmm.sram_usage.used_bytes <= accel.device.sram_bytes // 3

    def test_stage_arrays_respect_dsp_budget(self, setup):
        graph, accel = setup
        result = on_chip_design(graph, accel, 4)
        budget = accel.array.macs // 4
        for stage in result.stages:
            assert stage.accel.array.macs <= budget

    def test_heterogeneous_workload_benefits_from_tuning(self):
        """Layers with mismatched channel geometry: per-stage tuned
        arrays (the TGPA heterogeneity) beat a uniform split."""
        from repro.ir.graph import ComputationGraph
        from repro.ir.layer import InputLayer
        from repro.ir.tensor import FeatureMapShape
        from repro.models.common import conv

        g = ComputationGraph(name="hetero")
        g.add(InputLayer(name="data", shape=FeatureMapShape(24, 28, 28)))
        src = "data"
        # First half: skinny 24-channel layers (pad horribly on wide
        # rows); second half: wide 128-channel layers.
        for i in range(1, 5):
            src = conv(g, f"skinny{i}", src, 24, 3)
        for i in range(1, 5):
            src = conv(g, f"wide{i}", src, 128, 3)
        g.validate()

        accel = small_accel(ddr_efficiency=1.0)  # compute bound on purpose
        uniform = _stage_array(accel.array, 2)
        schedule = g.compute_schedule()

        def stage_latency(nodes, array):
            model = LatencyModel(g, replace(accel, array=array))
            return sum(model.node_latency(n) for n in nodes)

        gains = []
        for nodes in (schedule[:4], schedule[4:]):
            tuned = tune_stage_array(g, nodes, accel.array.macs // 2, uniform)
            assert tuned.macs <= accel.array.macs // 2
            gains.append(stage_latency(nodes, uniform) - stage_latency(nodes, tuned))
        assert min(gains) >= -1e-15
        assert max(gains) > 0

    def test_pipelining_keeps_throughput_in_band(self, setup):
        """Dividing a compute-bound homogeneous chain across stages
        cannot beat the fully-tuned single array (same total MACs), but
        pipelining must stay within the partition-granularity loss: the
        bottleneck stage holds at most ceil(n/k) of the heavy layers."""
        graph, accel = setup
        single = on_chip_design(graph, accel, 1)
        deep = on_chip_design(graph, accel, 4)
        assert deep.period <= deep.image_latency + 1e-15
        # 8 layers into 4 stages: the bottleneck carries 2 of ~8 equal
        # layers on a quarter of the fabric -> within ~25% of single.
        assert deep.steady_state_throughput >= 0.75 * single.steady_state_throughput

    def test_boundary_tensors_streamed(self, setup):
        graph, accel = setup
        two = on_chip_design(graph, accel, 2)
        # The boundary producer's output pays no DDR transfer: stage
        # latencies computed with streaming must not exceed latencies
        # recomputed without it.
        for stage in two.stages:
            model = LatencyModel(graph, stage.accel)
            no_stream = sum(
                model.node_latency(n, stage.lcmm.onchip_tensors, stage.lcmm.residuals)
                for n in stage.nodes
            )
            assert stage.latency <= no_stream + 1e-15

    def test_too_deep_pipeline_clamps(self, setup):
        graph, accel = setup
        result = on_chip_design(graph, accel, 1000)
        assert result.devices_requested == 1000
        assert result.num_devices == min(MAX_DEVICES, len(graph.compute_schedule()))
        assert result.fell_back is None

    def test_stage_compiles_keep_every_option(self, setup):
        graph, accel = setup
        options = LCMMOptions(
            fractional_fill=True, fuse_layers=True, transfer_schedule=True
        )
        result = on_chip_design(graph, accel, 2, options=options)
        for stage in result.stages:
            passes = stage.lcmm.pipeline_description.split(" -> ")
            assert {"fractional_fill", "fuse_layers", "transfer_schedule"} <= set(
                passes
            )


class TestReferenceFigures:
    """ResNet-152 16-bit on chip: the figures of the fabric-split designer
    before it folded into ``design_partition``, pinned bit for bit."""

    @pytest.fixture(scope="class")
    def designs(self):
        from repro.analysis.experiments import reference_design
        from repro.hw.precision import INT16
        from repro.models import get_model

        graph = get_model("resnet152")
        base = reference_design("resnet152", INT16, "lcmm")
        return {k: on_chip_design(graph, base, k) for k in (1, 2, 4)}

    @pytest.mark.parametrize(
        "k, image_latency, period, array",
        [
            (1, 0.011979015151515142, 0.011979015151515142, "32x16x11"),
            (2, 0.02393217648358585, 0.012235530018939388, "16x16x11"),
            (4, 0.047864288036616166, 0.012804145454545455, "8x16x11"),
        ],
    )
    def test_pinned(self, designs, k, image_latency, period, array):
        result = designs[k]
        assert result.image_latency == image_latency
        assert result.period == period
        assert [str(s.accel.array) for s in result.stages] == [array] * k


class TestPartitionPadding:
    """Degenerate weight vectors must still yield exactly k-1 cuts."""

    def test_zero_prefix_pads_to_requested_stages(self):
        cuts = free_link_cuts([0, 0, 0, 10], 3)
        assert len(cuts) == 2
        assert cuts == sorted(set(cuts))
        assert all(0 < c < 4 for c in cuts)

    def test_all_zero_weights(self):
        cuts = free_link_cuts([0, 0, 0, 0], 4)
        assert cuts == [1, 2, 3]

    def test_one_heavy_item_among_zeros(self):
        # Zero-weight stages must not move the bottleneck.
        cuts = free_link_cuts([10, 0, 0, 0, 0], 4)
        assert len(cuts) == 3
        boundaries = [0] + cuts + [5]
        sums = [sum([10, 0, 0, 0, 0][i:j]) for i, j in zip(boundaries, boundaries[1:])]
        assert max(sums) == 10

    def test_padding_is_deterministic(self):
        weights = [0.0, 5.0, 0.0, 0.0, 5.0, 0.0]
        first = free_link_cuts(weights, 5)
        assert all(free_link_cuts(weights, 5) == first for _ in range(5))

    def test_every_feasible_k_gets_exact_cut_count(self):
        for weights in ([0, 0, 0, 10], [10, 0, 0, 0], [0, 7, 0, 7, 0], [1] * 6):
            for k in range(1, len(weights) + 1):
                cuts = free_link_cuts(list(weights), k)
                assert len(cuts) == k - 1, (weights, k, cuts)
                assert cuts == sorted(set(cuts))
                assert all(0 < c < len(weights) for c in cuts)


class TestTuneStageArrayBudget:
    """The fallback path must respect the per-stage MAC budget too."""

    def test_weightless_stage_clamps_fallback(self):
        from repro.perf.systolic import SystolicArray

        graph = build_chain(num_convs=4)
        fat = SystolicArray(rows=64, cols=16, simd=16)  # 16384 MACs
        array = tune_stage_array(graph, [], mac_budget=100, fallback=fat)
        assert array.macs <= 100

    def test_budget_below_smallest_candidate_clamps_fallback(self):
        from repro.perf.systolic import SystolicArray

        graph = build_chain(num_convs=4)
        nodes = graph.compute_schedule()[:2]
        fat = SystolicArray(rows=64, cols=16, simd=16)
        # Smallest tuning candidate is 8x1x2 = 16 MACs: nothing fits 10,
        # so the fallback path runs and must come back within budget.
        array = tune_stage_array(graph, nodes, mac_budget=10, fallback=fat)
        assert array.macs <= 10

    def test_tuned_arrays_always_within_budget(self):
        graph = build_chain(num_convs=4, channels=96, hw=14)
        nodes = graph.compute_schedule()
        accel = small_accel()
        for budget in (1, 16, 100, 1000, accel.array.macs):
            array = tune_stage_array(
                graph, nodes, mac_budget=budget, fallback=accel.array
            )
            assert array.macs <= budget, budget


class TestStageLocalAllocation:
    """Per-stage LCMM sees only the stage's own live tensors."""

    def test_stage_onchip_sets_are_stage_local(self):
        from repro.perf.partition import stage_subgraph

        graph = build_chain(num_convs=8, channels=128, hw=14)
        accel = small_accel(ddr_efficiency=0.1)
        result = on_chip_design(graph, accel, 3)
        for idx, stage in enumerate(result.stages):
            sub = stage_subgraph(graph, list(stage.nodes), idx)
            allowed = {t.name for t in sub.feature_tensors()} | {
                t.name for t in sub.weight_tensors()
            }
            assert set(stage.lcmm.onchip_tensors) <= allowed
