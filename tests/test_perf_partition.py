"""Tests for multi-die layer-pipelined partitioning (repro.perf.partition).

Covers the link model's unit conventions, the cut-traffic account, the
link-aware DP partitioner (against brute force), stage subgraph
extraction, the full partitioned design with its degradation paths, and
the cache-key discipline: a single-die request shares the plain
compile's key, and every partition option moves a multi-die key.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fingerprint import fingerprint
from repro.ir.graph import ComputationGraph
from repro.ir.layer import Concat, InputLayer
from repro.ir.tensor import FeatureMapShape
from repro.lcmm.framework import run_lcmm
from repro.lcmm.options import LCMMOptions
from repro.perf.latency import LatencyModel
from repro.perf.partition import (
    MAX_DEVICES,
    InterDieLink,
    cut_traffic_bytes,
    design_partition,
    partition_batched_latency,
    stage_subgraph,
    throughput_balanced_cuts,
)

from tests.conftest import build_chain, build_snippet, small_accel

_GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


class TestInterDieLink:
    def test_units(self):
        link = InterDieLink(gbps=12.5)
        assert link.bytes_per_second == pytest.approx(12.5e9)
        # 12.5 GB moves in exactly one second at 12.5 GB/s.
        assert link.latency(12.5e9) == pytest.approx(1.0)

    def test_efficiency_derates_bandwidth(self):
        link = InterDieLink(gbps=10.0, efficiency=0.5)
        assert link.bytes_per_second == pytest.approx(5e9)
        assert link.latency(5e9) == pytest.approx(1.0)

    def test_zero_bytes_is_free(self):
        assert InterDieLink(gbps=1.0).latency(0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            InterDieLink(gbps=0.0)
        with pytest.raises(ValueError):
            InterDieLink(gbps=-1.0)
        with pytest.raises(ValueError):
            InterDieLink(gbps=1.0, efficiency=0.0)
        with pytest.raises(ValueError):
            InterDieLink(gbps=1.0, efficiency=1.5)


class TestCutTraffic:
    def test_chain_cuts_carry_one_feature_map(self):
        graph = build_chain(num_convs=4, channels=32, hw=14)
        schedule = graph.compute_schedule()
        traffic = cut_traffic_bytes(graph, element_bytes=1)
        assert len(traffic) == len(schedule) + 1
        # Host boundaries never hit an inter-die link.
        assert traffic[0] == 0 and traffic[-1] == 0
        # On a linear chain each internal cut carries exactly the feature
        # map of the node right before it.
        for cut in range(1, len(schedule)):
            producer = schedule[cut - 1]
            assert traffic[cut] == graph.output_shape(producer).bytes(1)

    def test_skip_connection_spans_every_cut_it_crosses(self):
        # data -> a -> b -> c with an extra a->c edge: f:a is forwarded
        # across the cut between b and c too (store and forward).
        from repro.models.common import conv

        g = ComputationGraph(name="skip")
        g.add(InputLayer(name="data", shape=FeatureMapShape(8, 4, 4)))
        a = conv(g, "a", "data", 8, 1)
        b = conv(g, "b", a, 8, 1)
        g.add(Concat(name="cat", inputs=(b, a)))
        conv(g, "c", "cat", 8, 1)
        g.validate()
        traffic = cut_traffic_bytes(g, element_bytes=1)
        fa = g.output_shape("a").bytes(1)
        fb = g.output_shape("b").bytes(1)
        # Cuts: [0] a | b | c [end].  f:a spans both internal cuts.
        assert traffic[1] == fa
        assert traffic[2] == fa + fb

    def test_element_width_scales_traffic(self):
        graph = build_chain(num_convs=3, channels=16, hw=7)
        ones = cut_traffic_bytes(graph, element_bytes=1)
        twos = cut_traffic_bytes(graph, element_bytes=2)
        assert twos == [2 * t for t in ones]


def _stage_costs(weights, cut_seconds, cuts) -> list:
    bounds = [0, *cuts, len(weights)]
    return [
        max(sum(weights[i:j]), cut_seconds[i], cut_seconds[j])
        for i, j in zip(bounds, bounds[1:])
    ]


def _brute_force_bottleneck(weights, cut_seconds, k) -> float:
    return min(
        max(_stage_costs(weights, cut_seconds, cuts))
        for cuts in itertools.combinations(range(1, len(weights)), k - 1)
    )


def _bottleneck(weights, cut_seconds, cuts) -> float:
    return max(_stage_costs(weights, cut_seconds, cuts))


def _bottleneck_and_spread(weights, cut_seconds, cuts) -> tuple:
    costs = _stage_costs(weights, cut_seconds, cuts)
    return max(costs), sum(c * c for c in costs)


class TestThroughputBalancedCuts:
    def test_exact_cut_count(self):
        for k in range(1, 7):
            cuts = throughput_balanced_cuts([1.0] * 6, [0.0] * 7, k)
            assert len(cuts) == k - 1
            assert cuts == sorted(set(cuts))
            assert all(0 < c < 6 for c in cuts)

    def test_ignores_links_when_free(self):
        # With zero link time this reduces to classic balanced partition.
        cuts = throughput_balanced_cuts([5, 1, 1, 1, 5], [0.0] * 6, 3)
        assert cuts == [1, 4]

    def test_tie_break_spreads_slack(self):
        # Every split with [10] alone is bottleneck-optimal; the even
        # 4/4 split of the ones has the least sum of squared stage costs.
        assert throughput_balanced_cuts([10] + [1] * 8, [0.0] * 10, 3) == [1, 5]

    def test_shifts_cut_off_fat_boundary(self):
        # Balanced compute wants the cut at 2, but that boundary costs 10
        # seconds of link time; position 1 is free and still beats a
        # single stage.
        weights = [1.0, 1.0, 1.0, 1.0]
        cut_seconds = [0.0, 0.0, 10.0, 0.0, 0.0]
        assert throughput_balanced_cuts(weights, cut_seconds, 2) in ([1], [3])

    def test_matches_brute_force(self):
        weights = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]
        cut_seconds = [0.0, 2.0, 0.5, 7.0, 0.1, 3.0, 1.0, 0.0]
        for k in range(1, len(weights) + 1):
            cuts = throughput_balanced_cuts(weights, cut_seconds, k)
            assert _bottleneck(weights, cut_seconds, cuts) == pytest.approx(
                _brute_force_bottleneck(weights, cut_seconds, k)
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            throughput_balanced_cuts([1.0], [0.0, 0.0], 2)
        with pytest.raises(ValueError):
            throughput_balanced_cuts([1.0, 2.0], [0.0] * 2, 1)
        with pytest.raises(ValueError):
            throughput_balanced_cuts([1.0, -2.0], [0.0] * 3, 1)

    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.lists(
            st.floats(0.0, 10.0, allow_nan=False), min_size=2, max_size=8
        ),
        interior=st.lists(
            st.floats(0.0, 10.0, allow_nan=False), min_size=1, max_size=7
        ),
        k=st.integers(1, 8),
    )
    def test_property_optimal_and_well_formed(self, weights, interior, k):
        n = len(weights)
        k = min(k, n)
        cut_seconds = [0.0] + (interior + [0.0] * n)[: n - 1] + [0.0]
        cuts = throughput_balanced_cuts(weights, cut_seconds, k)
        assert len(cuts) == k - 1
        assert all(0 < c < n for c in cuts)
        assert cuts == sorted(set(cuts))
        assert _bottleneck(weights, cut_seconds, cuts) == pytest.approx(
            _brute_force_bottleneck(weights, cut_seconds, k)
        )

    @settings(max_examples=100, deadline=None)
    @given(
        weights=st.lists(st.integers(0, 10), min_size=1, max_size=8),
        interior=st.lists(st.integers(0, 12), max_size=7),
        k=st.integers(1, 8),
    )
    @example(weights=[0, 0, 0, 10], interior=[], k=3)
    @example(weights=[10, 0, 0, 0, 0], interior=[], k=4)
    @example(weights=[0, 0, 0, 0], interior=[], k=4)
    @example(weights=[0, 5, 0, 0, 5, 0], interior=[], k=5)
    @example(weights=[0, 7, 0, 7, 0], interior=[], k=3)
    @example(weights=[10] + [1] * 7, interior=[], k=3)
    def test_property_lexicographically_optimal(self, weights, interior, k):
        # Integer inputs keep every sum exact, so optima compare exactly:
        # least bottleneck first, then least sum of squared stage costs.
        n = len(weights)
        k = min(k, n)
        cut_seconds = [0] + (interior + [0] * n)[: n - 1] + [0]
        cuts = throughput_balanced_cuts(weights, cut_seconds, k)
        assert len(cuts) == k - 1
        assert _bottleneck_and_spread(weights, cut_seconds, cuts) == min(
            _bottleneck_and_spread(weights, cut_seconds, c)
            for c in itertools.combinations(range(1, n), k - 1)
        )


class TestStageSubgraph:
    def test_tensor_identities_match_full_graph(self):
        graph = build_chain(num_convs=6, channels=32, hw=14)
        schedule = graph.compute_schedule()
        sub = stage_subgraph(graph, schedule[2:4], 1)
        full_names = {t.name for t in graph.feature_tensors()}
        sub_names = {t.name for t in sub.feature_tensors()}
        # Every subgraph tensor exists in the full graph under the same
        # name — including the proxy input's f:<producer> tensor.
        assert sub_names <= full_names
        assert f"f:{schedule[1]}" in sub_names  # boundary input
        assert f"f:{schedule[2]}" in sub_names

    def test_proxy_shape_matches_producer(self):
        graph = build_chain(num_convs=4, channels=32, hw=14)
        schedule = graph.compute_schedule()
        sub = stage_subgraph(graph, schedule[2:], 1)
        proxy = schedule[1]
        assert sub.output_shape(proxy) == graph.output_shape(proxy)

    def test_concat_travels_with_consumer_stage(self):
        graph = build_snippet()  # C1 -> (C2, C3) -> cat -> C4 -> C5 -> C6
        sub = stage_subgraph(graph, ["C4", "C5", "C6"], 1)
        names = set(sub.schedule())
        # The concat is address steering: it rides along, its inputs
        # become proxies.
        assert "cat" in names
        assert "C2" in names and "C3" in names  # proxies
        assert "C1" not in names
        assert {t.name for t in sub.weight_tensors()} == {
            "w:C4", "w:C5", "w:C6"
        }

    def test_subgraph_validates_and_covers_stage(self):
        graph = build_snippet()
        schedule = graph.compute_schedule()
        for lo, hi in ((0, 3), (3, len(schedule))):
            sub = stage_subgraph(graph, schedule[lo:hi], 0)
            assert set(schedule[lo:hi]) <= set(sub.compute_schedule())


class TestDesignPartition:
    @pytest.fixture(scope="class")
    def setup(self):
        graph = build_chain(num_convs=8, channels=128, hw=14)
        accel = small_accel(ddr_efficiency=0.1)
        return graph, accel

    def test_single_die_bit_identical_to_plain_flow(self, setup):
        graph, accel = setup
        result = design_partition(graph, accel, 1)
        plain = run_lcmm(
            graph, accel, options=LCMMOptions(), model=LatencyModel(graph, accel)
        )
        assert fingerprint(result.stages[0].lcmm) == fingerprint(plain)
        assert result.fell_back is None
        assert result.period == pytest.approx(1.0 / result.steady_state_throughput)

    def test_device_count_clamps(self, setup):
        graph, accel = setup
        n = len(graph.compute_schedule())
        result = design_partition(graph, accel, 100)
        assert result.devices_requested == 100
        assert result.num_devices <= min(MAX_DEVICES, n)
        assert design_partition(graph, accel, 0).num_devices == 1
        assert design_partition(graph, accel, -3).num_devices == 1

    def test_link_model_off_falls_back(self, setup):
        graph, accel = setup
        result = design_partition(graph, accel, 4, link=None)
        assert result.num_devices == 1
        assert result.fell_back == "link-model-off"
        single = design_partition(graph, accel, 1)
        assert fingerprint(result.stages[0].lcmm) == fingerprint(
            single.stages[0].lcmm
        )

    def test_starved_link_falls_back_to_single_die(self, setup):
        graph, accel = setup
        # A hopelessly slow link makes every partition link-bound and
        # worse than one die: accept-if-improves keeps the baseline.
        result = design_partition(graph, accel, 4, link=InterDieLink(gbps=1e-6))
        assert result.num_devices == 1
        assert result.fell_back == "no-improvement"
        assert result.period == pytest.approx(result.single_latency)

    def test_accepted_partition_improves_and_accounts_links(self, setup):
        graph, accel = setup
        link = InterDieLink(gbps=12.5)
        result = design_partition(graph, accel, 4, link=link)
        assert result.fell_back is None
        assert result.num_devices == 4
        assert result.period < result.single_latency
        assert result.speedup_vs_single > 1.0
        # Period is the slowest stage including its link streams.
        assert result.period == pytest.approx(
            max(s.steady_latency for s in result.stages)
        )
        # Fill latency: every stage's first image plus every crossing.
        assert result.image_latency == pytest.approx(
            sum(s.compute_latency for s in result.stages)
            + sum(link.latency(b) for b in result.cut_bytes)
        )
        # Boundary bookkeeping is chain-consistent.
        assert result.stages[0].recv_bytes == 0
        assert result.stages[-1].send_bytes == 0
        for left, right, cut in zip(
            result.stages, result.stages[1:], result.cut_bytes
        ):
            assert left.send_bytes == right.recv_bytes == cut

    def test_stages_partition_the_schedule(self, setup):
        graph, accel = setup
        result = design_partition(graph, accel, 3)
        covered = [n for s in result.stages for n in s.nodes]
        assert covered == graph.compute_schedule()

    def test_stage_allocations_are_stage_local(self, setup):
        graph, accel = setup
        result = design_partition(graph, accel, 4)
        for stage in result.stages:
            sub = stage_subgraph(graph, stage.nodes, stage.index)
            allowed = {t.name for t in sub.feature_tensors()} | {
                t.name for t in sub.weight_tensors()
            }
            assert set(stage.lcmm.onchip_tensors) <= allowed

    def test_batched_profile(self, setup):
        graph, accel = setup
        result = design_partition(graph, accel, 4)
        batch = partition_batched_latency(result, 10)
        assert batch.first_image_latency == pytest.approx(result.image_latency)
        assert batch.steady_image_latency == pytest.approx(result.period)
        assert batch.total_latency == pytest.approx(
            result.image_latency + 9 * result.period
        )
        with pytest.raises(ValueError):
            partition_batched_latency(result, 0)

    def test_steady_stage_never_slower_than_first_image(self):
        """Under the transfer schedule a stage's first image runs at the
        DDR-timeline makespan; the steady image must not fall back to
        the slower Eq. 1 sum."""
        from repro.analysis.experiments import reference_design
        from repro.hw.precision import INT8
        from repro.models.zoo import get_model

        result = design_partition(
            get_model("googlenet"),
            reference_design("googlenet", INT8, "lcmm"),
            4,
            options=LCMMOptions(transfer_schedule=True),
        )
        assert result.num_devices == 4
        for stage in result.stages:
            assert stage.steady_compute_latency <= stage.compute_latency

    @settings(max_examples=8, deadline=None)
    @given(devices=st.integers(1, 10), num_convs=st.integers(2, 6))
    def test_property_limits_and_period(self, devices, num_convs):
        graph = build_chain(num_convs=num_convs, channels=64, hw=14)
        accel = small_accel(ddr_efficiency=0.2)
        result = design_partition(graph, accel, devices)
        # Stage count never exceeds the request, the die ceiling, or the
        # layer count.
        assert 1 <= result.num_devices <= min(
            devices if devices >= 1 else 1, MAX_DEVICES, num_convs
        )
        # Every die respects its own SRAM budget.
        for stage in result.stages:
            assert stage.lcmm.sram_usage.used_bytes <= accel.device.sram_bytes
        # The initiation interval is exactly the slowest linked stage.
        assert result.period == pytest.approx(
            max(s.steady_latency for s in result.stages)
        )


class TestBenchmarkGoldenIdentity:
    def test_single_die_matches_golden_splitting(self):
        """The benchmark's core acceptance check, in the tier-1 suite."""
        from repro.analysis.experiments import reference_design
        from repro.hw.precision import INT8
        from repro.models.zoo import get_model

        graph = get_model("resnet152")
        accel = reference_design("resnet152", INT8, "lcmm")
        result = design_partition(graph, accel, 1)
        golden = json.loads((_GOLDEN_DIR / "resnet152.json").read_text())
        assert fingerprint(result.stages[0].lcmm) == golden["splitting"]
