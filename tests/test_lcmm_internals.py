"""Direct tests for internal APIs used by the allocators.

These pieces are exercised indirectly everywhere; testing them directly
pins their contracts: the Eq. 2 optimistic metric, the idle-time hiding
capacity, the naive gain oracle's mask-based node latencies, and the
partitioner's stage-array tuner.
"""

import pytest

from repro.hw.precision import INT8
from repro.ir.tensor import TensorKind, weight_tensor_name
from repro.lcmm.feature_reuse import feature_reuse_pass
from repro.lcmm.prefetch import hiding_capacity, weight_prefetch_pass
from repro.lcmm.splitting import combine_buffers
from repro.lcmm.tables import eq2_latency_reduction
from repro.perf.latency import LatencyModel
from repro.perf.partition import tune_stage_array
from repro.perf.systolic import SystolicArray

from tests.conftest import build_chain, small_accel
from tests.oracles import (
    NaiveGainEvaluator,
    latency_reduction,
    onchip_hiding_capacity,
)


@pytest.fixture(scope="module")
def model():
    return LatencyModel(
        build_chain(num_convs=6, channels=128, hw=14),
        small_accel(ddr_efficiency=0.05),
    )


class TestEq2Metric:
    def test_dominant_tensor_gets_gap_to_next(self, model):
        ll = model.layer("c3")
        components = {
            "c": ll.compute,
            "if": ll.slot_latency(TensorKind.IFMAP),
            "wt": ll.slot_latency(TensorKind.WEIGHT),
            "of": ll.slot_latency(TensorKind.OFMAP),
        }
        values = sorted(components.values(), reverse=True)
        top_kind = max(components, key=components.__getitem__)
        tensor = {
            "if": "f:c2",
            "wt": "w:c3",
            "of": "f:c3",
        }.get(top_kind)
        if tensor is None:
            pytest.skip("compute bound node")
        metric = eq2_latency_reduction(model, tensor, ("c3",))
        assert metric == pytest.approx(values[0] - values[1])

    def test_second_tier_tensor_nonzero(self, model):
        """The paper's point: Eq. 2 values second-tier tensors the exact
        single-tensor reduction assigns zero."""
        ll = model.layer("c3")
        ranked = sorted(
            (
                (ll.slot_latency(k), t)
                for k, t in (
                    (TensorKind.IFMAP, "f:c2"),
                    (TensorKind.WEIGHT, "w:c3"),
                    (TensorKind.OFMAP, "f:c3"),
                )
            ),
            reverse=True,
        )
        second_tensor = ranked[1][1]
        exact = latency_reduction(model, second_tensor, ("c3",))
        optimistic = eq2_latency_reduction(model, second_tensor, ("c3",))
        if ranked[1][0] > ll.compute:
            assert optimistic > 0
            assert exact <= optimistic + 1e-15

    def test_unknown_tensor_scores_zero(self, model):
        assert eq2_latency_reduction(model, "f:ghost", ("c3",)) == 0.0


class TestHidingCapacity:
    def test_idle_is_latency_minus_weight_demand(self, model):
        schedule = model.nodes()
        latencies = [model.node_latency(n) for n in schedule]
        caps = hiding_capacity(model, latencies, schedule)
        for name, lat, cap in zip(schedule, latencies, caps):
            demand = model.layer(name).slot_latency(TensorKind.WEIGHT)
            assert cap == pytest.approx(max(0.0, lat - demand))

    def test_onchip_weights_free_the_channel(self, model):
        schedule = model.nodes()
        latencies = [model.node_latency(n) for n in schedule]
        wname = weight_tensor_name("c3")
        free = onchip_hiding_capacity(
            model, latencies, schedule, frozenset({wname})
        )
        busy = hiding_capacity(model, latencies, schedule)
        idx = schedule.index("c3")
        assert free[idx] >= busy[idx]

    def test_capacity_bounds_hidden_time(self, model):
        result = weight_prefetch_pass(model.graph, model)
        schedule = model.nodes()
        latencies = [model.node_latency(n) for n in schedule]
        caps = hiding_capacity(model, latencies, schedule)
        index_of = {n: i for i, n in enumerate(schedule)}
        for node, edge in result.edges.items():
            window = sum(caps[index_of[edge.start] : index_of[node]])
            assert edge.hidden_time <= window + 1e-15


class TestGainEvaluator:
    @pytest.fixture(scope="class")
    def evaluator(self, model):
        feature = feature_reuse_pass(model.graph, model)
        prefetch = weight_prefetch_pass(model.graph, model)
        buffers = combine_buffers([feature.buffers, prefetch.buffers])
        return buffers, NaiveGainEvaluator(model, buffers)

    def test_mask_latency_matches_model(self, model, evaluator):
        buffers, ev = evaluator
        full_mask = (1 << len(buffers)) - 1
        onchip = frozenset(n for b in buffers for n in b.tensor_names)
        for node in model.nodes():
            assert ev.node_latency_under_mask(node, 0) == pytest.approx(
                model.node_latency(node)
            )
            assert ev.node_latency_under_mask(node, full_mask) == pytest.approx(
                model.node_latency(node, onchip)
            )

    def test_gain_is_total_latency_delta(self, model, evaluator):
        buffers, ev = evaluator
        for idx, buf in enumerate(buffers[:4]):
            gain = ev.gain(idx, 0)
            expected = model.umm_latency() - model.total_latency(
                frozenset(buf.tensor_names)
            )
            assert gain == pytest.approx(expected)

    def test_move_delta_add_is_negative_gain(self, model, evaluator):
        buffers, ev = evaluator
        delta = ev.move_delta(0, add=0, drop=None)
        assert delta == pytest.approx(-ev.gain(0, 0))

    def test_move_delta_add_then_drop_round_trips(self, model, evaluator):
        buffers, ev = evaluator
        mask = 1 << 0
        add_back = ev.move_delta(0, add=0, drop=None)
        drop = ev.move_delta(mask, add=None, drop=0)
        assert add_back == pytest.approx(-drop)


class TestStageArrayTuner:
    def test_respects_mac_budget(self, model):
        graph = model.graph
        fallback = SystolicArray(8, 8, 8)
        array = tune_stage_array(graph, graph.compute_schedule(), 256, fallback)
        assert array.macs <= 256

    def test_fallback_on_weightless_stage(self, model):
        graph = model.graph
        fallback = SystolicArray(8, 8, 8)  # 512 MACs: over the 256 budget
        array = tune_stage_array(graph, [], 256, fallback)
        # The fallback path is budget-enforced too: an 8x8x8 fallback
        # must come back halved, not overcommit the stage's DSP share.
        assert array.macs <= 256
        assert array == SystolicArray(8, 4, 8)

    def test_fitting_fallback_returned_unchanged(self, model):
        graph = model.graph
        fallback = SystolicArray(8, 4, 8)  # 256 MACs: exactly on budget
        assert tune_stage_array(graph, [], 256, fallback) == fallback

    def test_matches_channel_geometry(self):
        """A 24-channel workload prefers rows that divide 24 over wide
        rows that pad to 32."""
        from repro.ir.graph import ComputationGraph
        from repro.ir.layer import InputLayer
        from repro.ir.tensor import FeatureMapShape
        from repro.models.common import conv

        g = ComputationGraph(name="skinny")
        g.add(InputLayer(name="data", shape=FeatureMapShape(24, 28, 28)))
        src = "data"
        for i in range(3):
            src = conv(g, f"c{i}", src, 24, 3)
        g.validate()
        array = tune_stage_array(g, g.compute_schedule(), 192, SystolicArray(32, 2, 3))
        assert array.effective_macs(24, 24) >= 0.9 * array.macs