"""Tests for repro.perf.latency — the Eq. 1 latency model."""

import pytest

from repro.hw.precision import INT8, INT16, Precision
from repro.ir.tensor import TensorKind
from repro.perf.latency import LatencyModel

from tests.conftest import build_chain, build_residual_block, build_snippet, small_accel


@pytest.fixture
def chain_model():
    # chain of 4 convs, 64ch, 28x28, int8, tile (16,16,14,14).
    return LatencyModel(build_chain(), small_accel())


class TestSlotConstruction:
    def test_conv_has_three_slot_kinds(self, chain_model):
        ll = chain_model.layer("c2")
        kinds = [s.kind for s in ll.slots]
        assert kinds == [TensorKind.IFMAP, TensorKind.WEIGHT, TensorKind.OFMAP]

    def test_ifmap_bytes_include_output_channel_reloads(self, chain_model):
        # c2 reads f:c1 (64x28x28, int8); tm=16 -> ceil(64/16) = 4 reloads.
        ll = chain_model.layer("c2")
        if_slot = ll.slots[0]
        assert if_slot.tensor == "f:c1"
        assert if_slot.bytes == 64 * 28 * 28 * 4

    def test_weight_bytes_include_spatial_reloads(self, chain_model):
        # 64x64x3x3 weights; th=tw=14 on 28x28 output -> 4 spatial tiles.
        ll = chain_model.layer("c2")
        wt_slot = ll.slots[1]
        assert wt_slot.tensor == "w:c2"
        assert wt_slot.bytes == 64 * 64 * 9 * 4

    def test_ofmap_written_exactly_once(self, chain_model):
        ll = chain_model.layer("c2")
        of_slot = ll.slots[2]
        assert of_slot.tensor == "f:c2"
        assert of_slot.bytes == 64 * 28 * 28

    def test_transfer_latency_is_bytes_over_bandwidth(self, chain_model):
        ll = chain_model.layer("c2")
        bw = chain_model.accel.interface_bandwidth("if")
        assert ll.slots[0].latency == pytest.approx(ll.slots[0].bytes / bw)

    def test_eltwise_has_two_if_slots(self):
        model = LatencyModel(build_residual_block(), small_accel())
        ll = model.layer("add")
        if_slots = [s for s in ll.slots if s.kind is TensorKind.IFMAP]
        assert {s.tensor for s in if_slots} == {"f:conv3", "f:proj"}

    def test_concat_consumer_reads_branch_tensors(self):
        model = LatencyModel(build_snippet(), small_accel())
        ll = model.layer("C4")
        if_tensors = {s.tensor for s in ll.slots if s.kind is TensorKind.IFMAP}
        assert if_tensors == {"f:C2", "f:C3"}


class TestComputeLatency:
    def test_compute_is_macs_over_effective_rate(self, chain_model):
        ll = chain_model.layer("c2")
        accel = chain_model.accel
        eff = accel.array.effective_macs(64, 64)
        assert ll.compute == pytest.approx(ll.macs / (eff * accel.frequency))

    def test_first_conv_counts_three_input_channels(self, chain_model):
        ll = chain_model.layer("c1")
        assert ll.macs == 64 * 28 * 28 * 3 * 9


class TestEquationOne:
    def test_node_latency_is_max_of_components(self, chain_model):
        ll = chain_model.layer("c2")
        expected = max(
            ll.compute,
            ll.slot_latency(TensorKind.IFMAP),
            ll.slot_latency(TensorKind.WEIGHT),
            ll.slot_latency(TensorKind.OFMAP),
        )
        assert ll.latency() == pytest.approx(expected)

    def test_onchip_tensor_removes_its_transfer(self, chain_model):
        before = chain_model.node_latency("c2")
        after = chain_model.node_latency("c2", frozenset({"f:c1"}))
        assert after <= before
        ll = chain_model.layer("c2")
        assert ll.slot_latency(TensorKind.IFMAP, frozenset({"f:c1"})) == 0.0

    def test_onchip_output_removes_producer_writeback(self, chain_model):
        ll = chain_model.layer("c2")
        assert ll.slot_latency(TensorKind.OFMAP, frozenset({"f:c2"})) == 0.0

    def test_residual_applies_to_onchip_weight(self, chain_model):
        ll = chain_model.layer("c2")
        resid = {"w:c2": 1.0}
        assert ll.slot_latency(
            TensorKind.WEIGHT, frozenset({"w:c2"}), resid
        ) == pytest.approx(1.0)

    def test_latency_never_below_compute(self, chain_model):
        all_tensors = frozenset(
            s.tensor for ll_ in chain_model._layers.values() for s in ll_.slots
        )
        for name in chain_model.nodes():
            assert chain_model.node_latency(name, all_tensors) == pytest.approx(
                chain_model.layer(name).compute
            )


class TestAggregates:
    def test_total_latency_is_sum(self, chain_model):
        total = sum(chain_model.node_latency(n) for n in chain_model.nodes())
        assert chain_model.umm_latency() == pytest.approx(total)

    def test_compute_bound_is_floor(self, chain_model):
        assert chain_model.compute_bound_latency() <= chain_model.umm_latency()

    def test_memory_bound_classification(self, chain_model):
        for name in chain_model.memory_bound_nodes():
            ll = chain_model.layer(name)
            assert ll.worst_transfer > ll.compute

    def test_throughput_uses_nominal_ops(self, chain_model):
        total_ops = 2 * sum(chain_model.layer(n).macs for n in chain_model.nodes())
        lat = chain_model.umm_latency()
        assert chain_model.throughput(lat) == pytest.approx(total_ops / lat)

    def test_throughput_rejects_zero_latency(self, chain_model):
        with pytest.raises(ValueError):
            chain_model.throughput(0.0)

    def test_bandwidth_requirement(self, chain_model):
        ll = chain_model.layer("c2")
        expected = ll.total_transfer_bytes / ll.compute
        assert chain_model.bandwidth_requirement("c2") == pytest.approx(expected)

    def test_unknown_node_raises(self, chain_model):
        with pytest.raises(KeyError):
            chain_model.layer("ghost")


class TestResidencyOptions:
    def test_if_residency_removes_reloads(self):
        g = build_chain()
        plain = LatencyModel(g, small_accel())
        # 64ch x 16x16 halo x 1B = 16 KB working set; a 32 KB cap fits it.
        capped = LatencyModel(build_chain(), small_accel(if_resident_cap=32 * 1024))
        assert (
            capped.layer("c2").slots[0].bytes
            == plain.layer("c2").slots[0].bytes // 4
        )

    def test_too_small_cap_changes_nothing(self):
        plain = LatencyModel(build_chain(), small_accel())
        capped = LatencyModel(build_chain(), small_accel(if_resident_cap=1024))
        assert capped.layer("c2").slots[0].bytes == plain.layer("c2").slots[0].bytes

    def test_wt_residency_removes_spatial_reloads(self):
        plain = LatencyModel(build_chain(), small_accel())
        # Weight working set: tm(16) x 64 x 9 x 1B = 9 KB.
        capped = LatencyModel(build_chain(), small_accel(wt_resident_cap=16 * 1024))
        assert (
            capped.layer("c2").slots[1].bytes
            == plain.layer("c2").slots[1].bytes // 4
        )

    def test_precision_doubles_working_set(self):
        # The same cap that fits int8 no longer fits int16.
        cap = 12 * 1024
        int8_model = LatencyModel(
            build_chain(), small_accel(precision=INT8, wt_resident_cap=cap)
        )
        int16_model = LatencyModel(
            build_chain(), small_accel(precision=INT16, wt_resident_cap=cap)
        )
        # int8: 9 KB fits; int16: 18 KB does not.
        assert int8_model.layer("c2").slots[1].bytes == 64 * 64 * 9
        assert int16_model.layer("c2").slots[1].bytes == 64 * 64 * 9 * 2 * 4


def _without_ddr(accel):
    """The design with its DDR model removed after validation."""
    object.__setattr__(accel, "ddr", None)
    return accel


class TestBandwidthReads:
    """A slot reads its interface bandwidth only when it moves bytes."""

    def test_zero_byte_slots_build_without_ddr(self):
        # A zero-width element makes every slot carry zero bytes.
        empty = Precision(name="int8", bits=8, dsps_per_mac=1)
        object.__setattr__(empty, "bits", 0)
        accel = _without_ddr(small_accel())
        object.__setattr__(accel, "precision", empty)
        model = LatencyModel(build_chain(), accel)
        slots = list(model.slots())
        assert slots
        assert all(s.bytes == 0 and s.latency == 0.0 for s in slots)

    def test_first_nonempty_slot_needs_ddr(self):
        with pytest.raises(AssertionError):
            LatencyModel(build_chain(), _without_ddr(small_accel()))
