"""Tests for repro.lcmm.tables — the Fig. 7 metric tables."""

import pytest

from repro.analysis.reference import model_reference_design
from repro.hw.precision import INT8, INT16
from repro.ir.tensor import TensorKind
from repro.lcmm.feature_reuse import feature_candidates, feature_reuse_pass
from repro.lcmm.fusion import apply_fusion, find_fusion_candidates
from repro.lcmm.prefetch import hiding_capacity
from repro.lcmm.tables import (
    operation_latency_table,
    tensor_metric_table,
    virtual_buffer_table,
)
from repro.models.zoo import get_model, list_models
from repro.perf.latency import LatencyModel

from tests.conftest import build_chain, small_accel
from tests.oracles import latency_reduction


@pytest.fixture
def model():
    return LatencyModel(
        build_chain(num_convs=4, channels=128, hw=14),
        small_accel(ddr_efficiency=0.05),
    )


class TestOperationLatencyTable:
    def test_row_per_executed_node(self, model):
        table = operation_latency_table(model)
        assert set(table) == set(model.nodes())

    def test_row_values_match_model(self, model):
        table = operation_latency_table(model)
        for name, row in table.items():
            ll = model.layer(name)
            assert row.lat_compute == pytest.approx(ll.compute)
            assert row.lat_ifmap == pytest.approx(ll.slot_latency(TensorKind.IFMAP))
            assert row.lat_weight == pytest.approx(ll.slot_latency(TensorKind.WEIGHT))
            assert row.lat_ofmap == pytest.approx(ll.slot_latency(TensorKind.OFMAP))

    def test_bottleneck_identifies_max(self, model):
        table = operation_latency_table(model)
        for row in table.values():
            values = {
                "compute": row.lat_compute,
                "if": row.lat_ifmap,
                "wt": row.lat_weight,
                "of": row.lat_ofmap,
            }
            assert values[row.bottleneck] == max(values.values())


class TestLatencyReduction:
    def test_exact_marginal_reduction(self, model):
        # Removing c1's output transfer helps both c1 (of) and c2 (if).
        reduction = latency_reduction(model, "f:c1", ("c1", "c2"))
        expected = (
            model.node_latency("c1")
            - model.node_latency("c1", frozenset({"f:c1"}))
            + model.node_latency("c2")
            - model.node_latency("c2", frozenset({"f:c1"}))
        )
        assert reduction == pytest.approx(expected)

    def test_zero_for_irrelevant_tensor(self, model):
        assert latency_reduction(model, "f:ghost", ("c3",)) == pytest.approx(0.0)

    def test_metric_table_mirrors_candidates(self, model):
        candidates = feature_candidates(model.graph, model)
        table = tensor_metric_table(model, candidates)
        assert table == {c.name: c.latency_reduction for c in candidates}


class TestVirtualBufferTable:
    def test_rows_match_buffers(self, model):
        result = feature_reuse_pass(model.graph, model)
        rows = virtual_buffer_table(result.buffers)
        assert len(rows) == len(result.buffers)
        for row, buf in zip(rows, result.buffers):
            assert row.name == buf.name
            assert row.size_bytes == buf.size_bytes
            assert row.tensors == tuple(buf.tensor_names)
            assert row.start <= row.end


_KINDS = (TensorKind.IFMAP, TensorKind.WEIGHT, TensorKind.OFMAP)


def _eq2_terms_from_api(ll):
    """Each tensor's Eq. 2 term, straight from the ``LayerLatency`` API."""
    sums = [ll.slot_latency(kind) for kind in _KINDS]
    components = (ll.compute, *sums)
    gaps = {}
    for k, kind in enumerate(_KINDS):
        if sums[k] <= 0.0:
            continue
        lower = [v for j, v in enumerate(components) if j != k + 1 and v < sums[k]]
        gaps[kind] = (sums[k], sums[k] - (max(lower) if lower else 0.0))
    terms, seen = {}, set()
    for slot in ll.slots:
        if slot.tensor in seen:
            continue
        seen.add(slot.tensor)
        if slot.kind in gaps:
            total, gap = gaps[slot.kind]
            terms[slot.tensor] = gap * (slot.latency / total)
    return terms


def _hex_terms(terms):
    return {name: value.hex() for name, value in terms.items()}


def _assert_table_matches_api(model):
    table = operation_latency_table(model)
    assert list(table) == model.nodes()
    schedule = model.nodes()
    lats = [model.layer(name).latency() for name in schedule]
    capacities = hiding_capacity(model, lats, schedule)
    for name, latency, capacity in zip(schedule, lats, capacities):
        ll, row = model.layer(name), table[name]
        assert row.lat_compute.hex() == ll.compute.hex()
        assert row.lat_ifmap.hex() == ll.slot_latency(TensorKind.IFMAP).hex()
        assert row.lat_weight.hex() == ll.slot_latency(TensorKind.WEIGHT).hex()
        assert row.lat_ofmap.hex() == ll.slot_latency(TensorKind.OFMAP).hex()
        assert row.latency.hex() == latency.hex()
        assert row.is_memory_bound == ll.is_memory_bound
        demand = ll.slot_latency(TensorKind.WEIGHT)
        assert capacity.hex() == max(0.0, latency - demand).hex()
        assert _hex_terms(row.eq2_terms) == _hex_terms(_eq2_terms_from_api(ll))


class TestPerModelTable:
    """The table both colouring passes read equals the ``LayerLatency``
    API bit for bit, and each model instance holds its own."""

    @pytest.mark.parametrize("precision", [INT8, INT16], ids=["int8", "int16"])
    @pytest.mark.parametrize("model_name", list_models())
    def test_zoo_parity(self, model_name, precision):
        model = LatencyModel(
            get_model(model_name),
            model_reference_design(model_name, precision, "lcmm"),
        )
        _assert_table_matches_api(model)
        assert operation_latency_table(model) is operation_latency_table(model)

        fused = apply_fusion(model, find_fusion_candidates(model))
        assert operation_latency_table(fused) is not operation_latency_table(model)
        _assert_table_matches_api(fused)

    def test_fused_model_reads_its_own_slots(self):
        model = LatencyModel(
            get_model("resnet50"), model_reference_design("resnet50", INT8, "lcmm")
        )
        operation_latency_table(model)  # built before the fused model exists
        edges = find_fusion_candidates(model)
        assert edges
        fused = operation_latency_table(apply_fusion(model, edges))
        plain = operation_latency_table(model)
        consumer = edges[0].consumer
        assert fused[consumer].lat_ifmap < plain[consumer].lat_ifmap
