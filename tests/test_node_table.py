"""The one per-design Eq. 1 node table against its reference builders.

:class:`~repro.perf.node_table.NodeTable` is what the latency model, the
allocation engine, the operation latency table (Eq. 2) and DNNK's gain
evaluator all read.  Every value here is checked bit for bit
(``float.hex``) against the plain walks over ``LayerLatency`` views in
``tests/oracles.py``: on drawn graphs and designs, on models whose
terms are edited to negative, NaN and infinite values (the cases the
evaluator's prune and compute-floor rules must leave alone), and on
each zoo design's fused model.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import BENCHMARKS, reference_design
from repro.hw.precision import INT8
from repro.ir.tensor import TensorKind
from repro.lcmm.dnnk import _EngineGainEvaluator
from repro.lcmm.feature_reuse import feature_reuse_pass
from repro.lcmm.passes.standard import _fusion_edges, fused_model
from repro.lcmm.prefetch import weight_prefetch_pass
from repro.lcmm.splitting import combine_buffers
from repro.lcmm.tables import eq2_latency_reduction, operation_latency_table
from repro.models.zoo import get_model, list_models
from repro.perf.engine import AllocationEngine
from repro.perf.latency import LatencyModel
from tests.oracles import (
    NaiveGainEvaluator,
    evaluator_node_walks,
    flat_tables,
    operation_rows,
)
from tests.strategies import accelerators, graphs


def _bits(value) -> object:
    """A float's exact bits (NaNs compare equal); nested tuples map through."""
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    if isinstance(value, float):
        return "nan" if math.isnan(value) else value.hex()
    return value


def _buffers(model: LatencyModel):
    feature = feature_reuse_pass(model.graph, model)
    prefetch = weight_prefetch_pass(model.graph, model)
    return combine_buffers([feature.buffers, prefetch.buffers])


def assert_table_matches_oracles(model: LatencyModel, buffers, contexts=4) -> None:
    """Every term of the model's node table equals the reference walks."""
    table = model.node_table
    ref = flat_tables(model)
    assert table.names == ref.node_names
    assert table.index == ref.node_index
    assert table.kinds == ref.slot_kinds
    assert table.tids == ref.slot_tids
    assert table.tensor_index == ref.tensor_index
    assert table.tensor_nodes == ref.tensor_nodes
    assert _bits(tuple(table.compute)) == _bits(tuple(ref.compute))
    assert _bits(tuple(table.lats)) == _bits(tuple(ref.slot_lats))
    assert _bits(tuple(table.sums)) == _bits(tuple(ref.base_sums))
    assert _bits(tuple(table.umm)) == _bits(tuple(ref.base_node_lat))
    assert _bits(model.total_latency()) == _bits(
        sum(model.layer(n).latency() for n in model.nodes())
    )
    assert model.memory_bound_nodes() == [
        n for n in model.nodes() if model.layer(n).is_memory_bound
    ]

    rows = operation_rows(model)
    for name, row in operation_latency_table(model).items():
        compute, s_if, s_wt, s_of, latency, terms = rows[name]
        assert _bits(
            (row.lat_compute, row.lat_ifmap, row.lat_weight, row.lat_ofmap, row.latency)
        ) == _bits((compute, s_if, s_wt, s_of, latency)), name
        assert list(row.eq2_terms) == list(terms), name
        assert _bits(tuple(row.eq2_terms.values())) == _bits(tuple(terms.values()))
        for tensor, term in terms.items():
            # The reduction sums its terms from 0.0, so a -0.0 term gives 0.0.
            assert _bits(eq2_latency_reduction(model, tensor, [name])) == _bits(0.0 + term)

    if not buffers:
        return
    fast = _EngineGainEvaluator(AllocationEngine(model), buffers)
    walks = evaluator_node_walks(model, buffers)
    assert set(fast._node_walk) == set(walks)
    for ni, (walk, live, floor) in walks.items():
        assert _bits(fast._node_walk[ni]) == _bits(walk), ni
        assert fast._node_mask[ni] == live, ni
        assert _bits(table.binding(ni)[1]) == _bits(floor), ni
    oracle = NaiveGainEvaluator(model, buffers)
    assert [
        tuple(table.names[ni] for ni in nodes) for nodes in fast._affected
    ] == oracle._affected
    n = len(buffers)
    full = (1 << n) - 1
    rng = random.Random(n)
    for ctx in (0, full, *(rng.randint(0, full) for _ in range(contexts))):
        chosen = {i for i in range(n) if ctx >> i & 1}
        assert _bits(fast.total_latency(chosen)) == _bits(oracle.total_latency(chosen))
        for i in range(n):
            assert _bits(fast.gain(i, ctx)) == _bits(oracle.gain(i, ctx)), (ctx, i)


#: Terms the prune and compute-floor rules must not be fooled by.
_ODD = st.sampled_from([-1.0, -0.0, 0.0, math.nan, math.inf, -math.inf])


@st.composite
def _edited(draw, model: LatencyModel) -> LatencyModel:
    """``model`` with a few slot latencies (and maybe a compute) replaced."""
    layers = {name: model.layer(name) for name in model.nodes()}
    names = list(layers)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        name = draw(st.sampled_from(names))
        ll = layers[name]
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            layers[name] = replace(ll, compute=draw(st.sampled_from([math.inf, math.nan])))
            continue
        position = draw(st.integers(min_value=0, max_value=len(ll.slots) - 1))
        odd = draw(_ODD)
        slot = ll.slots[position]
        latency = odd * slot.latency if odd == -1.0 else odd
        slots = list(ll.slots)
        slots[position] = replace(slot, latency=latency)
        # Lift compute so a term near it decides the prune rule.
        compute = ll.compute
        if draw(st.booleans()):
            compute = max(compute, sum(s.latency for s in ll.slots) / 2)
        layers[name] = replace(ll, compute=compute, slots=slots)
    return LatencyModel.from_layers(model.graph, model.accel, layers)


class TestNodeTableParity:
    @given(graph=graphs(), accel=accelerators())
    @settings(max_examples=60, deadline=None)
    def test_characterised_model(self, graph, accel):
        model = LatencyModel(graph, accel)
        assert_table_matches_oracles(model, _buffers(model))

    @given(graph=graphs(), accel=accelerators(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_negative_nan_and_infinite_terms(self, graph, accel, data):
        model = LatencyModel(graph, accel)
        buffers = _buffers(model)
        assert_table_matches_oracles(data.draw(_edited(model)), buffers)

    @pytest.mark.parametrize("odd, clean", [(math.nan, False), (-1.0, False), (math.inf, True)])
    def test_odd_term_disables_pruning(self, odd, clean):
        # A negative or NaN slot voids the compute floor; any of the three
        # makes a kind sum infinite, which keeps every kind live.
        model = LatencyModel(
            get_model("googlenet"), reference_design("googlenet", INT8, "lcmm")
        )
        ni, name = next(
            (ni, n) for ni, n in enumerate(model.nodes()) if len(model.layer(n).slots) > 2
        )
        ll = model.layer(name)
        slots = [replace(ll.slots[0], latency=odd), *ll.slots[1:]]
        layers = {n: model.layer(n) for n in model.nodes()}
        layers[name] = replace(ll, slots=slots)
        table = LatencyModel.from_layers(model.graph, model.accel, layers).node_table
        groups, floor = table.binding(ni)
        assert len(groups) == len(set(table.kinds[ni]))
        assert _bits(floor) == _bits(ll.compute if clean else math.nan)


class TestZooFusedTables:
    @pytest.mark.parametrize("name", list_models())
    def test_fused_table_equals_zeroed_views(self, name):
        # Fusion zeroes slots in place: the fused table equals a model
        # rebuilt from the unfused views with those slots zeroed, and
        # every term of it equals the reference walks.
        design = reference_design(name if name in BENCHMARKS else "resnet152", INT8, "lcmm")
        model = LatencyModel(get_model(name), design)
        fused = fused_model(model)
        edges = model.derived(_fusion_edges)
        reads = {(e.consumer, e.tensor) for e in edges}
        writes = {(e.producer, e.tensor) for e in edges if not e.shortcut}
        layers = {}
        for node in model.nodes():
            ll = model.layer(node)
            layers[node] = replace(ll, slots=[
                replace(s, bytes=0, latency=0.0)
                if (s.kind is TensorKind.IFMAP and (node, s.tensor) in reads)
                or (s.kind is TensorKind.OFMAP and (node, s.tensor) in writes)
                else s
                for s in ll.slots
            ])
        rebuilt = LatencyModel.from_layers(model.graph, model.accel, layers).node_table
        table = fused.node_table
        assert table.tids == rebuilt.tids and table.bytes == rebuilt.bytes
        assert _bits(tuple(table.lats)) == _bits(tuple(rebuilt.lats))
        assert _bits(tuple(table.sums)) == _bits(tuple(rebuilt.sums))
        assert _bits(tuple(table.umm)) == _bits(tuple(rebuilt.umm))
        assert_table_matches_oracles(fused, _buffers(model), contexts=1)
