"""Analyses a graph holds (``ComputationGraph.derived``).

The tensor enumeration, the schedule positions and live ranges and the
``FloorTable`` read only the graph, so every model and compile on one
graph shares one build of each.  Pinned here: the sharing itself, the
reset on ``add``, that pickling and ``==`` see none of it, and that what
a reader is handed cannot change a later compile.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.analysis.reference import model_reference_design
from repro.fingerprint import fingerprint
from repro.hw.precision import INT8
from repro.lcmm.framework import LCMMOptions, run_lcmm
from repro.lcmm.liveness import LiveRange, feature_live_ranges, schedule_positions
from repro.models.common import conv
from repro.models.zoo import get_model
from repro.perf import latency
from repro.perf.latency import FloorTable, LatencyModel
from repro.perf.tiling import TileConfig

from tests.conftest import build_chain, build_snippet, small_accel


def _googlenet():
    return get_model("googlenet"), model_reference_design("googlenet", INT8, "lcmm")


def test_derived_builds_once_per_graph():
    graph = build_snippet()
    calls = []

    def build(g):
        calls.append(g)
        return len(g)

    assert graph.derived(build) == graph.derived(build) == len(graph)
    assert calls == [graph]


def test_models_and_floors_share_one_table(monkeypatch):
    """Two models of one graph and the graph's floors read one FloorTable."""
    terms = []
    node_terms = latency._node_terms
    monkeypatch.setattr(
        latency, "_node_terms", lambda g, name: terms.append(name) or node_terms(g, name)
    )
    graph = build_snippet()
    accel = small_accel()
    other = replace(accel, frequency=150e6, tile=TileConfig(tm=8, tn=8, th=7, tw=7))
    first = LatencyModel(graph, accel)
    second = LatencyModel(graph, other)
    floor = graph.derived(FloorTable).floor(other)

    assert terms == graph.compute_schedule()
    table = graph.derived(FloorTable)
    assert first._table is second._table is table
    assert floor == table.floor(other) == second.umm_floor()


def test_add_resets_every_analysis():
    graph = build_chain(num_convs=2)
    accel = small_accel()
    LatencyModel(graph, accel)
    floor = graph.derived(FloorTable).floor(accel)
    assert "f:c2" not in feature_live_ranges(graph)
    assert "f:c2" not in {t.name for t in graph.feature_tensors()}

    conv(graph, "c3", "c2", 64, 1)

    assert LatencyModel(graph, accel).nodes() == ["c1", "c2", "c3"]
    assert [n.name for n in graph.derived(FloorTable).nodes] == ["c1", "c2", "c3"]
    assert graph.derived(FloorTable).floor(accel) > floor
    assert schedule_positions(graph)["c3"] == 2
    assert "f:c2" in {t.name for t in graph.feature_tensors()}
    assert feature_live_ranges(graph)["f:c2"] == LiveRange(1, 2)
    assert "w:c3" in {t.name for t in graph.weight_tensors()}


def test_pickle_and_equality_ignore_analyses():
    graph, accel = _googlenet()
    before = pickle.dumps(graph)
    copy = pickle.loads(before)
    for options in (LCMMOptions(), LCMMOptions(fuse_layers=True)):
        compiled = run_lcmm(graph, accel, options=options)
    graph.derived(FloorTable).floor(accel)

    assert pickle.dumps(graph) == before
    assert graph == copy
    assert graph.schedule() == copy.schedule()
    # The copy builds its own analyses and compiles the same.
    assert fingerprint(run_lcmm(copy, accel, options=options)) == fingerprint(compiled)


def test_handed_out_analyses_cannot_change_a_compile():
    graph, accel = _googlenet()
    reference = run_lcmm(graph, accel)
    assert reference.feature_result.candidates

    graph.feature_tensors().clear()
    graph.weight_tensors().clear()
    positions, ranges = schedule_positions(graph), feature_live_ranges(graph)
    with pytest.raises(TypeError):
        positions["conv1/7x7_s2"] = 9  # type: ignore[index]
    with pytest.raises(TypeError):
        ranges["f:conv1/7x7_s2"] = LiveRange(0, 0)  # type: ignore[index]

    assert fingerprint(run_lcmm(graph, accel)) == fingerprint(reference)
    fresh, _ = _googlenet()
    assert fingerprint(run_lcmm(fresh, accel)) == fingerprint(reference)
