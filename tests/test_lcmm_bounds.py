"""The exact lower bounds of ``LatencyModel.compute_bound_latency``.

Two properties are pinned here:

* **validity** — every whole-tensor compile scores at or above its
  capacity bound, which is at or above Σ compute, over the zoo and over
  random graphs;
* **the fusion early exits change no decision** — ``FuseLayersPass``
  rejects fusion from these bounds before building a fused engine, and a
  compile with the bounds disabled decides exactly the same.

Two configurations are outside the capacity bound and not checked:

* ``fractional_fill`` pins *part* of a tensor that does not fit whole, so
  a slot the bound charges in full can be partly resident;
* ``fused_sched`` reports a transfer-schedule makespan whose loads overlap
  across nodes, not an Eq. 1 sum of per-node maxima.
"""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

from repro.analysis.experiments import (
    FUSION_ABLATION_SRAM_HEADROOM,
    fusion_ablation_design,
)
from repro.analysis.reference import model_reference_design
from repro.fingerprint import fingerprint
from repro.hw.precision import INT8, INT16
from repro.hw.sram import BRAM36_BYTES, blocks_for
from repro.lcmm.framework import LCMMOptions, package_result, run_lcmm
from repro.lcmm.fusion import apply_fusion, find_fusion_candidates
from repro.lcmm.passes import CompilationContext, PassManager, default_pipeline
from repro.models.zoo import get_model, list_models
from repro.perf.latency import LatencyModel
from repro.perf.tiling import TileConfig

from tests.conftest import build_chain, small_accel
from tests.test_perf_engine import random_dags

#: The whole-tensor configurations the capacity bound covers.
BOUNDED_CONFIGS = {
    "dnnk": LCMMOptions(splitting=False),
    "greedy": LCMMOptions(use_greedy=True, splitting=False),
    "splitting": LCMMOptions(),
    "fused": LCMMOptions(fuse_layers=True),
}


def _assert_bounded(result, model: LatencyModel) -> None:
    """latency ≥ capacity bound ≥ Σ compute, on the model the result scored."""
    if result.fused_edges:
        model = apply_fusion(model, result.fused_edges)
    capacity = result.dnnk_result.capacity_bytes
    assert result.dnnk_result.used_bytes <= capacity
    floor = model.compute_bound_latency()
    bound = model.compute_bound_latency(capacity)
    assert result.latency >= bound >= floor, (result.latency, bound, floor)


@pytest.mark.parametrize("precision", [INT8, INT16], ids=["int8", "int16"])
@pytest.mark.parametrize("model_name", list_models())
def test_zoo_compiles_meet_their_bound(model_name, precision):
    graph = get_model(model_name)
    accel = model_reference_design(model_name, precision, "lcmm")
    model = LatencyModel(graph, accel)
    for options in BOUNDED_CONFIGS.values():
        _assert_bounded(run_lcmm(graph, accel, options=options, model=model), model)


def test_capacity_bound_is_tight_on_vgg16_int8():
    """vgg16's oversized tensors pin its splitting compile to the bound."""
    graph = get_model("vgg16")
    accel = model_reference_design("vgg16", INT8, "lcmm")
    model = LatencyModel(graph, accel)
    result = run_lcmm(graph, accel, model=model)
    bound = model.compute_bound_latency(result.dnnk_result.capacity_bytes)
    assert bound > model.compute_bound_latency()
    assert result.latency == pytest.approx(bound, rel=1e-9)


@pytest.mark.parametrize("model_name", list_models())
def test_fusion_keeps_the_compute_floor(model_name):
    """The premise of the first fusion exit: the fused floor is the same float."""
    accel = model_reference_design(model_name, INT8, "lcmm")
    model = LatencyModel(get_model(model_name), accel)
    edges = find_fusion_candidates(model)
    assert edges
    floor = model.compute_bound_latency()
    assert floor == sum(model.layer(n).compute for n in model.nodes())
    assert apply_fusion(model, edges).compute_bound_latency() == floor


def test_nan_or_negative_slot_counts_compute_only():
    """The guard: a node with a NaN or negative slot term bounds at compute.

    At capacity 0 every non-empty tensor is oversized, so every other
    node bounds at its all-off-chip (UMM) latency.
    """
    model = LatencyModel(get_model("squeezenet"), small_accel(ddr_efficiency=0.05))
    target = next(n for n in model.nodes() if model.layer(n).is_memory_bound)
    ll = model.layer(target)
    for bad in (float("nan"), -1.0):
        layers = {name: model.layer(name) for name in model.nodes()}
        layers[target] = replace(
            ll, slots=[replace(ll.slots[0], latency=bad)] + ll.slots[1:]
        )
        edited = LatencyModel.from_layers(model.graph, model.accel, layers)
        assert edited.compute_bound_latency(0) == sum(
            ll.compute if n == target else model.layer(n).latency()
            for n in model.nodes()
        )


def _budget(accel, headroom):
    """An SRAM budget leaving ``headroom`` bytes for tensors (None: device)."""
    if headroom is None:
        return None
    return blocks_for(accel.tile_buffer_bytes(), BRAM36_BYTES) * BRAM36_BYTES + headroom


@settings(max_examples=40, deadline=None)
@given(
    graph=random_dags(),
    efficiency=st.sampled_from([1.0, 0.3, 0.05]),
    headroom=st.sampled_from([None, 0, 16 * 1024, 64 * 1024, 256 * 1024]),
    config=st.sampled_from(sorted(BOUNDED_CONFIGS)),
)
def test_random_dags_meet_their_bound(graph, efficiency, headroom, config):
    accel = small_accel(ddr_efficiency=efficiency)
    options = replace(BOUNDED_CONFIGS[config], sram_budget=_budget(accel, headroom))
    model = LatencyModel(graph, accel)
    _assert_bounded(run_lcmm(graph, accel, options=options, model=model), model)


# ---------------------------------------------------------------------------
# The fusion early exits
# ---------------------------------------------------------------------------


def _compile(graph, accel, options, *, exits: bool):
    """(result, fusion decision, fusion diagnostic) of one pipeline run.

    ``exits=False`` disables both early exits by making every bound
    ``-inf``, so the pass evaluates the fused candidates as it did
    before the exits existed.
    """
    ctx = CompilationContext.create(graph, accel, options)
    manager = PassManager(default_pipeline(options))
    if exits:
        manager.run(ctx)
    else:
        with mock.patch.object(
            LatencyModel, "compute_bound_latency", return_value=float("-inf")
        ):
            manager.run(ctx)
    (diag,) = [d for d in ctx.diagnostics if d.pass_name == "fuse_layers"]
    return package_result(ctx, manager), ctx.require("fusion"), diag


def _assert_same_decision(graph, accel, options):
    fast, fast_decision, diag = _compile(graph, accel, options, exits=True)
    slow, slow_decision, slow_diag = _compile(graph, accel, options, exits=False)
    assert fingerprint(fast) == fingerprint(slow)
    assert fast.fused_edges == slow.fused_edges
    assert fast_decision == slow_decision
    assert slow_diag.data.get("bound", "evaluated") == "evaluated"
    return diag


#: The unit-test tile, and one whose 48-channel output tile lets every
#: random conv stream its input once, so more edges are legal to fuse.
FUSION_TILES = [TileConfig(16, 16, 14, 14), TileConfig(48, 16, 14, 14)]


#: Random DAGs, plus conv chains, where every edge is adjacent and so a
#: fusion candidate.
FUSION_GRAPHS = st.one_of(
    random_dags(),
    st.builds(
        build_chain,
        num_convs=st.integers(min_value=2, max_value=6),
        channels=st.sampled_from([16, 32, 48]),
        hw=st.sampled_from([7, 14]),
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    graph=FUSION_GRAPHS,
    efficiency=st.sampled_from([1.0, 0.3, 0.05]),
    headroom=st.sampled_from([None, 0, 16 * 1024, 64 * 1024, 256 * 1024]),
    tile=st.sampled_from(FUSION_TILES),
)
def test_fusion_exits_change_no_decision(graph, efficiency, headroom, tile):
    accel = replace(small_accel(ddr_efficiency=efficiency), tile=tile)
    options = LCMMOptions(fuse_layers=True, sram_budget=_budget(accel, headroom))
    diag = _assert_same_decision(graph, accel, options)
    event(f"{diag.category} ({diag.data.get('bound', '-')})")


def test_vgg16_rejects_fusion_by_the_capacity_bound():
    graph = get_model("vgg16")
    accel = model_reference_design("vgg16", INT8, "lcmm")
    diag = _assert_same_decision(graph, accel, LCMMOptions(fuse_layers=True))
    assert diag.category == "fusion-rejected"
    assert diag.data["bound"] == "capacity"


def test_googlenet_rejects_fusion_by_the_compute_bound():
    graph = get_model("googlenet")
    accel = model_reference_design("googlenet", INT8, "lcmm")
    diag = _assert_same_decision(graph, accel, LCMMOptions(fuse_layers=True))
    assert diag.category == "fusion-rejected"
    assert diag.data["bound"] == "compute"


def test_constrained_resnet50_still_accepts_fusion():
    """The 0.5x-DDR ablation design of ``benchmarks/test_fusion.py``."""
    accel = fusion_ablation_design(INT8, "lcmm")
    budget = accel.tile_buffer_bytes() + FUSION_ABLATION_SRAM_HEADROOM
    options = LCMMOptions(sram_budget=budget, fuse_layers=True)
    diag = _assert_same_decision(get_model("resnet50"), accel, options)
    assert diag.category == "fusion-accepted"
