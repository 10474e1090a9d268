"""Tests for the text plotting helpers."""

import pytest

from repro.analysis.plots import (
    bar_chart,
    footprint_timeline,
    roofline_scatter,
    simulation_gantt,
)
from repro.lcmm.framework import run_lcmm
from repro.perf.latency import LatencyModel
from repro.perf.roofline import RooflineModel
from repro.sim import simulate

from tests.conftest import build_chain, small_accel


@pytest.fixture(scope="module")
def setup():
    graph = build_chain(num_convs=6, channels=128, hw=14)
    accel = small_accel(ddr_efficiency=0.05)
    model = LatencyModel(graph, accel)
    lcmm = run_lcmm(graph, accel, model=model)
    return graph, accel, model, lcmm


class TestRooflineScatter:
    def test_renders_with_markers(self, setup):
        graph, accel, model, _ = setup
        out = roofline_scatter(RooflineModel(graph, accel, model))
        assert "ridge" in out
        assert "m" in out or "c" in out
        assert len(out.splitlines()) == 19  # header + 18 rows

    def test_respects_dimensions(self, setup):
        graph, accel, model, _ = setup
        out = roofline_scatter(RooflineModel(graph, accel, model), width=30, height=5)
        body = out.splitlines()[1:]
        assert len(body) == 5
        assert all(len(line) <= 30 for line in body)


class TestBarChart:
    def test_peak_bar_is_full_width(self):
        out = bar_chart(["a", "b"], [1.0, 2.0], width=10)
        lines = out.splitlines()
        assert lines[1].count("#") == 10
        assert lines[0].count("#") == 5

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bar_chart([], [])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [0.0])


class TestFootprintTimeline:
    def test_one_row_per_step(self, setup):
        _, _, model, lcmm = setup
        out = footprint_timeline(lcmm)
        assert len(out.splitlines()) == len(model.nodes()) + 1

    def test_marks_residency(self, setup):
        _, _, _, lcmm = setup
        out = footprint_timeline(lcmm)
        if lcmm.physical_buffers:
            assert "#" in out

    def test_max_steps_truncates(self, setup):
        _, _, _, lcmm = setup
        out = footprint_timeline(lcmm, max_steps=2)
        assert len(out.splitlines()) == 3

    def test_empty_allocation(self, setup):
        graph, accel, model, _ = setup
        from repro.lcmm.framework import LCMMOptions

        empty = run_lcmm(
            graph,
            accel,
            options=LCMMOptions(feature_reuse=False, weight_prefetch=False),
            model=model,
        )
        assert "no on-chip buffers" in footprint_timeline(empty)


class TestGantt:
    def test_rows_and_legend(self, setup):
        _, _, model, lcmm = setup
        sim = simulate(model, lcmm.onchip_tensors, prefetch=lcmm.prefetch_result)
        out = simulation_gantt(sim)
        assert "= execution" in out
        assert "=" in out.splitlines()[0]

    def test_max_rows(self, setup):
        _, _, model, lcmm = setup
        sim = simulate(model, lcmm.onchip_tensors, prefetch=lcmm.prefetch_result)
        out = simulation_gantt(sim, max_rows=3)
        assert len(out.splitlines()) == 4  # 3 rows + legend

    def test_prefetch_marker_present_when_prefetching(self, setup):
        _, _, model, lcmm = setup
        sim = simulate(model, lcmm.onchip_tensors, prefetch=lcmm.prefetch_result)
        onchip_weights = [t for t in lcmm.onchip_tensors if t.startswith("w:")]
        if onchip_weights:
            assert "~" in simulation_gantt(sim)
