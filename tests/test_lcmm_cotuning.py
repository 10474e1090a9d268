"""Tests for tile/allocation co-tuning."""

import pytest

from repro.lcmm.cotuning import cotune
from repro.lcmm.framework import run_lcmm
from repro.perf.latency import LatencyModel
from repro.perf.tiling import TileConfig

from tests.conftest import build_chain, small_accel


@pytest.fixture(scope="module")
def setup():
    graph = build_chain(num_convs=6, channels=128, hw=14)
    accel = small_accel(ddr_efficiency=0.1)
    return graph, accel


TILES = [
    TileConfig(8, 8, 7, 7),
    TileConfig(16, 16, 14, 14),
    TileConfig(32, 32, 14, 14),
]


class TestCoTuning:
    def test_best_is_minimum_of_points(self, setup):
        graph, accel = setup
        result = cotune(graph, accel, tiles=TILES)
        assert result.best_result.latency == pytest.approx(
            min(p.lcmm_latency for p in result.points)
        )

    def test_base_tile_always_evaluated(self, setup):
        graph, accel = setup
        result = cotune(graph, accel, tiles=[TileConfig(8, 8, 7, 7)])
        evaluated = {p.tile for p in result.points}
        assert accel.tile in evaluated

    def test_never_worse_than_base_tile(self, setup):
        graph, accel = setup
        base_result = run_lcmm(graph, accel, model=LatencyModel(graph, accel))
        result = cotune(graph, accel, tiles=TILES)
        assert result.best_result.latency <= base_result.latency + 1e-15

    def test_points_carry_umm_reference(self, setup):
        graph, accel = setup
        result = cotune(graph, accel, tiles=TILES)
        for point in result.points:
            assert point.lcmm_latency <= point.umm_latency + 1e-15
            assert point.tile_buffer_bytes > 0

    def test_best_point_accessor(self, setup):
        graph, accel = setup
        result = cotune(graph, accel, tiles=TILES)
        assert result.best_point.lcmm_latency == pytest.approx(
            result.best_result.latency
        )

    def test_winning_accel_uses_winning_tile(self, setup):
        graph, accel = setup
        result = cotune(graph, accel, tiles=TILES)
        assert result.best_accel.tile == result.best_point.tile


def test_no_fitting_tile_raises_capacity_error():
    """googlenet int16 with only a 142.8 MB tile against 45.3 MB of SRAM."""
    from dataclasses import replace

    from repro.analysis.reference import model_reference_design
    from repro.errors import CapacityError, ReproError
    from repro.hw.precision import INT16
    from repro.models.zoo import get_model

    huge = TileConfig(1024, 1024, 112, 112)
    base = replace(model_reference_design("googlenet", INT16, "lcmm"), tile=huge)
    assert base.tile_buffer_bytes() > base.device.sram_bytes
    with pytest.raises(CapacityError) as info:
        cotune(get_model("googlenet"), base, tiles=[huge])
    assert isinstance(info.value, ReproError)
    assert isinstance(info.value, ValueError)
    assert info.value.details["sram_bytes"] == base.device.sram_bytes
