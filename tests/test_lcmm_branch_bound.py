"""Tests for the branch-and-bound exact allocator (a test oracle)."""

import pytest

from repro.hw.sram import URAM_BYTES
from repro.lcmm.dnnk import dnnk_allocate
from repro.lcmm.feature_reuse import feature_reuse_pass
from repro.lcmm.prefetch import weight_prefetch_pass
from repro.lcmm.splitting import combine_buffers
from repro.perf.latency import LatencyModel

from tests.conftest import build_chain, build_snippet, small_accel
from tests.oracles import branch_and_bound_allocate, exhaustive_allocate


def make_buffers(model):
    feature = feature_reuse_pass(model.graph, model)
    prefetch = weight_prefetch_pass(model.graph, model)
    return combine_buffers([feature.buffers, prefetch.buffers])


@pytest.fixture(scope="module")
def setup():
    model = LatencyModel(
        build_chain(num_convs=6, channels=128, hw=14),
        small_accel(ddr_efficiency=0.05),
    )
    return model, make_buffers(model)


class TestOptimality:
    @pytest.mark.parametrize("blocks", [0, 1, 2, 4, 8, 100])
    def test_matches_exhaustive(self, setup, blocks):
        model, buffers = setup
        capacity = blocks * URAM_BYTES
        bb = branch_and_bound_allocate(buffers, model, capacity)
        ex = exhaustive_allocate(buffers, model, capacity)
        assert model.total_latency(bb.onchip_tensors) == pytest.approx(
            model.total_latency(ex.onchip_tensors)
        )

    def test_never_worse_than_dnnk(self, setup):
        model, buffers = setup
        for blocks in (2, 5, 9):
            capacity = blocks * URAM_BYTES
            bb = branch_and_bound_allocate(buffers, model, capacity)
            dp = dnnk_allocate(buffers, model, capacity)
            assert model.total_latency(bb.onchip_tensors) <= (
                model.total_latency(dp.onchip_tensors) + 1e-15
            )

    def test_snippet_instance(self):
        model = LatencyModel(build_snippet(), small_accel(ddr_efficiency=0.05))
        buffers = make_buffers(model)
        capacity = 4 * URAM_BYTES
        bb = branch_and_bound_allocate(buffers, model, capacity)
        ex = exhaustive_allocate(buffers, model, capacity)
        assert model.total_latency(bb.onchip_tensors) == pytest.approx(
            model.total_latency(ex.onchip_tensors)
        )


class TestGuards:
    def test_capacity_respected(self, setup):
        model, buffers = setup
        capacity = 3 * URAM_BYTES
        bb = branch_and_bound_allocate(buffers, model, capacity)
        import math

        blocks = sum(
            math.ceil(b.size_bytes / URAM_BYTES) for b in bb.allocated
        )
        assert blocks * URAM_BYTES <= capacity

    def test_instance_size_guard(self, setup):
        model, buffers = setup
        with pytest.raises(ValueError, match="limited"):
            branch_and_bound_allocate(buffers, model, 10**9, max_buffers=1)

    def test_negative_capacity_rejected(self, setup):
        model, buffers = setup
        with pytest.raises(ValueError):
            branch_and_bound_allocate(buffers, model, -1)

    def test_empty_buffer_list(self, setup):
        model, _ = setup
        result = branch_and_bound_allocate([], model, 10 * URAM_BYTES)
        assert result.allocated == ()
