"""Extension bench: allocator quality vs the provable optimum.

Compares DNNK (heuristic DP + local search), the density-greedy baseline
and the branch-and-bound exact allocator (a test oracle) across a capacity sweep on
GoogLeNet 16-bit, reporting each heuristic's optimality gap.  The key
quality claim of the repository's allocator: within ~2% of optimal
everywhere on this instance.
"""

import pytest

from repro.analysis.experiments import reference_design
from repro.analysis.report import format_table
from repro.hw.precision import INT16
from repro.hw.sram import URAM_BYTES
from repro.lcmm.dnnk import dnnk_allocate, greedy_allocate
from repro.lcmm.feature_reuse import feature_reuse_pass
from repro.lcmm.prefetch import weight_prefetch_pass
from repro.lcmm.splitting import combine_buffers
from repro.models import get_model
from repro.perf.latency import LatencyModel

from conftest import attach
from tests.oracles import branch_and_bound_allocate

CAPACITY_BLOCKS = (2, 4, 8, 16, 32, 64)


@pytest.fixture(scope="module")
def setup():
    graph = get_model("googlenet")
    accel = reference_design("googlenet", INT16, "lcmm")
    model = LatencyModel(graph, accel)
    feature = feature_reuse_pass(graph, model)
    prefetch = weight_prefetch_pass(graph, model)
    buffers = combine_buffers([feature.buffers, prefetch.buffers])
    return model, buffers


def test_allocator_quality(benchmark, setup):
    model, buffers = setup

    def run_dnnk():
        return [
            model.total_latency(
                dnnk_allocate(buffers, model, blocks * URAM_BYTES).onchip_tensors
            )
            for blocks in CAPACITY_BLOCKS
        ]

    dnnk = benchmark(run_dnnk)
    greedy = [
        model.total_latency(
            greedy_allocate(buffers, model, blocks * URAM_BYTES).onchip_tensors
        )
        for blocks in CAPACITY_BLOCKS
    ]
    optimal = [
        model.total_latency(
            branch_and_bound_allocate(
                buffers, model, blocks * URAM_BYTES
            ).onchip_tensors
        )
        for blocks in CAPACITY_BLOCKS
    ]

    print("\nAllocator quality vs branch-and-bound optimum (GoogLeNet 16-bit)")
    print(
        format_table(
            ("capacity (blk)", "DNNK (ms)", "greedy (ms)", "optimal (ms)", "DNNK gap"),
            [
                (
                    blocks,
                    f"{d * 1e3:.4f}",
                    f"{g * 1e3:.4f}",
                    f"{o * 1e3:.4f}",
                    f"{(d / o - 1) * 100:.2f}%",
                )
                for blocks, d, g, o in zip(CAPACITY_BLOCKS, dnnk, greedy, optimal)
            ],
        )
    )

    worst_gap = max(d / o - 1 for d, o in zip(dnnk, optimal))
    attach(benchmark, worst_gap_pct=round(worst_gap * 100, 3))

    for d, g, o in zip(dnnk, greedy, optimal):
        assert o <= d + 1e-15 and o <= g + 1e-15  # optimum really is optimal
        assert d / o - 1 <= 0.02  # DNNK within 2% of optimal
