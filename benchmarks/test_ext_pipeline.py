"""Extension bench: LCMM inside a TGPA-style multi-accelerator pipeline.

The paper's conclusion marks the heterogeneous pipeline of TGPA [17] as
orthogonal future work; this bench performs the integration on ResNet-152
16-bit — split the fabric into tuned per-stage arrays, stream boundary
tensors on chip, run LCMM inside every stage — and reports single-image
latency vs steady-state throughput across pipeline depths.
"""

import pytest

from repro.analysis.experiments import reference_design
from repro.analysis.report import format_table
from repro.hw.precision import INT16
from repro.models import get_model
from repro.perf.partition import ON_CHIP, design_partition

from conftest import attach

DEPTHS = (1, 2, 4)


def run_depths():
    graph = get_model("resnet152")
    base = reference_design("resnet152", INT16, "lcmm")
    return {k: design_partition(graph, base, k, link=ON_CHIP) for k in DEPTHS}


def test_pipeline(benchmark):
    results = benchmark(run_depths)

    print("\nLCMM x TGPA-style pipelining (ResNet-152, 16-bit)")
    rows = []
    for depth, result in results.items():
        rows.append(
            (
                depth,
                f"{result.image_latency * 1e3:.3f}",
                f"{result.period * 1e3:.3f}",
                f"{result.steady_state_throughput:.1f}",
                " / ".join(str(s.accel.array) for s in result.stages),
            )
        )
    print(
        format_table(
            ("stages", "image latency (ms)", "period (ms)", "img/s", "stage arrays"),
            rows,
        )
    )

    attach(
        benchmark,
        throughput={str(k): round(r.steady_state_throughput, 2) for k, r in results.items()},
    )

    single = results[1]
    for depth, result in results.items():
        # Stage coverage and pipelining invariants.
        covered = [n for s in result.stages for n in s.nodes]
        assert covered == get_model("resnet152").compute_schedule()
        assert result.period <= result.image_latency + 1e-15
    # Pipelining sustains at least ~70% of the single-accelerator
    # throughput per image while overlapping images; on memory-relieved
    # ResNet the deeper designs should be competitive.
    for depth in (2, 4):
        assert results[depth].steady_state_throughput >= (
            0.6 * single.steady_state_throughput
        )
