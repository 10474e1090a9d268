"""Ablation bench: contribution of each LCMM pass.

DESIGN.md calls out four design choices; this bench disables each pass in
turn on GoogLeNet 16-bit (the paper's own breakdown configuration) and
reports the speedup each configuration retains.
"""

import pytest

from repro.analysis.experiments import reference_design
from repro.analysis.report import format_table
from repro.hw.precision import INT16
from repro.lcmm.framework import LCMMOptions, run_lcmm, umm_only_result
from repro.models import get_model
from repro.perf.latency import LatencyModel

from conftest import attach

VARIANTS = {
    "full": LCMMOptions(),
    "no-feature-reuse": LCMMOptions(feature_reuse=False),
    "no-weight-prefetch": LCMMOptions(weight_prefetch=False),
    "no-splitting": LCMMOptions(splitting=False),
    "greedy-allocator": LCMMOptions(use_greedy=True),
}


@pytest.fixture(scope="module")
def setup():
    graph = get_model("googlenet")
    accel_umm = reference_design("googlenet", INT16, "umm")
    accel_lcmm = reference_design("googlenet", INT16, "lcmm")
    umm_model = LatencyModel(graph, accel_umm)
    lcmm_model = LatencyModel(graph, accel_lcmm)
    umm = umm_only_result(graph, accel_umm, umm_model)
    return graph, accel_lcmm, lcmm_model, umm


def run_all_variants(graph, accel, model):
    return {
        name: run_lcmm(graph, accel, options=options, model=model)
        for name, options in VARIANTS.items()
    }


def test_ablation_passes(benchmark, setup):
    graph, accel, model, umm = setup
    results = benchmark(run_all_variants, graph, accel, model)

    speedups = {name: umm.latency / r.latency for name, r in results.items()}

    print("\nAblation — GoogLeNet 16-bit speedup over UMM per configuration")
    print(
        format_table(
            ("Configuration", "Latency(ms)", "Speedup"),
            [
                (name, f"{results[name].latency * 1e3:.3f}", f"{speedups[name]:.3f}")
                for name in VARIANTS
            ],
        )
    )

    attach(benchmark, speedups={k: round(v, 3) for k, v in speedups.items()})

    full = speedups["full"]
    assert full >= speedups["no-feature-reuse"]
    assert full >= speedups["no-weight-prefetch"]
    assert full >= speedups["no-splitting"] - 1e-9
    # Both passes contribute measurably on GoogLeNet 16-bit.
    assert speedups["no-feature-reuse"] < full
    assert speedups["no-weight-prefetch"] < full
