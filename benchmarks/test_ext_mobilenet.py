"""Extension bench: LCMM on a depthwise-separable network (MobileNetV1).

MobileNet sits at the opposite roofline extreme from the paper's
benchmarks: depthwise layers have almost no data reuse, so most of the
network is memory bound.  This bench measures how much of that starvation
LCMM's tensor pinning recovers on the 16-bit reference design family.
"""

import pytest

from repro.analysis.experiments import reference_design
from repro.analysis.report import format_table
from repro.hw.precision import INT16
from repro.lcmm.framework import run_lcmm, umm_only_result
from repro.lcmm.validate import validate_result
from repro.models import get_model
from repro.perf.latency import LatencyModel
from repro.perf.roofline import RooflineModel

from conftest import attach


def run_mobilenet():
    graph = get_model("mobilenet_v1")
    accel_umm = reference_design("resnet152", INT16, "umm")
    accel_lcmm = reference_design("resnet152", INT16, "lcmm")
    umm_model = LatencyModel(graph, accel_umm)
    lcmm_model = LatencyModel(graph, accel_lcmm)
    umm = umm_only_result(graph, accel_umm, umm_model)
    lcmm = run_lcmm(graph, accel_lcmm, model=lcmm_model)
    return graph, umm_model, lcmm_model, umm, lcmm


def test_mobilenet(benchmark):
    graph, umm_model, lcmm_model, umm, lcmm = benchmark(run_mobilenet)
    validate_result(lcmm, lcmm_model)

    roofline = RooflineModel(graph, umm_model.accel, umm_model)
    bound, total = roofline.memory_bound_count(convs_only=True)
    dw_bound = sum(
        1
        for node in umm_model.nodes()
        if node.endswith("/dw") and umm_model.layer(node).is_memory_bound
    )
    dw_total = sum(1 for node in umm_model.nodes() if node.endswith("/dw"))

    print("\nMobileNetV1 16-bit — the depthwise stress case")
    print(
        format_table(
            ("Metric", "Value"),
            [
                ("memory-bound conv layers", f"{bound}/{total}"),
                ("memory-bound depthwise layers", f"{dw_bound}/{dw_total}"),
                ("UMM latency (ms)", f"{umm.latency * 1e3:.3f}"),
                ("LCMM latency (ms)", f"{lcmm.latency * 1e3:.3f}"),
                ("speedup", f"{umm.latency / lcmm.latency:.2f}x"),
                ("tensors on chip", len(lcmm.onchip_tensors)),
            ],
        )
    )

    attach(
        benchmark,
        speedup=round(umm.latency / lcmm.latency, 3),
        memory_bound=f"{bound}/{total}",
    )

    # Depthwise layers dominate the memory-bound population...
    assert dw_bound >= dw_total // 2
    # ...and LCMM recovers a meaningful share of the starvation.
    assert umm.latency / lcmm.latency > 1.1
