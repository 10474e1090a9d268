#!/usr/bin/env python
"""Quickstart: evaluate LCMM against the UMM baseline on ResNet-152.

Builds the 8-bit reference design pair from the paper's evaluation,
runs uniform memory management and the full LCMM pipeline, and prints
the headline comparison (Tab. 1's ResNet-152 rows).

Run:  python examples/quickstart.py
"""

from repro.analysis.experiments import reference_design
from repro.hw.precision import INT8
from repro.lcmm import run_lcmm, umm_only_result
from repro.models import get_model
from repro.perf.latency import LatencyModel


def main() -> None:
    graph = get_model("resnet152")
    print(f"Model: {graph.name} — {len(graph)} layers, "
          f"{graph.total_macs() / 1e9:.2f} GMACs/inference")

    # The two design points: same accelerator family, UMM clocks slightly
    # higher because LCMM's extra buffering closes timing lower (Tab. 1).
    accel_umm = reference_design("resnet152", INT8, "umm")
    accel_lcmm = reference_design("resnet152", INT8, "lcmm")

    umm = umm_only_result(graph, accel_umm)
    print(f"\nUMM  baseline: {umm.latency * 1e3:8.3f} ms   {umm.tops:.3f} Tops")

    lcmm_model = LatencyModel(graph, accel_lcmm)
    lcmm = run_lcmm(graph, accel_lcmm, model=lcmm_model)
    print(f"LCMM design:   {lcmm.latency * 1e3:8.3f} ms   {lcmm.tops:.3f} Tops")
    print(f"Speedup:       {umm.latency / lcmm.latency:.2f}x   (paper: 1.42x)")

    print(f"\nOn-chip tensors:   {len(lcmm.onchip_tensors)}")
    print(f"Physical buffers:  {len(lcmm.physical_buffers)}")
    print(f"SRAM utilisation:  {lcmm.sram_utilization:.0%} "
          f"(URAM {lcmm.sram_usage.uram_utilization:.0%}, "
          f"BRAM {lcmm.sram_usage.bram_utilization:.0%})")
    print(f"POL:               {lcmm.percentage_onchip_layers(lcmm_model):.0%} "
          "of memory-bound layers benefit")

    print("\nLargest physical buffers:")
    for pbuf in sorted(lcmm.physical_buffers, key=lambda b: -b.size_bytes)[:5]:
        tensors = pbuf.tensor_names
        preview = ", ".join(tensors[:3]) + (", ..." if len(tensors) > 3 else "")
        print(f"  {pbuf.name:7s} {pbuf.size_bytes / 2**20:6.2f} MB  "
              f"{len(tensors):3d} tensors  [{preview}]")


if __name__ == "__main__":
    main()
