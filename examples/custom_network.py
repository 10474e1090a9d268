#!/usr/bin/env python
"""Bring your own network: define a DNN, explore designs, simulate it.

Shows the full downstream-user workflow on a custom model that is not in
the zoo: describe the graph with the IR, let the mini-DSE pick tile sizes
under a buffer budget, run LCMM, and confirm the allocation with the
event-driven simulator (timeline excerpt included).

Run:  python examples/custom_network.py
"""

from repro.hw.precision import INT16
from repro.ir.graph import ComputationGraph
from repro.ir.layer import EltwiseAdd, FullyConnected, InputLayer
from repro.ir.tensor import FeatureMapShape
from repro.lcmm import run_lcmm, umm_only_result, validate_result
from repro.models.common import conv, global_avg_pool, max_pool
from repro.perf.dse import candidate_tiles
from repro.perf.latency import LatencyModel
from repro.perf.space import SampledSpace, explore_space
from repro.perf.systolic import default_accelerator
from repro.sim import simulate


def build_tinynet() -> ComputationGraph:
    """A small residual network for 64x64 inputs."""
    g = ComputationGraph(name="tinynet")
    g.add(InputLayer(name="data", shape=FeatureMapShape(3, 64, 64)))
    x = conv(g, "stem", "data", 64, 3, stride=2)
    x = max_pool(g, "pool", x, kernel=3, stride=2, padding=1)
    for i in range(1, 4):
        g.begin_block(f"block{i}")
        y = conv(g, f"b{i}_conv1", x, 64, 3)
        y = conv(g, f"b{i}_conv2", y, 64, 3)
        out = f"b{i}_add"
        g.add(EltwiseAdd(name=out, inputs=(y, x)))
        x = out
        g.end_block()
    x = global_avg_pool(g, "gap", x)
    g.add(FullyConnected(name="classifier", inputs=(x,), out_features=10))
    g.validate()
    return g


def main() -> None:
    graph = build_tinynet()
    print(f"{graph.name}: {len(graph)} layers, "
          f"{graph.total_macs() / 1e6:.1f} MMACs/inference")

    # Design-space exploration: pick the best tile shape under a 256 KB
    # tile-buffer budget, starting from the default 16-bit design.
    base = default_accelerator(INT16, frequency=200e6, ddr_efficiency=0.5)
    space = SampledSpace([(base, candidate_tiles())])
    accel = explore_space(graph, space, tile_buffer_budget=256 * 1024).best.accel
    print(f"DSE picked tiles {accel.tile} "
          f"({accel.tile_buffer_bytes() / 1024:.0f} KB of tile buffers)")

    model = LatencyModel(graph, accel)
    umm = umm_only_result(graph, accel, model)
    lcmm = run_lcmm(graph, accel, model=model)
    validate_result(lcmm, model)
    print(f"UMM  {umm.latency * 1e6:8.1f} us")
    print(f"LCMM {lcmm.latency * 1e6:8.1f} us  "
          f"({umm.latency / lcmm.latency:.2f}x, "
          f"{len(lcmm.onchip_tensors)} tensors on chip)")

    # Confirm with the event-driven simulator and show the timeline head.
    sim = simulate(model, lcmm.onchip_tensors, prefetch=lcmm.prefetch_result)
    print(f"Simulated makespan: {sim.makespan * 1e6:.1f} us "
          f"(analytical {lcmm.latency * 1e6:.1f} us, "
          f"stalls {sim.stall_time * 1e6:.1f} us)")
    print("Weight-interface utilisation: "
          f"{sim.channel_utilization('wt'):.0%}")
    print("\nFirst timeline events:")
    for event in sim.events[:12]:
        print(f"  {event}")


if __name__ == "__main__":
    main()
