#!/usr/bin/env python
"""Walk through the paper's running example (Figs. 3, 5 and 6).

Builds a six-convolution inception-style snippet, then shows every stage
of the framework on it: the operation latency table (Fig. 7(c)), feature
liveness and the interference graph (Fig. 5(a)), the coloured virtual
buffers (Fig. 5(b)), the weight prefetching edges (Fig. 6), the DNNK
allocation, and the resulting memory footprint over time (Fig. 3(c)).

Run:  python examples/inception_snippet.py
"""

from repro.hw.precision import INT8
from repro.ir.graph import ComputationGraph
from repro.ir.layer import Concat, InputLayer
from repro.ir.tensor import FeatureMapShape
from repro.lcmm import (
    LCMMOptions,
    operation_latency_table,
    run_lcmm,
    schedule_positions,
    umm_only_result,
)
from repro.models.common import conv
from repro.perf.latency import LatencyModel
from repro.perf.systolic import AcceleratorConfig, SystolicArray
from repro.perf.tiling import TileConfig


def build_snippet() -> ComputationGraph:
    """Six convolutions with an inception-style join, as in Fig. 3(a)."""
    g = ComputationGraph(name="inception_c1_snippet")
    g.add(InputLayer(name="data", shape=FeatureMapShape(256, 17, 17)))
    c1 = conv(g, "C1", "data", 384, 1)
    c2 = conv(g, "C2", c1, 256, (1, 3), padding=(0, 1))
    c3 = conv(g, "C3", c1, 256, (3, 1), padding=(1, 0))
    g.add(Concat(name="join", inputs=(c2, c3)))
    c4 = conv(g, "C4", "join", 448, 1)
    c5 = conv(g, "C5", c4, 512, 3)
    c6 = conv(g, "C6", c5, 256, 1)
    g.validate()
    return g


def main() -> None:
    graph = build_snippet()
    accel = AcceleratorConfig(
        name="snippet-demo",
        precision=INT8,
        array=SystolicArray(rows=32, cols=16, simd=11),
        tile=TileConfig(tm=32, tn=32, th=14, tw=14),
        frequency=190e6,
        ddr_efficiency=0.3,  # starve DDR so the snippet is memory bound
    )
    model = LatencyModel(graph, accel)

    print("== Operation latency table (Fig. 7(c)) ==")
    for row in operation_latency_table(model).values():
        print(f"  {row.node:4s} latc={row.lat_compute * 1e6:7.1f}us "
              f"if={row.lat_ifmap * 1e6:7.1f} wt={row.lat_weight * 1e6:7.1f} "
              f"of={row.lat_ofmap * 1e6:7.1f}  -> bound by {row.bottleneck}")

    lcmm = run_lcmm(graph, accel, options=LCMMOptions(), model=model)

    print("\n== Feature liveness and interference (Fig. 5(a)) ==")
    positions = schedule_positions(graph)
    for cand in lcmm.feature_result.candidates:
        neighbours = sorted(lcmm.feature_result.interference.neighbors(cand.name))
        print(f"  {cand.name:6s} live {cand.live_range}  "
              f"size {cand.size_bytes / 1024:6.1f} KB  interferes: {neighbours}")

    print("\n== Virtual feature buffers after colouring (Fig. 5(b)) ==")
    for buf in lcmm.feature_result.buffers:
        print(f"  {buf.name}: {buf.tensor_names}  "
              f"(size = largest member = {buf.size_bytes / 1024:.1f} KB)")

    print("\n== Weight prefetching edges (Fig. 6) ==")
    if not lcmm.prefetch_result.edges:
        print("  (no memory-bound weighted nodes at this bandwidth)")
    for edge in lcmm.prefetch_result.edges.values():
        state = "hidden" if edge.fully_hidden else f"residual {edge.residual * 1e6:.1f}us"
        print(f"  prefetch w:{edge.node} starting at {edge.start} "
              f"(load {edge.load_time * 1e6:.1f}us, {state})")

    print("\n== DNNK allocation ==")
    print(f"  on-chip: {sorted(lcmm.onchip_tensors)}")
    spilled = [b.name for b in lcmm.dnnk_result.spilled]
    print(f"  spilled buffers: {spilled or 'none'}")

    print("\n== Memory footprint over time (Fig. 3(c)) ==")
    schedule = model.nodes()
    tensors = {c.name: c for c in lcmm.feature_result.candidates}
    for step, node in enumerate(schedule):
        live_onchip = [
            name
            for name, c in tensors.items()
            if name in lcmm.onchip_tensors
            and c.live_range.start <= step <= c.live_range.end
        ]
        print(f"  t={step} {node:4s} on-chip: {sorted(live_onchip)}")

    umm = umm_only_result(graph, accel, model)
    print(f"\nUMM {umm.latency * 1e6:.1f}us -> LCMM {lcmm.latency * 1e6:.1f}us "
          f"({umm.latency / lcmm.latency:.2f}x)")


if __name__ == "__main__":
    main()
