"""Roofline characterisation (Fig. 2(a) of the paper).

Plots every layer of a model as a point (operation intensity, attainable
performance) against the device's computational roof and bandwidth roof,
and classifies layers as memory or compute bound.  Operation intensity is
"operations per off-chip data transfer" (Sec. 2.2) — the transfer counts
tile reloads, exactly what the accelerator's dataflow actually moves.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.graph import ComputationGraph
from repro.perf.latency import LatencyModel
from repro.perf.systolic import AcceleratorConfig


@dataclass(frozen=True)
class RooflinePoint:
    """One layer's coordinates in the roofline plot.

    Attributes:
        node: Layer name.
        operation_intensity: Ops per byte of off-chip transfer.
        attainable_ops: min(compute roof, OI x bandwidth), ops/second.
        achieved_ops: Ops/second the latency model predicts under UMM.
        bandwidth_requirement: Bytes/second needed to never stall.
        memory_bound: Whether transfer limits the layer under UMM.
    """

    node: str
    operation_intensity: float
    attainable_ops: float
    achieved_ops: float
    bandwidth_requirement: float
    memory_bound: bool


class RooflineModel:
    """Layer-by-layer roofline analysis of a model on a design point.

    Args:
        graph: The DNN computation graph.
        accel: The accelerator design point.
        model: Optional pre-built latency model to reuse.
    """

    def __init__(
        self,
        graph: ComputationGraph,
        accel: AcceleratorConfig,
        model: LatencyModel | None = None,
    ) -> None:
        self.graph = graph
        self.accel = accel
        self.model = model or LatencyModel(graph, accel)

    @property
    def compute_roof(self) -> float:
        """Peak performance of the design in ops/second."""
        return self.accel.peak_ops

    @property
    def interface_bandwidth(self) -> float:
        """Sustained bandwidth of one memory interface, bytes/second."""
        return self.accel.interface_bandwidth("if")

    def attainable(self, operation_intensity: float) -> float:
        """Roofline-attainable performance at an operation intensity."""
        if operation_intensity < 0:
            raise ValueError("operation intensity must be non-negative")
        return min(self.compute_roof, operation_intensity * self.interface_bandwidth)

    def ridge_point(self) -> float:
        """Operation intensity where the bandwidth roof meets the compute roof."""
        return self.compute_roof / self.interface_bandwidth

    def point(self, node: str) -> RooflinePoint:
        """Roofline coordinates of one executed layer."""
        ll = self.model.layer(node)
        # Weight-less ops (pool/eltwise) count one op per output element.
        ops = 2 * ll.macs if ll.macs else 2 * self.graph.output_shape(node).volume
        total_bytes = ll.total_transfer_bytes
        oi = ops / total_bytes if total_bytes else float("inf")
        umm_latency = ll.latency()
        achieved = ops / umm_latency if umm_latency > 0 else 0.0
        return RooflinePoint(
            node=node,
            operation_intensity=oi,
            attainable_ops=self.attainable(oi) if oi != float("inf") else self.compute_roof,
            achieved_ops=achieved,
            bandwidth_requirement=self.model.bandwidth_requirement(node),
            memory_bound=ll.is_memory_bound,
        )

    def points(self, convs_only: bool = False) -> list[RooflinePoint]:
        """Roofline coordinates of all executed layers.

        Args:
            convs_only: Restrict to conv/FC layers, as Fig. 2(a) does.
        """
        nodes = self.model.nodes()
        if convs_only:
            weighted = set(self.graph.conv_layers())
            nodes = [n for n in nodes if n in weighted]
        return [self.point(n) for n in nodes]

    def memory_bound_count(self, convs_only: bool = False) -> tuple[int, int]:
        """(memory-bound layers, total layers) — the paper's 82-of-141."""
        pts = self.points(convs_only=convs_only)
        return sum(1 for p in pts if p.memory_bound), len(pts)

    def memory_bound_fraction(self, convs_only: bool = False) -> float:
        """Fraction of layers that are memory bound."""
        bound, total = self.memory_bound_count(convs_only=convs_only)
        return bound / total if total else 0.0
