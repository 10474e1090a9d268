"""Feature buffer reuse pass (Sec. 3.1 of the paper).

Selects the feature tensors worth pinning on chip (those whose layers are
transfer-limited — "the computation bounded tensors such as f3 and f5 are
not included in the interference graph"), computes their live ranges by
global liveness analysis, builds the interference graph of Fig. 5(a) and
colours it into virtual buffers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.graph import ComputationGraph
from repro.ir.layer import OpType
from repro.lcmm.buffers import CandidateTensor, TensorClass
from repro.lcmm.coloring import color_buffers
from repro.lcmm.interference import InterferenceGraph
from repro.lcmm.liveness import feature_live_ranges
from repro.lcmm.tables import eq2_latency_reduction
from repro.lcmm.buffers import VirtualBuffer
from repro.perf.latency import LatencyModel


@dataclass(frozen=True)
class FeatureReuseResult:
    """Output of the feature buffer reuse pass.

    Frozen: pipeline stages that refine a published result (e.g. the
    splitting recolour) build a new object with ``dataclasses.replace``
    instead of patching fields of one already handed out.

    Attributes:
        candidates: Memory-bound feature tensors with metrics and ranges.
        interference: The feature interference graph (Fig. 5(a)).
        buffers: Virtual buffers from size-minimising colouring (Fig. 5(b)).
    """

    candidates: list[CandidateTensor]
    interference: InterferenceGraph
    buffers: list[VirtualBuffer]


def feature_candidates(
    graph: ComputationGraph, model: LatencyModel
) -> list[CandidateTensor]:
    """Feature tensors that reduce latency when pinned on chip.

    The network input is excluded — it arrives from the host through DDR
    regardless of allocation — and so is any tensor whose move on-chip
    saves nothing (its producer and consumers are all compute bound).
    """
    ranges = feature_live_ranges(graph)
    elem = model.accel.precision.bytes
    candidates = []
    for tensor in graph.feature_tensors():
        if graph.layer(tensor.producer).op_type is OpType.INPUT:
            continue
        affected = (tensor.producer,) + tensor.consumers
        reduction = eq2_latency_reduction(model, tensor.name, affected)
        if reduction <= 0.0:
            continue
        candidates.append(
            CandidateTensor(
                name=tensor.name,
                tensor_class=TensorClass.FEATURE,
                size_bytes=tensor.bytes(elem),
                live_range=ranges[tensor.name],
                affected_nodes=affected,
                latency_reduction=reduction,
            )
        )
    return candidates


def feature_reuse_pass(
    graph: ComputationGraph, model: LatencyModel
) -> FeatureReuseResult:
    """Run liveness analysis + colouring over the feature tensors."""
    candidates = feature_candidates(graph, model)
    interference = InterferenceGraph.from_tensors(candidates)
    buffers = color_buffers(interference)
    return FeatureReuseResult(
        candidates=candidates, interference=interference, buffers=buffers
    )
