"""JSON (de)serialization of graphs and allocation reports."""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.ir.graph import ComputationGraph
from repro.ir.layer import (
    Attention,
    Concat,
    Conv2D,
    DepthwiseConv2D,
    EltwiseAdd,
    FullyConnected,
    Gemm,
    InputLayer,
    Layer,
    LayerNorm,
    OpType,
    PoolMode,
    Pooling,
)
from repro.ir.tensor import FeatureMapShape

if TYPE_CHECKING:  # keys built from graph_to_dict must not load the compiler
    from repro.lcmm.framework import LCMMResult

#: Format tag written into serialized graphs of the original conv-family
#: op set.  Graphs built only from these ops serialize byte-identically
#: to the pre-GEMM era, which keeps their fingerprints — and therefore
#: every warm compilation-cache key — stable across the IR refactor.
GRAPH_FORMAT_VERSION = 1

#: Format tag for graphs that use the op-generic extensions (GEMM,
#: attention, norm).  The loader accepts both.
GRAPH_FORMAT_VERSION_V2 = 2

#: Ops that force the v2 format.
_V2_OPS = frozenset({OpType.GEMM, OpType.ATTENTION, OpType.NORM})


def graph_format_version(graph: ComputationGraph) -> int:
    """The format version a graph serializes under (see the tags above)."""
    if any(layer.op_type in _V2_OPS for layer in graph.layers()):
        return GRAPH_FORMAT_VERSION_V2
    return GRAPH_FORMAT_VERSION


def _layer_to_dict(layer: Layer) -> dict[str, Any]:
    base: dict[str, Any] = {
        "name": layer.name,
        "op": layer.op_type.value,
        "inputs": list(layer.inputs),
    }
    if isinstance(layer, InputLayer):
        base["shape"] = [layer.shape.channels, layer.shape.height, layer.shape.width]
    elif isinstance(layer, DepthwiseConv2D):
        base["op"] = "depthwise"
        base.update(
            kernel=list(layer.kernel),
            stride=list(layer.stride),
            padding=list(layer.padding),
        )
    elif isinstance(layer, Conv2D):
        base.update(
            out_channels=layer.out_channels,
            kernel=list(layer.kernel),
            stride=list(layer.stride),
            padding=list(layer.padding),
        )
    elif isinstance(layer, Pooling):
        base.update(
            kernel=list(layer.kernel),
            stride=list(layer.stride),
            padding=list(layer.padding),
            mode=layer.mode.value,
            global_pool=layer.global_pool,
        )
    elif isinstance(layer, FullyConnected):
        base["out_features"] = layer.out_features
    elif isinstance(layer, Gemm):
        base["out_features"] = layer.out_features
    elif isinstance(layer, Attention):
        base["num_heads"] = layer.num_heads
    # EltwiseAdd / Concat / LayerNorm carry nothing beyond name + inputs.
    return base


def _layer_from_dict(data: dict[str, Any]) -> Layer:
    op = data["op"]
    name = data["name"]
    inputs = tuple(data["inputs"])
    if op == "input":
        c, h, w = data["shape"]
        return InputLayer(name=name, shape=FeatureMapShape(c, h, w))
    if op == "depthwise":
        return DepthwiseConv2D(
            name=name,
            inputs=inputs,
            kernel=tuple(data["kernel"]),
            stride=tuple(data["stride"]),
            padding=tuple(data["padding"]),
        )
    if op == "conv":
        return Conv2D(
            name=name,
            inputs=inputs,
            out_channels=data["out_channels"],
            kernel=tuple(data["kernel"]),
            stride=tuple(data["stride"]),
            padding=tuple(data["padding"]),
        )
    if op == "pool":
        return Pooling(
            name=name,
            inputs=inputs,
            kernel=tuple(data["kernel"]),
            stride=tuple(data["stride"]),
            padding=tuple(data["padding"]),
            mode=PoolMode(data["mode"]),
            global_pool=data["global_pool"],
        )
    if op == "fc":
        return FullyConnected(name=name, inputs=inputs, out_features=data["out_features"])
    if op == "gemm":
        return Gemm(name=name, inputs=inputs, out_features=data["out_features"])
    if op == "attention":
        return Attention(name=name, inputs=inputs, num_heads=data["num_heads"])
    if op == "norm":
        return LayerNorm(name=name, inputs=inputs)
    if op == "eltwise":
        return EltwiseAdd(name=name, inputs=inputs)
    if op == "concat":
        return Concat(name=name, inputs=inputs)
    raise ValueError(f"unknown op type {op!r} in serialized graph")


def graph_to_dict(graph: ComputationGraph) -> dict[str, Any]:
    """Serialize a computation graph to a JSON-stable dictionary."""
    return {
        "format": graph_format_version(graph),
        "name": graph.name,
        "blocks": {k: list(v) for k, v in graph.blocks.items()},
        "layers": [_layer_to_dict(layer) for layer in graph.layers()],
    }


def graph_from_dict(data: dict[str, Any]) -> ComputationGraph:
    """Reconstruct a computation graph from :func:`graph_to_dict` output.

    Raises:
        ValueError: On unknown format versions or op types.
    """
    version = data.get("format")
    if version not in (GRAPH_FORMAT_VERSION, GRAPH_FORMAT_VERSION_V2):
        raise ValueError(f"unsupported graph format version {version!r}")
    graph = ComputationGraph(name=data["name"])
    for layer_data in data["layers"]:
        graph.add(_layer_from_dict(layer_data))
    graph.blocks = {k: list(v) for k, v in data.get("blocks", {}).items()}
    graph.validate()
    return graph


def save_graph(graph: ComputationGraph, path: str | Path) -> None:
    """Write a graph to a JSON file."""
    Path(path).write_text(json.dumps(graph_to_dict(graph), indent=2))


def load_graph(path: str | Path) -> ComputationGraph:
    """Read a graph from a JSON file written by :func:`save_graph`."""
    return graph_from_dict(json.loads(Path(path).read_text()))


def allocation_report(result: LCMMResult) -> dict[str, Any]:
    """Export an LCMM result as a machine-readable report.

    Contains everything a code generator needs: the physical buffer map
    (sizes, block placement, resident tensors), the prefetch schedule and
    the achieved per-node latencies.  This is a report, not a
    reconstruction format.
    """
    return {
        "model": result.graph_name,
        "design": result.accel.name,
        "precision": result.accel.precision.name,
        "frequency_hz": result.accel.frequency,
        "latency_seconds": result.latency,
        "throughput_tops": result.tops,
        "sram": {
            "uram_blocks_used": result.sram_usage.uram_used,
            "bram36_blocks_used": result.sram_usage.bram36_used,
            "utilization": result.sram_utilization,
        },
        "buffers": [
            {
                "name": pbuf.name,
                "size_bytes": pbuf.size_bytes,
                "uram_blocks": pbuf.uram_blocks,
                "bram36_blocks": pbuf.bram36_blocks,
                "tensors": list(pbuf.tensor_names),
            }
            for pbuf in result.physical_buffers
        ],
        "prefetches": [
            {
                "weight": f"w:{edge.node}",
                "start_node": edge.start,
                "load_seconds": edge.load_time,
                "fully_hidden": edge.fully_hidden,
                "residual_seconds": edge.residual,
            }
            for edge in result.prefetch_result.edges.values()
            if f"w:{edge.node}" in result.onchip_tensors
        ],
        "node_latencies": dict(result.node_latencies),
    }


def save_allocation_report(result: LCMMResult, path: str | Path) -> None:
    """Write an allocation report to a JSON file."""
    Path(path).write_text(json.dumps(allocation_report(result), indent=2))
