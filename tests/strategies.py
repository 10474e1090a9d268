"""Shared hypothesis strategies: random graphs, design points and tiles.

:func:`graphs` draws small DAGs over every node kind the latency model
characterises — 1x1 and 3x3 convolutions (strided or not), depthwise
convolutions, conv-datapath FC heads, GEMMs, attention, LayerNorm,
pooling, eltwise adds and concats — weighted toward the multi-reader
residual and concat joins that hide reuse and liveness bugs.
:func:`accelerators` draws design points with random residency caps and
DDR efficiency, and :func:`tiles` draws loop tilings, ragged edges
included.

The two properties of the one Eq. 1 implementation that these strategies
drive (and that fixed examples elsewhere call with zoo graphs) are
:func:`assert_retiled_equals_fresh` and :func:`assert_floor_below_every_tile`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable

from hypothesis import strategies as st

from repro.hw.precision import INT8, INT16
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
    LayerNorm,
    Pooling,
    PoolMode,
)
from repro.ir.tensor import FeatureMapShape
from repro.perf.latency import LatencyModel
from repro.perf.systolic import AcceleratorConfig, SystolicArray
from repro.perf.tiling import TileConfig

#: Node kinds :func:`graphs` draws from; the joins appear twice so that
#: residual and concat topologies are common.
NODE_KINDS = (
    "conv1x1",
    "conv3x3",
    "depthwise",
    "fc",
    "gemm",
    "attention",
    "layernorm",
    "pool",
    "eltwise",
    "eltwise",
    "concat",
    "concat",
)

_CHANNELS = st.sampled_from([8, 16, 24, 32, 48, 64, 96])


def _add_node(draw, graph: ComputationGraph, name: str, names: list[str]) -> None:
    """Add one node of a drawn kind reading earlier nodes of ``graph``."""
    kind = draw(st.sampled_from(NODE_KINDS))
    src = draw(st.sampled_from(names))
    shape = graph.output_shape(src)
    if kind in ("eltwise", "concat"):
        if kind == "eltwise":
            mates = [n for n in names if n != src and graph.output_shape(n) == shape]
        else:
            mates = [
                n for n in names
                if n != src
                and (graph.output_shape(n).height, graph.output_shape(n).width)
                == (shape.height, shape.width)
            ]
        if mates:
            others = draw(
                st.lists(st.sampled_from(mates), min_size=1, max_size=2, unique=True)
            )
            layer = EltwiseAdd if kind == "eltwise" else Concat
            graph.add(layer(name=name, inputs=(src, *others)))
            return
        kind = "conv1x1"  # no partner with a matching shape: fall back
    if kind in ("conv1x1", "conv3x3"):
        k = 1 if kind == "conv1x1" else 3
        stride = draw(st.sampled_from([1, 1, 2]))
        graph.add(
            Conv2D(
                name=name,
                inputs=(src,),
                out_channels=draw(_CHANNELS),
                kernel=(k, k),
                stride=(stride, stride),
                padding=(k // 2, k // 2),
            )
        )
    elif kind == "depthwise":
        stride = draw(st.sampled_from([1, 2]))
        graph.add(
            DepthwiseConv2D(name=name, inputs=(src,), stride=(stride, stride))
        )
    elif kind == "fc":
        graph.add(FullyConnected(name=name, inputs=(src,), out_features=draw(_CHANNELS)))
    elif kind == "gemm":
        graph.add(Gemm(name=name, inputs=(src,), out_features=draw(_CHANNELS)))
    elif kind == "attention":
        heads = [h for h in (1, 2, 4, 8) if shape.channels % h == 0]
        graph.add(
            Attention(name=name, inputs=(src,), num_heads=draw(st.sampled_from(heads)))
        )
    elif kind == "layernorm":
        graph.add(LayerNorm(name=name, inputs=(src,)))
    else:  # pool
        if min(shape.height, shape.width) >= 2 and draw(st.booleans()):
            graph.add(Pooling(name=name, inputs=(src,)))  # 2x2, stride 2
        else:
            graph.add(
                Pooling(
                    name=name,
                    inputs=(src,),
                    kernel=(3, 3),
                    stride=(1, 1),
                    padding=(1, 1),
                    mode=PoolMode.AVG,
                    global_pool=draw(st.booleans()),
                )
            )


@st.composite
def graphs(draw, max_nodes: int = 8) -> ComputationGraph:
    """A small validated DAG with at least one executed layer."""
    graph = ComputationGraph(name="fuzz")
    side = draw(st.sampled_from([1, 2, 5, 7, 14, 28]))
    graph.add(
        InputLayer(name="in", shape=FeatureMapShape(draw(_CHANNELS), side, side))
    )
    names = ["in"]
    for i in range(draw(st.integers(min_value=1, max_value=max_nodes))):
        name = f"n{i}"
        _add_node(draw, graph, name, names)
        names.append(name)
    graph.validate()
    return graph


def tiles() -> st.SearchStrategy[TileConfig]:
    """Loop tilings, ragged against every drawn extent."""
    return st.builds(
        TileConfig,
        tm=st.integers(min_value=1, max_value=160),
        tn=st.sampled_from([8, 16, 32, 64]),
        th=st.integers(min_value=1, max_value=56),
        tw=st.integers(min_value=1, max_value=56),
    )


_CAPS = st.one_of(
    st.sampled_from([0, 0, 1 << 10, 1 << 13, 1 << 15, 1 << 20]),
    st.integers(min_value=0, max_value=1 << 20),
)


@st.composite
def accelerators(draw) -> AcceleratorConfig:
    """A design point with random residency caps and DDR efficiency."""
    return AcceleratorConfig(
        name="fuzz",
        precision=draw(st.sampled_from([INT8, INT16])),
        array=draw(
            st.sampled_from(
                [
                    SystolicArray(rows=16, cols=8, simd=8),
                    SystolicArray(rows=32, cols=16, simd=11),
                    SystolicArray(rows=8, cols=4, simd=2),
                ]
            )
        ),
        tile=draw(tiles()),
        frequency=draw(st.sampled_from([150e6, 200e6])),
        ddr_efficiency=draw(
            st.one_of(
                st.sampled_from([0.6, 0.85, 1.0]),
                st.floats(min_value=0.05, max_value=1.0),
            )
        ),
        if_resident_cap=draw(_CAPS),
        wt_resident_cap=draw(_CAPS),
    )


def assert_retiled_equals_fresh(
    graph: ComputationGraph, base: AcceleratorConfig, tiles: Iterable[TileConfig]
) -> None:
    """``umm_latency(tile)`` equals a fresh model at ``tile``, bit for bit."""
    model = LatencyModel(graph, base)
    for tile in tiles:
        fresh = LatencyModel(graph, replace(base, tile=tile)).umm_latency()
        assert model.umm_latency(tile) == fresh, tile


def assert_floor_below_every_tile(
    graph: ComputationGraph, base: AcceleratorConfig, tiles: Iterable[TileConfig]
) -> None:
    """``umm_floor()`` is at most the UMM latency of every tile."""
    model = LatencyModel(graph, base)
    floor = model.umm_floor()
    for tile in tiles:
        assert floor <= model.umm_latency(tile), tile
