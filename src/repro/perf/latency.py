"""Per-layer latency model — the quantity Eq. 1 of the paper combines.

For each node ``i`` the accelerator executes, the model produces

* ``lat_c(i)`` — compute latency on the systolic array, and
* one *slot* per off-chip tensor stream of the node: its total transferred
  bytes (tile reloads included) and the resulting transfer latency on its
  memory interface.

The node latency under a given on-chip allocation is then

    ``lat(i) = max(lat_c(i), sum of off-chip if-slot latencies,
                   wt-slot latency, of-slot latency)``

because double buffering overlaps compute with transfer (Sec. 3.3) and the
three tensor kinds use three independent DDR interfaces, while multiple
input features of one node share the single "if" interface and therefore
serialise.

Note on Eq. 1's ``x_d(i)``: the paper states ``x_d(i) = 1`` means on-chip
yet multiplies it *into* the latency term; taken literally an on-chip
tensor would add transfer latency.  We implement the evident intent —
on-chip tensors stop paying off-chip transfer (see DESIGN.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, TypeVar

from repro.ir.graph import ComputationGraph
from repro.ir.layer import (
    Attention,
    ComputeKind,
    Conv2D,
    DepthwiseConv2D,
    Gemm,
    GemmDims,
    Layer,
    Pooling,
)
from repro.ir.tensor import (
    FeatureMapShape,
    TensorKind,
    feature_tensor_name,
    weight_tensor_name,
)
from repro.perf.systolic import (
    AcceleratorConfig,
    gemm_compute_cycles,
    gemm_reload_trips,
)

T = TypeVar("T")


@dataclass(frozen=True)
class Slot:
    """One off-chip tensor stream of one node.

    Attributes:
        node: Node name.
        kind: Tensor kind (if / wt / of).
        tensor: Name of the tensor value carried — ``f:<producer>`` for
            features, ``w:<node>`` for weights.  Putting this value
            on-chip removes the slot's transfer latency from the node.
        bytes: Total bytes transferred for this slot in one inference,
            tile reloads included.
        latency: Transfer latency in seconds on the slot's interface.
    """

    node: str
    kind: TensorKind
    tensor: str
    bytes: int
    latency: float


@dataclass
class LayerLatency:
    """Latency decomposition of one node.

    Attributes:
        node: Node name.
        compute: Compute latency ``lat_c(i)`` in seconds.
        slots: Transfer slots, in (if..., wt, of) order.
        macs: Nominal multiply-accumulate count of the node.
    """

    node: str
    compute: float
    slots: list[Slot]
    macs: int

    def slot_latency(
        self,
        kind: TensorKind,
        onchip: frozenset[str] = frozenset(),
        residuals: dict[str, float] | None = None,
        fractions: dict[str, float] | None = None,
    ) -> float:
        """Summed latency of this node's slots of one kind.

        Off-chip slots contribute their full transfer latency; on-chip
        slots contribute their *residual* (the unhidden part of a weight
        prefetch), defaulting to zero.  A tensor pinned *fractionally*
        (``fractions[name] = f``) keeps ``1 - f`` of its transfer — the
        resident channels stop streaming, the rest still do.
        """
        total = 0.0
        for s in self.slots:
            if s.kind is not kind:
                continue
            if s.tensor in onchip:
                if residuals:
                    total += residuals.get(s.tensor, 0.0)
            elif fractions and s.tensor in fractions:
                total += s.latency * (1.0 - fractions[s.tensor])
            else:
                total += s.latency
        return total

    def latency(
        self,
        onchip: frozenset[str] = frozenset(),
        residuals: dict[str, float] | None = None,
        fractions: dict[str, float] | None = None,
    ) -> float:
        """Effective node latency under an on-chip allocation (Eq. 1)."""
        return max(
            self.compute,
            self.slot_latency(TensorKind.IFMAP, onchip, residuals, fractions),
            self.slot_latency(TensorKind.WEIGHT, onchip, residuals, fractions),
            self.slot_latency(TensorKind.OFMAP, onchip, residuals, fractions),
        )

    @property
    def total_transfer_bytes(self) -> int:
        """Bytes moved over all interfaces with everything off-chip."""
        return sum(s.bytes for s in self.slots)

    @property
    def worst_transfer(self) -> float:
        """Largest per-interface transfer latency with everything off-chip."""
        kinds = (TensorKind.IFMAP, TensorKind.WEIGHT, TensorKind.OFMAP)
        return max(self.slot_latency(k) for k in kinds)

    @property
    def is_memory_bound(self) -> bool:
        """Whether off-chip transfer, not compute, limits this node."""
        return self.worst_transfer > self.compute


class _Bandwidths(dict):
    """Per-kind interface bandwidth of a design, read on first use.

    A kind whose slots all carry zero bytes never reads its bandwidth, so
    a design without a DDR model still characterises a graph whose
    slots are all empty, and fails at its first non-empty slot.
    """

    def __init__(self, accel: AcceleratorConfig) -> None:
        super().__init__()
        self._accel = accel

    def __missing__(self, kind: TensorKind) -> float:
        value = self[kind] = self._accel.interface_bandwidth(kind.value)
        return value


def _weight_volume(layer: Layer) -> int:
    shape = layer.weight_shape
    assert shape is not None
    return shape.volume


class LatencyModel:
    """Latency model of one (graph, accelerator design) pair.

    Precomputes the latency decomposition of every executed node once;
    allocation-dependent queries are then cheap, which matters because the
    DNNK dynamic program evaluates marginal gains in its inner loop.

    Args:
        graph: The DNN computation graph.
        accel: The accelerator design point.
    """

    def __init__(self, graph: ComputationGraph, accel: AcceleratorConfig) -> None:
        self.graph = graph
        self.accel = accel
        # Build-time constants: the element size and the per-kind
        # interface bandwidths, each read once per model.
        self._elem = accel.precision.bytes
        self._bandwidth = _Bandwidths(accel)
        self._derived: dict[Callable, object] = {}
        self._layers: dict[str, LayerLatency] = {}
        for name in graph.compute_schedule():
            self._layers[name] = self._characterize(name)

    @classmethod
    def from_layers(
        cls,
        graph: ComputationGraph,
        accel: AcceleratorConfig,
        layers: dict[str, LayerLatency],
    ) -> "LatencyModel":
        """Build a model from an already-characterised layer table.

        Used by passes that rewrite the transfer decomposition (layer
        fusion zeroes fused slots) without re-running characterisation:
        the derived model answers every allocation query against the
        edited slots while keeping the graph/accel identity.
        """
        model = cls.__new__(cls)
        model.graph = graph
        model.accel = accel
        model._layers = dict(layers)
        model._derived = {}
        return model

    def derived(self, build: Callable[["LatencyModel"], T]) -> T:
        """``build(self)``, computed on first use and kept on this model.

        For tables derived from the per-node decomposition (the
        operation latency table of :mod:`repro.lcmm.tables`): every
        reader of one model shares one build, and a model built by
        :meth:`from_layers` starts with none of its source's.
        """
        try:
            return self._derived[build]  # type: ignore[return-value]
        except KeyError:
            value = self._derived[build] = build(self)
            return value

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _characterize(self, name: str) -> LayerLatency:
        layer = self.graph.layer(name)
        kind = layer.compute_kind
        if kind is ComputeKind.DEPTHWISE:
            assert isinstance(layer, DepthwiseConv2D)
            return self._characterize_depthwise(name, layer)
        if kind is ComputeKind.CONV:
            assert isinstance(layer, Conv2D)
            return self._characterize_conv(name, layer)
        if kind is ComputeKind.GEMM:
            assert isinstance(layer, Gemm)
            if layer.conv_datapath:
                return self._characterize_fc(name, layer)
            return self._characterize_gemm(name, layer)
        if kind is ComputeKind.ATTENTION:
            assert isinstance(layer, Attention)
            return self._characterize_attention(name, layer)
        if kind is ComputeKind.NORM:
            return self._characterize_norm(name, layer)
        if kind is ComputeKind.POOL:
            assert isinstance(layer, Pooling)
            return self._characterize_pool(name, layer)
        if kind is ComputeKind.ELTWISE:
            return self._characterize_eltwise(name, layer)
        raise ValueError(f"cannot characterise compute kind {kind} of {name!r}")

    def _transfer_slots(
        self,
        name: str,
        out_volume: int,
        if_reloads: int = 1,
        weight_volume: int | None = None,
        wt_reloads: int = 1,
    ) -> list[Slot]:
        """The node's slots in (if..., wt, of) order.

        One if-slot per feature value the node reads, with reloads; a wt
        slot only for a node with weights; then the output slot.  A slot
        takes ``bytes / bandwidth`` seconds on its interface, and a
        zero-byte slot takes none without reading the bandwidth.
        """
        graph = self.graph
        elem = self._elem
        streams = [
            (
                TensorKind.IFMAP,
                feature_tensor_name(src),
                graph.output_shape(src).volume * elem * if_reloads,
            )
            for src in graph.feature_sources(name)
        ]
        if weight_volume is not None:
            wt_bytes = weight_volume * elem * wt_reloads
            streams.append((TensorKind.WEIGHT, weight_tensor_name(name), wt_bytes))
        streams.append((TensorKind.OFMAP, feature_tensor_name(name), out_volume * elem))
        bandwidth = self._bandwidth
        # Slot(node, kind, tensor, bytes, latency), positionally: cheaper
        # than keywords at one call per slot.
        return [
            Slot(
                name, kind, tensor, num_bytes,
                num_bytes / bandwidth[kind] if num_bytes else 0.0,
            )
            for kind, tensor, num_bytes in streams
        ]

    def _conv_reloads(self, layer: Conv2D, out: FeatureMapShape) -> tuple[int, int]:
        """Per-layer schedule selection: (ifmap reloads, weight reloads).

        The default loop order streams the input once per output-channel
        tile and the weights once per spatial tile (Fig. 1's dataflow).
        When the design provides residency buffers and the layer's
        input-channel working set (or full weight tensor slice) fits, the
        per-layer schedule chosen by the DSE keeps it resident and the
        corresponding reload factor drops to one.
        """
        tile = self.accel.tile
        elem = self._elem
        n_tm = tile.output_channel_trips(out.channels)
        n_sp = tile.spatial_trips(out.height, out.width)

        # Input residency: all input channels of one spatial tile (halo
        # included) stay on chip across the output-channel loop.
        if n_tm > 1 and self.accel.if_resident_cap > 0:
            in_h = tile.th * layer.stride[0] + layer.kernel[0] - layer.stride[0]
            in_w = tile.tw * layer.stride[1] + layer.kernel[1] - layer.stride[1]
            if_working_set = layer.in_channels * in_h * in_w * elem
            if if_working_set <= self.accel.if_resident_cap:
                n_tm = 1

        # Weight residency: one output-channel tile's weights over all
        # input channels stay on chip across the spatial loop.
        if n_sp > 1 and self.accel.wt_resident_cap > 0:
            wt_working_set = (
                tile.tm * layer.in_channels * layer.kernel[0] * layer.kernel[1] * elem
            )
            if wt_working_set <= self.accel.wt_resident_cap:
                n_sp = 1
        return n_tm, n_sp

    def _characterize_conv(self, name: str, layer: Conv2D) -> LayerLatency:
        # Shapes come from the graph, which resolved them at construction.
        graph = self.graph
        out = graph.output_shape(name)
        inp = graph.output_shape(layer.inputs[0])
        kh, kw = layer.kernel
        macs = out.channels * out.height * out.width * inp.channels * kh * kw
        array = self.accel.array

        n_tm, n_sp = self._conv_reloads(layer, out)

        effective_macs = array.effective_macs(out.channels, layer.in_channels)
        compute = macs / (effective_macs * self.accel.frequency)

        weight_volume = layer.out_channels * layer.in_channels * kh * kw
        slots = self._transfer_slots(name, out.volume, n_tm, weight_volume, n_sp)
        return LayerLatency(node=name, compute=compute, slots=slots, macs=macs)

    def _characterize_depthwise(self, name: str, layer: DepthwiseConv2D) -> LayerLatency:
        """Depthwise convolution: no input-channel reduction.

        The SIMD lanes of the PE array reduce over input channels, which a
        depthwise layer does not have, so only the rows x cols lanes do
        useful work — the characteristic inefficiency of depthwise layers
        on channel-parallel accelerators.  Each input channel feeds
        exactly its own output channel, so the input streams once
        (no output-channel reload factor).
        """
        out = self.graph.output_shape(name)
        macs = layer.macs(self.graph.input_shapes(name))
        array = self.accel.array
        channel_eff = out.channels / (
            math.ceil(out.channels / array.rows) * array.rows
        )
        effective = array.rows * array.cols * channel_eff
        compute = macs / (effective * self.accel.frequency)

        n_sp = self.accel.tile.spatial_trips(out.height, out.width)
        slots = self._transfer_slots(name, out.volume, 1, _weight_volume(layer), n_sp)
        return LayerLatency(node=name, compute=compute, slots=slots, macs=macs)

    def _characterize_fc(self, name: str, layer: Gemm) -> LayerLatency:
        """Conv-datapath GEMM: the CNN classifier head.

        Runs on the convolution datapath as a 1x1 convolution over a 1x1
        spatial extent, so it pays the channel-padding waste model and a
        single streaming pass over every tensor — the historical
        ``FullyConnected`` characterisation, unchanged.
        """
        macs = layer.macs(self.graph.input_shapes(name))
        array = self.accel.array
        effective_macs = array.effective_macs(layer.out_features, layer.in_features)
        compute = macs / (effective_macs * self.accel.frequency)
        slots = self._transfer_slots(
            name, self.graph.output_shape(name).volume, 1, _weight_volume(layer), 1
        )
        return LayerLatency(node=name, compute=compute, slots=slots, macs=macs)

    def _gemm_reloads(self, dims: GemmDims) -> tuple[int, int]:
        """Schedule selection for a GEMM node: (input, weight) reloads."""
        return gemm_reload_trips(
            dims,
            self.accel.tile,
            self._elem,
            self.accel.if_resident_cap,
            self.accel.wt_resident_cap,
        )

    def _characterize_gemm(self, name: str, layer: Gemm) -> LayerLatency:
        """Systolic-datapath GEMM over a token sequence."""
        macs = layer.macs(self.graph.input_shapes(name))
        dims = layer.gemm_dims()
        cycles = gemm_compute_cycles(dims, self.accel.array, self.accel.tile)
        compute = cycles / self.accel.frequency
        n_if, n_wt = self._gemm_reloads(dims)
        slots = self._transfer_slots(
            name, self.graph.output_shape(name).volume, n_if, _weight_volume(layer), n_wt
        )
        return LayerLatency(node=name, compute=compute, slots=slots, macs=macs)

    def _characterize_attention(self, name: str, layer: Attention) -> LayerLatency:
        """Fused multi-head attention: compute is the sum of the composed
        GEMMs; the attention intermediates stay in the tile buffers, so
        the only off-chip streams are the input sequence (reloaded per
        output-feature tile of the QKV projection), the fused projection
        weights and the output sequence.
        """
        macs = layer.macs(self.graph.input_shapes(name))
        array, tile = self.accel.array, self.accel.tile
        cycles = sum(gemm_compute_cycles(d, array, tile) for d in layer.gemm_dims())
        compute = cycles / self.accel.frequency
        n_if, n_wt = self._gemm_reloads(layer.gemm_dims()[0])
        slots = self._transfer_slots(
            name, self.graph.output_shape(name).volume, n_if, _weight_volume(layer), n_wt
        )
        return LayerLatency(node=name, compute=compute, slots=slots, macs=macs)

    def _characterize_norm(self, name: str, layer: Layer) -> LayerLatency:
        """Layer normalisation: two passes (statistics, normalise) over the
        data on the vector lanes, negligible arithmetic — memory bound on
        any realistic design, like eltwise.
        """
        out = self.graph.output_shape(name)
        compute = 2 * out.volume / (self.accel.array.macs * self.accel.frequency)
        slots = self._transfer_slots(name, out.volume)
        return LayerLatency(node=name, compute=compute, slots=slots, macs=0)

    def _characterize_pool(self, name: str, layer: Pooling) -> LayerLatency:
        out = self.graph.output_shape(name)
        # One comparison/add per kernel element per output — executed on the
        # array's vector lanes, so the rate matches the MAC rate.
        if layer.global_pool:
            (inp,) = self.graph.input_shapes(name)
            ops = inp.volume
        else:
            ops = out.volume * layer.kernel[0] * layer.kernel[1]
        compute = ops / (self.accel.array.macs * self.accel.frequency)
        slots = self._transfer_slots(name, out.volume)
        return LayerLatency(node=name, compute=compute, slots=slots, macs=0)

    def _characterize_eltwise(self, name: str, layer: Layer) -> LayerLatency:
        out = self.graph.output_shape(name)
        compute = out.volume / (self.accel.array.macs * self.accel.frequency)
        slots = self._transfer_slots(name, out.volume)
        return LayerLatency(node=name, compute=compute, slots=slots, macs=0)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def nodes(self) -> list[str]:
        """Executed nodes in schedule order."""
        return list(self._layers)

    def layer(self, name: str) -> LayerLatency:
        """Latency decomposition of one node."""
        try:
            return self._layers[name]
        except KeyError:
            raise KeyError(f"node {name!r} is not an executed layer") from None

    def slots(self) -> Iterable[Slot]:
        """All transfer slots of all nodes, in schedule order."""
        for ll in self._layers.values():
            yield from ll.slots

    def node_latency(
        self,
        name: str,
        onchip: frozenset[str] = frozenset(),
        residuals: dict[str, float] | None = None,
        fractions: dict[str, float] | None = None,
    ) -> float:
        """Effective latency of one node under an allocation (Eq. 1)."""
        return self.layer(name).latency(onchip, residuals, fractions)

    def total_latency(
        self,
        onchip: frozenset[str] = frozenset(),
        residuals: dict[str, float] | None = None,
        fractions: dict[str, float] | None = None,
    ) -> float:
        """End-to-end inference latency under an allocation.

        The schedule is sequential — the accelerator executes one node at a
        time, overlapping each node's transfers with its own compute via
        double buffering (Fig. 1 of the paper).

        Args:
            onchip: Tensor values fully resident on chip.
            residuals: Unhidden prefetch time per on-chip weight tensor.
            fractions: Partial residency per tensor (0, 1): the resident
                share stops streaming, the remainder still pays transfer.
        """
        return sum(
            ll.latency(onchip, residuals, fractions) for ll in self._layers.values()
        )

    def umm_latency(self) -> float:
        """Latency with everything off-chip (the UMM baseline)."""
        return self.total_latency(frozenset())

    def compute_bound_latency(self, capacity: int | None = None) -> float:
        """Lower bound on the latency of any allocation of this model.

        Without ``capacity``: Σ compute, the latency if no transfer ever
        stalled the array.  With ``capacity`` (bytes for tensor buffers),
        a tensor whose bytes alone exceed it can never be resident, so
        each node also pays, per interface, the summed latency of such
        slots.  A node with a negative or NaN slot term counts compute
        alone.

        Both bounds hold exactly (in floats) for every whole-tensor
        allocation that fits ``capacity`` with non-negative residuals;
        the capacity bound does not hold under fractional fill or for an
        overlapped transfer schedule (see ``docs/algorithms.md``).
        """
        if capacity is None:
            return sum(ll.compute for ll in self._layers.values())
        graph = self.graph
        elem = self.accel.precision.bytes

        def tensor_bytes(slot: Slot) -> int:
            if slot.kind is TensorKind.WEIGHT:
                return _weight_volume(graph.layer(slot.node)) * elem
            producer = slot.tensor.partition(":")[2]
            return graph.output_shape(producer).volume * elem

        def node_bound(ll: LayerLatency) -> float:
            # Per-kind sums in slot order, as the engine accumulates them.
            sums = {TensorKind.IFMAP: 0.0, TensorKind.WEIGHT: 0.0, TensorKind.OFMAP: 0.0}
            for slot in ll.slots:
                if not slot.latency >= 0.0:
                    return ll.compute
                if slot.latency and tensor_bytes(slot) > capacity:
                    sums[slot.kind] += slot.latency
            return max(
                ll.compute,
                sums[TensorKind.IFMAP],
                sums[TensorKind.WEIGHT],
                sums[TensorKind.OFMAP],
            )

        return sum(node_bound(ll) for ll in self._layers.values())

    def memory_bound_nodes(self) -> list[str]:
        """Executed nodes whose UMM latency is transfer-limited."""
        return [name for name, ll in self._layers.items() if ll.is_memory_bound]

    def throughput(self, latency: float) -> float:
        """Ops/second achieved for one inference finishing in ``latency``."""
        if latency <= 0:
            raise ValueError("latency must be positive")
        total_ops = 2 * sum(ll.macs for ll in self._layers.values())
        return total_ops / latency

    def bandwidth_requirement(self, name: str) -> float:
        """Bytes/second the node needs to never stall (paper Sec. 2.2)."""
        ll = self.layer(name)
        if ll.compute <= 0:
            return float("inf")
        return ll.total_transfer_bytes / ll.compute
