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

from repro.errors import GraphValidationError
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
    conv_reload_trips,
    gemm_compute_cycles,
    gemm_cycles_lower_bound,
    gemm_reload_trips,
)
from repro.perf.tiling import TileConfig

T = TypeVar("T")

#: The three interface kinds, in the order Eq. 1's max considers them.
_KINDS = (TensorKind.IFMAP, TensorKind.WEIGHT, TensorKind.OFMAP)


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
        ifmap, weight, ofmap = _KINDS
        return max(
            self.compute,
            self.slot_latency(ifmap, onchip, residuals, fractions),
            self.slot_latency(weight, onchip, residuals, fractions),
            self.slot_latency(ofmap, onchip, residuals, fractions),
        )

    @property
    def total_transfer_bytes(self) -> int:
        """Bytes moved over all interfaces with everything off-chip."""
        return sum(s.bytes for s in self.slots)

    @property
    def worst_transfer(self) -> float:
        """Largest per-interface transfer latency with everything off-chip."""
        return max(self.slot_latency(k) for k in _KINDS)

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

    Only conv, depthwise, GEMM and attention nodes depend on the tile: their
    reload trips, and the cycle counts of the GEMMs.  The model records
    those nodes' tile terms as it characterises them, so
    :meth:`umm_latency` scores the same design at any other tile, and
    :meth:`umm_floor` bounds every tile, without characterising the graph
    again — the queries a tile sweep makes per base design.

    Args:
        graph: The DNN computation graph.
        accel: The accelerator design point.

    Raises:
        repro.errors.GraphValidationError: When the graph has no layer
            the accelerator executes (only inputs and concats): it has no
            latency to model.
    """

    def __init__(self, graph: ComputationGraph, accel: AcceleratorConfig) -> None:
        schedule = graph.compute_schedule()
        if not schedule:
            raise GraphValidationError(
                f"graph {graph.name!r} has no layer the accelerator executes"
            )
        self.graph = graph
        self.accel = accel
        # Build-time constants: the element size and the per-kind
        # interface bandwidths, each read once per model.
        self._elem = accel.precision.bytes
        self._bandwidth = _Bandwidths(accel)
        self._derived: dict[Callable, object] = {}
        self._layers: dict[str, LayerLatency] = {}
        # Tile-dependent nodes: (layer, extent, if trips, wt trips) at this
        # design's tile; None once slots were edited.
        self._tiled: dict[str, tuple] | None = {}
        # What re-tiled queries walk; _retile_plan builds it on first use.
        self._plan: list | None = None
        for name in schedule:
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
        edited slots while keeping the graph/accel identity.  It cannot
        be re-tiled.
        """
        model = cls.__new__(cls)
        model.graph = graph
        model.accel = accel
        model._layers = dict(layers)
        model._derived = {}
        model._tiled = None
        model._plan = None
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
            return self._characterize_gemm(name, layer)
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

    def _characterize_tiled(
        self,
        name: str,
        layer: Layer,
        extent: FeatureMapShape | tuple[GemmDims, ...],
        compute: float,
        macs: int,
        weight_volume: int,
        n_if: int,
        n_wt: int,
    ) -> LayerLatency:
        """A node whose reload trips depend on the tile, at this design's tile.

        ``extent`` is the output shape of a conv or depthwise node and the
        composed multiplies of a GEMM or attention node: what
        :meth:`_retiled_total` re-derives the trips (and a GEMM's cycles)
        from at another tile.
        """
        slots = self._transfer_slots(
            name, self.graph.output_shape(name).volume, n_if, weight_volume, n_wt
        )
        self._tiled[name] = (layer, extent, n_if, n_wt)
        return LayerLatency(node=name, compute=compute, slots=slots, macs=macs)

    def _characterize_conv(self, name: str, layer: Conv2D) -> LayerLatency:
        # Shapes come from the graph, which resolved them at construction.
        graph = self.graph
        out = graph.output_shape(name)
        inp = graph.output_shape(layer.inputs[0])
        kh, kw = layer.kernel
        macs = out.channels * out.height * out.width * inp.channels * kh * kw
        accel = self.accel
        effective_macs = accel.array.effective_macs(out.channels, layer.in_channels)
        compute = macs / (effective_macs * accel.frequency)
        weight_volume = layer.out_channels * layer.in_channels * kh * kw
        n_tm, n_sp = conv_reload_trips(
            layer, out, accel.tile, self._elem,
            accel.if_resident_cap, accel.wt_resident_cap,
        )
        return self._characterize_tiled(
            name, layer, out, compute, macs, weight_volume, n_tm, n_sp
        )

    def _characterize_depthwise(self, name: str, layer: DepthwiseConv2D) -> LayerLatency:
        """Depthwise convolution: no input-channel reduction.

        The SIMD lanes of the PE array reduce over input channels, which a
        depthwise layer does not have, so only the rows x cols lanes do
        useful work — the characteristic inefficiency of depthwise layers
        on channel-parallel accelerators.  Each input channel feeds
        exactly its own output channel, so the input streams once (no
        output-channel reload factor).
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
        return self._characterize_tiled(
            name, layer, out, compute, macs, _weight_volume(layer), 1, n_sp
        )

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

    def _characterize_gemm(self, name: str, layer: Gemm | Attention) -> LayerLatency:
        """Systolic-datapath GEMM over a token sequence, or fused attention.

        Attention's compute is the sum of its composed GEMMs; the
        attention intermediates stay in the tile buffers, so the only
        off-chip streams are the input sequence (reloaded per
        output-feature tile of the QKV projection), the fused projection
        weights and the output sequence.
        """
        macs = layer.macs(self.graph.input_shapes(name))
        dims = layer.gemm_dims()
        extent = (dims,) if isinstance(dims, GemmDims) else dims
        accel = self.accel
        cycles = 0
        for gemm in extent:
            cycles += gemm_compute_cycles(gemm, accel.array, accel.tile)
        # The reloads follow the leading multiply.
        n_if, n_wt = gemm_reload_trips(
            extent[0], accel.tile, self._elem,
            accel.if_resident_cap, accel.wt_resident_cap,
        )
        return self._characterize_tiled(
            name, layer, extent, cycles / accel.frequency, macs,
            _weight_volume(layer), n_if, n_wt,
        )

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

    def umm_latency(self, tile: TileConfig | None = None) -> float:
        """Latency with everything off-chip (the UMM baseline).

        With ``tile``, the UMM latency of this design with ``tile``
        swapped in, bit for bit
        ``LatencyModel(graph, replace(accel, tile=tile)).umm_latency()``
        (:func:`dataclasses.replace`): only the recorded tile terms are
        re-derived, through the same helpers the characterisation calls,
        and the node latencies are combined and summed as
        :meth:`total_latency` does.
        """
        if tile is None:
            return self.total_latency(frozenset())
        return self._retiled_total(tile)

    def umm_floor(self) -> float:
        """UMM latency no tile on this design can beat.

        Every reload trip at its floor of one and every GEMM at its
        best-schedule cycle count.  A tile only multiplies transfer terms
        by trips >= 1 (a residency cap can lower a trip count, never
        below 1) and never runs a GEMM in fewer cycles, and the per-node
        ``max`` and the sum are monotone in those terms, so
        ``umm_floor() <= umm_latency(tile)`` for every tile — the bound
        the roofline pruning of :mod:`repro.perf.space` relies on.
        """
        return self._retiled_total(None)

    def _retiled_total(self, tile: TileConfig | None) -> float:
        """UMM latency at ``tile`` (None: the floor), in schedule order.

        Re-derives each tile-dependent node's trips (and a GEMM's cycles)
        with the helpers its characterisation called, combines its terms
        as :meth:`LayerLatency.latency` does and sums the nodes as
        :meth:`total_latency` does, so the floats are the same.
        """
        plan = self._retile_plan()
        accel = self.accel
        array, freq = accel.array, accel.frequency
        elem = self._elem
        if_cap, wt_cap = accel.if_resident_cap, accel.wt_resident_cap
        # A transfer with bytes at one tile has bytes at every tile, so
        # its bandwidth was read when the node was characterised.
        bw_if = self._bandwidth.get(TensorKind.IFMAP)
        bw_wt = self._bandwidth.get(TensorKind.WEIGHT)
        # Enum members read once: an attribute read per node costs more
        # than the rest of a conv node's dispatch.
        conv, depthwise = ComputeKind.CONV, ComputeKind.DEPTHWISE
        gemm_kinds = (ComputeKind.GEMM, ComputeKind.ATTENTION)
        total = 0.0
        for entry in plan:
            kind = entry[0]
            if kind is None:
                total += entry[1]
                continue
            _, layer, extent, compute, if_bytes, wt_bytes, of_lat = entry
            if tile is None:
                # Every tensor streamed once, each GEMM in a single tile
                # with one pipeline fill.
                n_if = n_wt = 1
                if kind in gemm_kinds:
                    cycles = 0
                    for gemm in extent:
                        cycles += gemm_cycles_lower_bound(gemm, array)
                    compute = cycles / freq
            elif kind is conv:
                n_if, n_wt = conv_reload_trips(
                    layer, extent, tile, elem, if_cap, wt_cap
                )
            elif kind is depthwise:
                n_if, n_wt = 1, tile.spatial_trips(extent.height, extent.width)
            else:
                cycles = 0
                for gemm in extent:
                    cycles += gemm_compute_cycles(gemm, array, tile)
                compute = cycles / freq
                n_if, n_wt = gemm_reload_trips(
                    extent[0], tile, elem, if_cap, wt_cap
                )
            if_lat = 0.0
            for single in if_bytes:
                num_bytes = single * n_if
                if_lat += num_bytes / bw_if if num_bytes else 0.0
            num_bytes = wt_bytes * n_wt
            wt_lat = num_bytes / bw_wt if num_bytes else 0.0
            total += max(compute, if_lat, wt_lat, of_lat)
        return total

    def _retile_plan(self) -> list:
        """Per node in schedule order, what a re-tiled score needs.

        A tile-invariant node's (None, UMM latency), or a tile-dependent
        node's (compute kind, layer, extent, compute at this design's tile,
        single-pass input bytes per slot, single-pass weight bytes,
        output latency).  Its slots are (if..., wt, of), and each
        transfer slot's bytes are its single-pass bytes times its trips
        at this design's tile.  Built on the first re-tiled query, so a
        model that is never re-tiled pays nothing for it.
        """
        plan = self._plan
        if plan is not None:
            return plan
        tiled = self._tiled
        if tiled is None:
            raise ValueError("a model built from an edited layer table cannot be re-tiled")
        plan = []
        for name, ll in self._layers.items():
            terms = tiled.get(name)
            if terms is None:
                plan.append((None, ll.latency()))
                continue
            layer, extent, if_trips, wt_trips = terms
            slots = ll.slots
            plan.append((
                layer.compute_kind,
                layer,
                extent,
                ll.compute,
                tuple(slot.bytes // if_trips for slot in slots[:-2]),
                slots[-2].bytes // wt_trips,
                slots[-1].latency,
            ))
        self._plan = plan
        return plan

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
