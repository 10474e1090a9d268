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
import threading
from collections import OrderedDict
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, TypeVar

from repro.errors import GraphValidationError
from repro.fingerprint import accel_fingerprint
from repro.ir.graph import ComputationGraph
from repro.ir.layer import (
    Attention,
    ComputeKind,
    Conv2D,
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
from repro.perf.node_table import (
    KINDS,
    LayerLatency,
    NodeTable,
    Slot,
    SlotLayout,
    slot_layout,
)
from repro.perf.systolic import (
    AcceleratorConfig,
    SystolicArray,
    conv_reload_trips,
    gemm_compute_cycles,
    gemm_cycles_lower_bound,
    gemm_reload_trips,
)
from repro.perf.tiling import TileConfig

T = TypeVar("T")

#: Enum members the per-node dispatches compare against, read once: an
#: enum attribute read costs more than the rest of a conv node's dispatch.
_CONV, _DEPTHWISE = ComputeKind.CONV, ComputeKind.DEPTHWISE


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


# ----------------------------------------------------------------------
# Per-kind compute and transfer expressions
# ----------------------------------------------------------------------
# The one definition of each term: characterising a node at a design
# and flooring it call these (a re-tiled score calls _gemm_compute and
# inlines _transfer_latency), so all three agree bit for bit.  A compute
# expression takes the node's work (see NodeTerms), the array, the clock
# and the tile to time the node at; ``None`` as the tile asks for the
# best schedule over every tile.


def _mac_compute(
    work: tuple[int, int, int],
    array: SystolicArray,
    frequency: float,
    tile: TileConfig | None,
) -> float:
    """Conv datapath: the MACs at the array rate less channel-padding waste."""
    macs, out_channels, in_channels = work
    return macs / (array.effective_macs(out_channels, in_channels) * frequency)


def _depthwise_compute(
    work: tuple[int, int],
    array: SystolicArray,
    frequency: float,
    tile: TileConfig | None,
) -> float:
    """Depthwise convolution: no input-channel reduction.

    The SIMD lanes of the PE array reduce over input channels, which a
    depthwise layer does not have, so only the rows x cols lanes do
    useful work — the characteristic inefficiency of depthwise layers
    on channel-parallel accelerators.
    """
    macs, channels = work
    channel_eff = channels / (math.ceil(channels / array.rows) * array.rows)
    return macs / (array.rows * array.cols * channel_eff * frequency)


def _vector_compute(
    ops: int, array: SystolicArray, frequency: float, tile: TileConfig | None
) -> float:
    """Pooling, eltwise and normalisation: one op per lane-cycle at the MAC rate."""
    return ops / (array.macs * frequency)


def _gemm_compute(
    extent: tuple[GemmDims, ...],
    array: SystolicArray,
    frequency: float,
    tile: TileConfig | None,
) -> float:
    """Systolic GEMMs: their summed cycles under ``tile``.

    Under ``None``, each GEMM in a single tile with one pipeline fill.
    """
    cycles = 0
    if tile is None:
        for gemm in extent:
            cycles += gemm_cycles_lower_bound(gemm, array)
    else:
        for gemm in extent:
            cycles += gemm_compute_cycles(gemm, array, tile)
    return cycles / frequency


def _transfer_latency(
    num_bytes: int, bandwidths: _Bandwidths, kind: TensorKind
) -> float:
    """Seconds ``num_bytes`` take on the ``kind`` interface.

    A transfer of nothing takes none and reads no bandwidth.
    """
    return num_bytes / bandwidths[kind] if num_bytes else 0.0


class NodeTerms(NamedTuple):
    """What one executed node's latency is made of, at any design.

    Attributes:
        name: Node name.
        layer: The node's layer.
        kind: Its compute kind when a tile term depends on the tile (the
            reload trips of a conv, depthwise, GEMM or attention node,
            and a GEMM's cycles); None when none does.
        extent: What the tile terms derive from: the output shape of a
            conv or depthwise node, the composed multiplies of a GEMM or
            attention node; None for a tile-invariant node.
        compute: The node's compute expression.
        work: Its argument: (MACs, output channels, input channels) on
            the conv datapath, (MACs, channels) for depthwise, the op
            count on the vector lanes, or the GEMM extent.
        macs: Nominal multiply-accumulate count.
        sources: Producers of the feature values the node reads, one
            input slot each.
        if_elems: Elements of each source's value.
        wt_elems: Weight elements, or None for a node without weights.
        of_elems: Output elements.
    """

    name: str
    layer: Layer
    kind: ComputeKind | None
    extent: FeatureMapShape | tuple[GemmDims, ...] | None
    compute: Callable[..., float]
    work: object
    macs: int
    sources: tuple[str, ...]
    if_elems: tuple[int, ...]
    wt_elems: int | None
    of_elems: int


def _node_terms(graph: ComputationGraph, name: str) -> NodeTerms:
    """The terms of one executed node, read from the graph."""
    layer = graph.layer(name)
    kind = layer.compute_kind
    out = graph.output_shape(name)
    # Tile-invariant, weightless and no nominal MACs unless a kind says so.
    tiled = extent = wt_elems = None
    macs = 0
    if kind is ComputeKind.CONV:
        assert isinstance(layer, Conv2D)
        # Shapes come from the graph, which resolved them at construction.
        inp = graph.output_shape(layer.inputs[0])
        kh, kw = layer.kernel
        macs = out.channels * out.height * out.width * inp.channels * kh * kw
        tiled, extent = kind, out
        compute, work = _mac_compute, (macs, out.channels, layer.in_channels)
        # The weight volume, without building a WeightShape per node.
        wt_elems = layer.out_channels * layer.in_channels * kh * kw
    elif kind is ComputeKind.DEPTHWISE:
        # Each input channel feeds exactly its own output channel, so the
        # input streams once (no output-channel reload factor).
        macs = layer.macs(graph.input_shapes(name))
        tiled, extent = kind, out
        compute, work = _depthwise_compute, (macs, out.channels)
        wt_elems = _weight_volume(layer)
    elif kind is ComputeKind.GEMM and layer.conv_datapath:
        # The CNN classifier head runs on the convolution datapath as a 1x1
        # convolution over a 1x1 spatial extent, so it pays the
        # channel-padding waste model and a single streaming pass over
        # every tensor.
        assert isinstance(layer, Gemm)
        macs = layer.macs(graph.input_shapes(name))
        compute, work = _mac_compute, (macs, layer.out_features, layer.in_features)
        wt_elems = _weight_volume(layer)
    elif kind is ComputeKind.GEMM or kind is ComputeKind.ATTENTION:
        # A systolic GEMM over a token sequence, or fused attention: its
        # compute is the sum of its composed GEMMs; the attention
        # intermediates stay in the tile buffers, so the only off-chip
        # streams are the input sequence (reloaded per output-feature tile
        # of the QKV projection), the fused projection weights and the
        # output sequence.
        assert isinstance(layer, (Gemm, Attention))
        dims = layer.gemm_dims()
        macs = layer.macs(graph.input_shapes(name))
        tiled = kind
        extent = (dims,) if isinstance(dims, GemmDims) else dims
        compute, work = _gemm_compute, extent
        wt_elems = _weight_volume(layer)
    elif kind is ComputeKind.NORM:
        # Two passes (statistics, normalise) over the data on the vector
        # lanes: memory bound on any realistic design, like eltwise.
        compute, work = _vector_compute, 2 * out.volume
    elif kind is ComputeKind.POOL:
        assert isinstance(layer, Pooling)
        # One comparison/add per kernel element per output.
        if layer.global_pool:
            (inp,) = graph.input_shapes(name)
            work = inp.volume
        else:
            work = out.volume * layer.kernel[0] * layer.kernel[1]
        compute = _vector_compute
    elif kind is ComputeKind.ELTWISE:
        compute, work = _vector_compute, out.volume
    else:
        raise ValueError(f"cannot characterise compute kind {kind} of {name!r}")
    sources = tuple(graph.feature_sources(name))
    shape = graph.output_shape
    return NodeTerms(
        name, layer, tiled, extent, compute, work, macs, sources,
        tuple([shape(src).volume for src in sources]),
        wt_elems,
        out.volume,
    )


#: Why a model built by :meth:`LatencyModel.from_layers` answers no tile query.
_EDITED = "a model built from an edited layer table cannot be re-tiled"


class FloorTable:
    """One graph's node terms, and the roofline floor of any design on it.

    The terms of every executed node (:class:`NodeTerms`), in schedule
    order, hold nothing of a design, so one table serves every design
    on the graph: a :class:`LatencyModel` characterises its design from
    them, and :meth:`floor` bounds a design from them directly, without
    characterising it — what the roofline pruning of
    :mod:`repro.perf.space` asks of every base design of a sweep.

    The graph holds its table: readers take ``graph.derived(FloorTable)``,
    so every model, floor and sweep on one graph shares one build, and
    :meth:`ComputationGraph.add` drops it with the graph's other
    analyses, so a node added later is in the next table.

    Args:
        graph: The DNN computation graph.

    Raises:
        repro.errors.GraphValidationError: When the graph has no layer
            the accelerator executes (only inputs and concats).
    """

    def __init__(self, graph: ComputationGraph) -> None:
        schedule = graph.compute_schedule()
        if not schedule:
            raise GraphValidationError(
                f"graph {graph.name!r} has no layer the accelerator executes"
            )
        self.graph = graph
        self.nodes = [_node_terms(graph, name) for name in schedule]
        self._floors: dict[tuple, float] = {}

    @cached_property
    def layout(self) -> "SlotLayout":
        """Every node's slots and the tensor each carries, for any design."""
        streams = []
        for node in self.nodes:
            node_streams = [(0, feature_tensor_name(src)) for src in node.sources]
            if node.wt_elems is not None:
                node_streams.append((1, weight_tensor_name(node.name)))
            node_streams.append((2, feature_tensor_name(node.name)))
            streams.append(node_streams)
        return slot_layout(
            [node.name for node in self.nodes], streams, [node.macs for node in self.nodes]
        )

    @cached_property
    def tensor_elems(self) -> dict[str, int]:
        """Elements of every tensor value a node's slot carries, by name."""
        elems: dict[str, int] = {}
        for node in self.nodes:
            for src, count in zip(node.sources, node.if_elems):
                elems[feature_tensor_name(src)] = count
            if node.wt_elems is not None:
                elems[weight_tensor_name(node.name)] = node.wt_elems
            elems[feature_tensor_name(node.name)] = node.of_elems
        return elems

    def floor(self, accel: AcceleratorConfig) -> float:
        """UMM latency no tile on ``accel`` can beat.

        Every reload trip at its floor of one and every GEMM at its
        best-schedule cycle count.  A tile only multiplies transfer terms
        by trips >= 1 (a residency cap can lower a trip count, never
        below 1) and never runs a GEMM in fewer cycles, and the per-node
        ``max`` and the sum are monotone in those terms, so the floor is
        at most ``LatencyModel(graph, accel).umm_latency(tile)`` for
        every tile.  The node terms are combined as
        :meth:`LayerLatency.latency` does and summed as
        :meth:`LatencyModel.total_latency` does.

        The floor reads the design's element size, array, clock and
        interface bandwidths, never its tile or residency caps, so designs
        that differ only in those share one evaluation.
        """
        key = (
            accel.precision.bytes,
            accel.array,
            accel.frequency,
            accel.ddr,
            accel.ddr_efficiency,
        )
        floor = self._floors.get(key)
        if floor is None:
            floor = self._floors[key] = self._evaluate(accel)
        return floor

    def _evaluate(self, accel: AcceleratorConfig) -> float:
        array, frequency = accel.array, accel.frequency
        elem = accel.precision.bytes
        bandwidths = _Bandwidths(accel)
        ifmap, weight, ofmap = KINDS
        total = 0.0
        for node in self.nodes:
            if_lat = 0.0
            for elems in node.if_elems:
                if_lat += _transfer_latency(elems * elem, bandwidths, ifmap)
            wt_elems = node.wt_elems or 0
            total += max(
                node.compute(node.work, array, frequency, None),
                if_lat,
                _transfer_latency(wt_elems * elem, bandwidths, weight),
                _transfer_latency(node.of_elems * elem, bandwidths, ofmap),
            )
        return total


class LatencyModel:
    """Latency model of one (graph, accelerator design) pair.

    Characterises every executed node once, into one :class:`NodeTable`
    (``node_table``) that every allocation-dependent query, the
    allocation engine, the Eq. 2 metric and DNNK's gain evaluator read,
    which matters because the DNNK dynamic program evaluates marginal
    gains in its inner loop.  :meth:`layer` and :meth:`slots` build
    :class:`LayerLatency` and :class:`Slot` views of it on demand.

    Only conv, depthwise, GEMM and attention nodes depend on the tile: their
    reload trips, and the cycle counts of the GEMMs.  So
    :meth:`umm_latency` scores the same design at any other tile without
    characterising the graph again — the query a tile sweep makes per
    tile — and :meth:`umm_floor` bounds every tile.

    Args:
        graph: The DNN computation graph.
        accel: The accelerator design point.

    Raises:
        repro.errors.GraphValidationError: When the graph has no layer
            the accelerator executes (only inputs and concats): it has no
            latency to model.
    """

    def __init__(self, graph: ComputationGraph, accel: AcceleratorConfig) -> None:
        table = graph.derived(FloorTable)
        self.graph = graph
        self.accel = accel
        # Build-time constants: the element size and the per-kind
        # interface bandwidths, each read once per model.
        self._elem = accel.precision.bytes
        self._bandwidth = _Bandwidths(accel)
        self._derived: dict[Callable, object] = {}
        # The node terms re-tiled queries derive from; None once slots
        # were edited.
        self._table: FloorTable | None = table
        # What re-tiled queries walk; _retile_plan builds it on first use.
        self._plan: list | None = None
        self.node_table = self._characterize(table)

    @classmethod
    def from_layers(
        cls,
        graph: ComputationGraph,
        accel: AcceleratorConfig,
        layers: dict[str, LayerLatency],
    ) -> "LatencyModel":
        """Build a model from an already-characterised layer table.

        The derived model answers every allocation query against the
        given (possibly edited) slots while keeping the graph/accel
        identity.  It cannot be re-tiled or floored.
        """
        return cls.with_table(graph, accel, NodeTable.from_layers(layers))

    @classmethod
    def with_table(
        cls, graph: ComputationGraph, accel: AcceleratorConfig, table: NodeTable
    ) -> "LatencyModel":
        """A model answering every allocation query against ``table``.

        Used by passes that rewrite the transfer terms (layer fusion
        zeroes fused slots, :meth:`NodeTable.zeroed`) without re-running
        characterisation.  Like :meth:`from_layers`, it cannot be
        re-tiled or floored.
        """
        model = cls.__new__(cls)
        model.graph = graph
        model.accel = accel
        model.node_table = table
        model._derived = {}
        model._table = None
        model._plan = None
        return model

    def derived(self, build: Callable[["LatencyModel"], T]) -> T:
        """``build(self)``, computed on first use and kept on this model.

        For results derived from the model (the fused model, the pass
        results and allocator outcomes every compile of a design
        shares): every reader of one model shares one build, and a
        model built by :meth:`with_table` starts with none of its
        source's.
        """
        try:
            return self._derived[build]  # type: ignore[return-value]
        except KeyError:
            value = self._derived[build] = build(self)
            return value

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _characterize(self, floors: FloorTable) -> NodeTable:
        """Every executed node at this design's tile, into one table.

        Per node: one if-slot per feature value it reads, with reloads;
        a wt slot only for a node with weights; then the output slot —
        each slot's bytes and transfer latency, and the per-kind sums in
        slot order — and its compute.
        """
        accel = self.accel
        tile, array, frequency = accel.tile, accel.array, accel.frequency
        if_cap, wt_cap = accel.if_resident_cap, accel.wt_resident_cap
        elem = self._elem
        bandwidth = self._bandwidth
        ifmap, weight, ofmap = KINDS
        computes: list[float] = []
        byte_counts: list[tuple[int, ...]] = []
        lats: list[tuple[float, ...]] = []
        sums: list[tuple[float, float, float]] = []
        umm: list[float] = []
        for node in floors.nodes:
            (
                _, layer, tiled, extent, compute, work, _,
                _, if_elems, wt_elems, of_elems,
            ) = node
            if tiled is None:
                n_if = n_wt = 1
            elif tiled is _CONV:
                n_if, n_wt = conv_reload_trips(layer, extent, tile, elem, if_cap, wt_cap)
            elif tiled is _DEPTHWISE:
                n_if, n_wt = 1, tile.spatial_trips(extent.height, extent.width)
            else:
                # The reloads follow the leading multiply.
                n_if, n_wt = gemm_reload_trips(extent[0], tile, elem, if_cap, wt_cap)
            node_bytes = [elems * elem * n_if for elems in if_elems]
            node_lats = [_transfer_latency(b, bandwidth, ifmap) for b in node_bytes]
            # Each kind's sum in slot order from 0.0, as every walk of the
            # slots accumulates it.
            s_if = s_wt = s_of = 0.0
            for lat in node_lats:
                s_if += lat
            if wt_elems is not None:
                num_bytes = wt_elems * elem * n_wt
                lat = _transfer_latency(num_bytes, bandwidth, weight)
                node_bytes.append(num_bytes)
                node_lats.append(lat)
                s_wt += lat
            num_bytes = of_elems * elem
            lat = _transfer_latency(num_bytes, bandwidth, ofmap)
            node_bytes.append(num_bytes)
            node_lats.append(lat)
            s_of += lat
            value = compute(work, array, frequency, tile)
            computes.append(value)
            byte_counts.append(tuple(node_bytes))
            lats.append(tuple(node_lats))
            sums.append((s_if, s_wt, s_of))
            umm.append(max(value, s_if, s_wt, s_of))
        return NodeTable(floors.layout, computes, byte_counts, lats, sums, umm)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def nodes(self) -> list[str]:
        """Executed nodes in schedule order."""
        return list(self.node_table.names)

    def _node_index(self, name: str) -> int:
        try:
            return self.node_table.index[name]
        except KeyError:
            raise KeyError(f"node {name!r} is not an executed layer") from None

    def layer(self, name: str) -> LayerLatency:
        """Latency decomposition of one node (a view, built on each call)."""
        return self.node_table.layer(self._node_index(name))

    def slots(self) -> Iterable[Slot]:
        """All transfer slots of all nodes, in schedule order."""
        table = self.node_table
        for ni in range(len(table.names)):
            yield from table.layer(ni).slots

    def node_latency(
        self,
        name: str,
        onchip: frozenset[str] = frozenset(),
        residuals: dict[str, float] | None = None,
        fractions: dict[str, float] | None = None,
    ) -> float:
        """Effective latency of one node under an allocation (Eq. 1)."""
        return self.node_table.latency(self._node_index(name), onchip, residuals, fractions)

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
        table = self.node_table
        if not onchip and not fractions:
            return sum(table.umm)
        return sum(
            table.latency(ni, onchip, residuals, fractions)
            for ni in range(len(table.names))
        )

    def umm_latency(self, tile: TileConfig | None = None) -> float:
        """Latency with everything off-chip (the UMM baseline).

        With ``tile``, the UMM latency of this design with ``tile``
        swapped in, bit for bit
        ``LatencyModel(graph, replace(accel, tile=tile)).umm_latency()``
        (:func:`dataclasses.replace`): only the tile terms are
        re-derived, through the same helpers the characterisation calls,
        and the node latencies are combined and summed as
        :meth:`total_latency` does.
        """
        if tile is None:
            return self.total_latency(frozenset())
        return self._retiled_total(tile)

    def umm_floor(self) -> float:
        """UMM latency no tile on this design can beat.

        The graph's :meth:`FloorTable.floor` of this design, so
        ``umm_floor() <= umm_latency(tile)`` for every tile.
        """
        if self._table is None:
            raise ValueError(_EDITED)
        return self._table.floor(self.accel)

    def _retiled_total(self, tile: TileConfig) -> float:
        """UMM latency at ``tile``, in schedule order.

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
        conv, depthwise = _CONV, _DEPTHWISE
        total = 0.0
        for entry in plan:
            kind = entry[0]
            if kind is None:
                total += entry[1]
                continue
            _, layer, extent, compute, if_bytes, wt_bytes, of_lat = entry
            if kind is conv:
                n_if, n_wt = conv_reload_trips(
                    layer, extent, tile, elem, if_cap, wt_cap
                )
            elif kind is depthwise:
                n_if, n_wt = 1, tile.spatial_trips(extent.height, extent.width)
            else:
                compute = _gemm_compute(extent, array, freq, tile)
                n_if, n_wt = gemm_reload_trips(
                    extent[0], tile, elem, if_cap, wt_cap
                )
            # _transfer_latency's expression, inlined: this loop runs once
            # per node per scored tile, and a call per slot costs ~15 %.
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
        output latency).  Built on the first re-tiled query, so a model
        that is never re-tiled pays nothing for it.
        """
        plan = self._plan
        if plan is not None:
            return plan
        if self._table is None:
            raise ValueError(_EDITED)
        elem = self._elem
        plan = []
        table = self.node_table
        for node, compute, lats, umm in zip(
            self._table.nodes, table.compute, table.lats, table.umm
        ):
            if node.kind is None:
                plan.append((None, umm))
                continue
            plan.append((
                node.kind,
                node.layer,
                node.extent,
                compute,
                tuple(elems * elem for elems in node.if_elems),
                node.wt_elems * elem,
                lats[-1],
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
        table = self.node_table
        if capacity is None:
            return sum(table.compute)
        # A model built by with_table has no floor table of its own; its
        # graph's holds the same tensor volumes.
        elems = self.graph.derived(FloorTable).tensor_elems
        elem = self.accel.precision.bytes
        oversized = [elems[name] * elem > capacity for name in table.tensor_names]

        def node_bound(compute: float, kinds, tids, lats) -> float:
            # Per-kind sums in slot order, as the engine accumulates them.
            sums = [0.0, 0.0, 0.0]
            for kind, tid, lat in zip(kinds, tids, lats):
                if not lat >= 0.0:
                    return compute
                if lat and oversized[tid]:
                    sums[kind] += lat
            return max(compute, sums[0], sums[1], sums[2])

        return sum(map(node_bound, table.compute, table.kinds, table.tids, table.lats))

    def memory_bound_nodes(self) -> list[str]:
        """Executed nodes whose UMM latency is transfer-limited."""
        table = self.node_table
        return [name for ni, name in enumerate(table.names) if table.memory_bound(ni)]

    def throughput(self, latency: float) -> float:
        """Ops/second achieved for one inference finishing in ``latency``."""
        if latency <= 0:
            raise ValueError("latency must be positive")
        total_ops = 2 * sum(self.node_table.macs)
        return total_ops / latency

    def bandwidth_requirement(self, name: str) -> float:
        """Bytes/second the node needs to never stall (paper Sec. 2.2)."""
        ni = self._node_index(name)
        compute = self.node_table.compute[ni]
        if compute <= 0:
            return float("inf")
        return sum(self.node_table.bytes[ni]) / compute


#: Latency models a process keeps alive at once, least recent out first.
#: A model carries what every compile of its design shares (the
#: feature-reuse and weight-prefetch results, the engine tables, the
#: allocator outcomes), so an unbounded cache would grow with every
#: design a daemon or a sweep ever visited.
_MODEL_LRU = 4

#: The process's one design cache: models by (the graph's floor table,
#: the design's fingerprint).  Serve's inline workers are threads, hence
#: the lock.
_DESIGN_CACHE: "OrderedDict[tuple[FloorTable, str], LatencyModel]" = OrderedDict()
_DESIGN_LOCK = threading.Lock()


def design_model(graph: ComputationGraph, accel: AcceleratorConfig) -> LatencyModel:
    """The process's shared :class:`LatencyModel` of one design.

    Every compile of a design (``cache.batch.compile_job``) and every
    score of a DSE base (the sweep's parent and its pool workers) reads
    the model from here, so a design is characterised once per process
    while it stays among the last :data:`_MODEL_LRU` asked for.  The
    key is the graph's :class:`FloorTable`, which hashes by identity and
    which :meth:`ComputationGraph.add` replaces, so a graph that grew
    never gets a stale model, and the design's fingerprint, tile
    included, which covers everything a compile reads.
    """
    key = (graph.derived(FloorTable), accel_fingerprint(accel))
    with _DESIGN_LOCK:
        model = _DESIGN_CACHE.get(key)
        if model is not None:
            _DESIGN_CACHE.move_to_end(key)
            return model
    model = LatencyModel(graph, accel)
    with _DESIGN_LOCK:
        # A thread that built the same design meanwhile keeps its model.
        model = _DESIGN_CACHE.setdefault(key, model)
        _DESIGN_CACHE.move_to_end(key)
        while len(_DESIGN_CACHE) > _MODEL_LRU:
            _DESIGN_CACHE.popitem(last=False)
    return model
