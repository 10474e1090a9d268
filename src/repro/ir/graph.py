"""The DNN computation graph.

A :class:`ComputationGraph` is a DAG of :class:`~repro.ir.layer.Layer`
nodes.  It owns shape inference, validation, deterministic topological
scheduling (the execution order the accelerator follows, Sec. 3.1 of the
paper: "C2 executes before C3 in topological order") and the enumeration of
feature/weight tensor identities that the LCMM passes operate on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import GraphValidationError
from repro.ir.layer import Concat, Layer, OpType
from repro.ir.tensor import (
    FeatureMapShape,
    FeatureTensor,
    WeightTensor,
    feature_tensor_name,
    weight_tensor_name,
)

__all__ = ["ComputationGraph", "GraphValidationError"]


@dataclass
class ComputationGraph:
    """A directed acyclic graph of DNN layers.

    Layers are added in definition order; the topological schedule breaks
    ties by definition order, which makes every derived analysis
    deterministic and reproducible.

    Attributes:
        name: Model name (``"resnet152"``...).
    """

    name: str
    #: Optional grouping of layers into named blocks (inception blocks,
    #: residual stages...).  Populated by the model builders; used by the
    #: per-block experiments (Fig. 2(b) and Fig. 8 of the paper).
    blocks: dict[str, list[str]] = field(default_factory=dict)
    _layers: dict[str, Layer] = field(default_factory=dict, repr=False)
    _shapes: dict[str, FeatureMapShape] = field(default_factory=dict, repr=False)
    _schedule: list[str] | None = field(default=None, repr=False)
    #: Lazy consumer index (producer -> consumers in schedule order, each
    #: once) and schedule positions; reset by :meth:`add` with the schedule.
    _consumers: dict[str, list[str]] | None = field(
        default=None, repr=False, compare=False
    )
    _position: dict[str, int] | None = field(default=None, repr=False, compare=False)
    _current_block: str | None = field(default=None, repr=False)

    def add(self, layer: Layer) -> Layer:
        """Add a layer, checking name uniqueness and input availability.

        Inputs must already be present — the builders emit layers in
        topological order, which keeps validation incremental and cheap.

        Returns:
            The layer itself, so builders can chain on the name.
        """
        if layer.name in self._layers:
            raise GraphValidationError(f"duplicate layer name {layer.name!r}")
        for src in layer.inputs:
            if src not in self._layers:
                raise GraphValidationError(
                    f"layer {layer.name!r} reads unknown input {src!r} "
                    "(layers must be added in topological order)"
                )
        input_shapes = [self._shapes[src] for src in layer.inputs]
        self._shapes[layer.name] = layer.infer_output_shape(input_shapes)
        self._layers[layer.name] = layer
        self._schedule = None
        self._consumers = None
        self._position = None
        if self._current_block is not None:
            self.blocks.setdefault(self._current_block, []).append(layer.name)
        return layer

    def begin_block(self, block_name: str) -> None:
        """Start tagging subsequently added layers with ``block_name``."""
        self._current_block = block_name

    def end_block(self) -> None:
        """Stop tagging added layers with a block name."""
        self._current_block = None

    def block_of(self, layer_name: str) -> str | None:
        """Name of the block containing ``layer_name``, or None."""
        self.layer(layer_name)
        for block_name, members in self.blocks.items():
            if layer_name in members:
                return block_name
        return None

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._layers

    def __len__(self) -> int:
        return len(self._layers)

    def layer(self, name: str) -> Layer:
        """Look up a layer by name."""
        try:
            return self._layers[name]
        except KeyError:
            raise KeyError(f"no layer named {name!r} in graph {self.name!r}") from None

    def layers(self) -> list[Layer]:
        """All layers in definition (and therefore topological) order."""
        return list(self._layers.values())

    def output_shape(self, name: str) -> FeatureMapShape:
        """Output feature-map shape of a layer."""
        self.layer(name)
        return self._shapes[name]

    def input_shapes(self, name: str) -> list[FeatureMapShape]:
        """Input feature-map shapes of a layer, in input order."""
        return [self._shapes[src] for src in self.layer(name).inputs]

    def predecessors(self, name: str) -> list[str]:
        """Producer layer names read by ``name``."""
        return list(self.layer(name).inputs)

    def successors(self, name: str) -> list[str]:
        """Consumer layer names reading ``name``'s output, in schedule order."""
        self.layer(name)
        return list(self._consumer_index().get(name, ()))

    def _consumer_index(self) -> dict[str, list[str]]:
        """Producer -> consumers, built in one pass over the layers."""
        if self._consumers is None:
            index: dict[str, list[str]] = {}
            for lyr in self._layers.values():
                for src in dict.fromkeys(lyr.inputs):
                    index.setdefault(src, []).append(lyr.name)
            self._consumers = index
        return self._consumers

    def sinks(self) -> list[str]:
        """Layers whose output nobody consumes (the network outputs)."""
        consumed = self._consumer_index()
        return [name for name in self._layers if name not in consumed]

    def schedule(self) -> list[str]:
        """Deterministic topological execution order of all layers.

        Since :meth:`add` enforces producers-before-consumers, definition
        order *is* a topological order; we cache and return it.  Excludes
        nothing — callers filter by op type as needed.
        """
        if self._schedule is None:
            self._schedule = list(self._layers)
        return list(self._schedule)

    def compute_schedule(self) -> list[str]:
        """Schedule restricted to layers the accelerator actually executes.

        Input and concat nodes take no execution step: the input image is
        already in DDR and concatenation is address steering.
        """
        skip = (OpType.INPUT, OpType.CONCAT)
        return [name for name in self.schedule() if self.layer(name).op_type not in skip]

    # ------------------------------------------------------------------
    # Tensor enumeration
    # ------------------------------------------------------------------
    def feature_tensors(self) -> list[FeatureTensor]:
        """One feature tensor per layer output that somebody consumes.

        Concat nodes are transparent: a consumer reading a concat output is
        recorded as a consumer of each of the concat's own inputs, because
        the accelerator reads the branch outputs directly via address
        steering.  Concat outputs therefore get no tensor of their own.
        """
        tensors = []
        for name, lyr in self._layers.items():
            if lyr.op_type is OpType.CONCAT:
                continue
            consumers = self._transitive_consumers(name)
            if not consumers:
                continue
            tensors.append(
                FeatureTensor(
                    name=feature_tensor_name(name),
                    producer=name,
                    consumers=tuple(consumers),
                    shape=self._shapes[name],
                )
            )
        return tensors

    def _transitive_consumers(self, name: str) -> list[str]:
        """Consumers of a layer output, looking through concat nodes."""
        if self._position is None:
            self._position = {node: idx for idx, node in enumerate(self.schedule())}
        index = self._consumer_index()
        # Visit order does not matter: the result is sorted by position.
        result: set[str] = set()
        stack = list(index.get(name, ()))
        while stack:
            consumer = stack.pop()
            if self._layers[consumer].op_type is OpType.CONCAT:
                stack.extend(index.get(consumer, ()))
            else:
                result.add(consumer)
        return sorted(result, key=self._position.__getitem__)

    def feature_sources(self, name: str) -> list[str]:
        """Producer names whose feature values ``name`` actually reads.

        Expands concat inputs recursively: a node reading a concat output
        reads the concat's branch outputs directly (address steering), so
        the returned producers are always non-concat layers.
        """
        # Depth-first in input order: the stack holds inputs reversed, so
        # popping from its end visits them first to last.
        sources: list[str] = []
        stack = list(reversed(self.layer(name).inputs))
        while stack:
            src = stack.pop()
            lyr = self._layers[src]
            if lyr.op_type is OpType.CONCAT:
                stack.extend(reversed(lyr.inputs))
            else:
                sources.append(src)
        return sources

    def weight_tensors(self) -> list[WeightTensor]:
        """One weight tensor per weighted layer (conv/FC/GEMM/attention)."""
        tensors = []
        for name, lyr in self._layers.items():
            shape = lyr.weight_shape
            if shape is not None:
                tensors.append(WeightTensor(weight_tensor_name(name), name, shape))
        return tensors

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def total_macs(self) -> int:
        """Total multiply-accumulates for one inference."""
        return sum(
            lyr.macs(self.input_shapes(lyr.name)) for lyr in self._layers.values()
        )

    def total_weight_bytes(self, element_bytes: int) -> int:
        """Total parameter footprint in bytes."""
        return sum(t.bytes(element_bytes) for t in self.weight_tensors())

    def weighted_layers(self) -> list[str]:
        """Names of layers that read a weight tensor, in order."""
        return [name for name, lyr in self._layers.items() if lyr.has_weights]

    #: Historical name from the conv-only era; the set was always
    #: "layers with weights", which now includes GEMM/attention nodes.
    conv_layers = weighted_layers

    def validate(self) -> None:
        """Full structural validation.

        :meth:`add` already guarantees acyclicity and resolved inputs; this
        re-checks reachability so hand-mutated graphs fail loudly.

        Raises:
            GraphValidationError: On an empty graph or unreachable layers.
        """
        if not self._layers:
            raise GraphValidationError(f"graph {self.name!r} is empty")
        entry = [n for n, l in self._layers.items() if l.op_type is OpType.INPUT]
        if not entry:
            raise GraphValidationError(f"graph {self.name!r} has no input layer")
        reachable = set(entry)
        frontier = list(entry)
        while frontier:
            node = frontier.pop()
            for succ in self.successors(node):
                if succ not in reachable:
                    reachable.add(succ)
                    frontier.append(succ)
        unreachable = set(self._layers) - reachable
        if unreachable:
            raise GraphValidationError(
                f"graph {self.name!r} has unreachable layers: {sorted(unreachable)[:5]}"
            )
