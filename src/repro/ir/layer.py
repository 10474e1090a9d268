"""Layer (graph node) definitions.

Each layer knows how to infer its output feature-map shape from its input
shapes and how to count its multiply-accumulate operations.  Convolutions
dominate both computation and storage in the paper's evaluated models
(Sec. 2.1), so they carry the full loop-nest description
``(M, C, H, W, Kh, Kw)`` consumed by the performance model; GEMM-family
layers (matrix multiply, attention) carry the ``(B, M, N, P)`` description
the systolic GEMM model consumes instead.  Pooling, normalisation and
element-wise layers move data but perform negligible arithmetic; concat is
realised by address steering in the accelerator and is free.

Downstream consumers dispatch on :class:`ComputeKind`, not on concrete
classes — a new layer only needs a kind, the three shape/cost contracts
(``infer_output_shape`` / ``macs`` / ``weight_shape``) and, for GEMM-kind
ops, ``gemm_dims()``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.ir.tensor import FeatureMapShape, WeightShape


class OpType(str, enum.Enum):
    """Operation category of a layer."""

    INPUT = "input"
    CONV = "conv"
    POOL = "pool"
    FC = "fc"
    ELTWISE = "eltwise"
    CONCAT = "concat"
    GEMM = "gemm"
    ATTENTION = "attention"
    NORM = "norm"

    def __str__(self) -> str:
        return self.value


class ComputeKind(str, enum.Enum):
    """How the accelerator executes a layer — the dispatch axis of the
    latency model (which also scores the DSE sweep) and the tile simulator.

    ``DATA`` nodes (input, concat) are free; everything else maps to one
    of the datapath templates.  ``GEMM`` covers both standalone matrix
    multiplies and fully-connected classifiers (the latter ride the conv
    datapath for latency, see :class:`FullyConnected`); ``ATTENTION`` is
    a fused block of composed GEMMs.
    """

    DATA = "data"
    CONV = "conv"
    DEPTHWISE = "depthwise"
    POOL = "pool"
    ELTWISE = "eltwise"
    GEMM = "gemm"
    ATTENTION = "attention"
    NORM = "norm"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class GemmDims:
    """Loop bounds of one (possibly batched) matrix multiply.

    The operation is ``out[b, m, p] = sum_n in[b, m, n] * w[b, n, p]``;
    for layer weights the batch dimension broadcasts over a single weight
    matrix.  These are the dimensions the systolic GEMM cycle model
    (``perf.systolic.gemm_compute_cycles``) consumes.

    Attributes:
        batch: Independent matrix multiplies (attention heads).
        m: Output rows (sequence/token positions).
        n: Reduction depth (input features).
        p: Output columns (output features).
    """

    batch: int
    m: int
    n: int
    p: int

    def __post_init__(self) -> None:
        if min(self.batch, self.m, self.n, self.p) <= 0:
            raise ValueError(f"gemm dimensions must be positive, got {self}")

    @property
    def macs(self) -> int:
        """Multiply-accumulate count of the multiply."""
        return self.batch * self.m * self.n * self.p

    def __str__(self) -> str:
        return f"[{self.batch}]{self.m}x{self.n}x{self.p}"


class PoolMode(str, enum.Enum):
    """Pooling flavour; both cost the same in the performance model."""

    MAX = "max"
    AVG = "avg"


def _conv_output_extent(extent: int, kernel: int, stride: int, padding: int) -> int:
    """Output spatial extent of a convolution/pooling along one axis."""
    out = (extent + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive output extent for input={extent}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


@dataclass
class Layer:
    """Base class for graph nodes.

    Attributes:
        name: Unique node name within a graph.
        inputs: Names of the producer nodes this layer reads, in order.
    """

    name: str
    inputs: tuple[str, ...] = ()

    #: Overridden per subclass.
    op_type: OpType = field(default=OpType.INPUT, init=False, repr=False)

    #: Datapath the layer executes on; overridden per subclass (plain class
    #: attribute so dataclass machinery and serialization ignore it).
    compute_kind = ComputeKind.DATA

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("layer name must be non-empty")
        if isinstance(self.inputs, list):
            self.inputs = tuple(self.inputs)

    def infer_output_shape(self, input_shapes: list[FeatureMapShape]) -> FeatureMapShape:
        """Output feature-map shape given the input shapes, in input order."""
        raise NotImplementedError

    def macs(self, input_shapes: list[FeatureMapShape]) -> int:
        """Multiply-accumulate count of the layer (0 for data movement ops)."""
        return 0

    @property
    def weight_shape(self) -> WeightShape | None:
        """Weight tensor shape, or None for weight-less layers."""
        return None

    @property
    def has_weights(self) -> bool:
        """Whether the layer reads a weight tensor."""
        return self.weight_shape is not None


@dataclass
class InputLayer(Layer):
    """Graph entry point carrying the network's input image."""

    shape: FeatureMapShape = field(default_factory=lambda: FeatureMapShape(3, 224, 224))

    def __post_init__(self) -> None:
        super().__post_init__()
        self.op_type = OpType.INPUT
        if self.inputs:
            raise ValueError(f"input layer {self.name!r} must not have inputs")

    def infer_output_shape(self, input_shapes: list[FeatureMapShape]) -> FeatureMapShape:
        if input_shapes:
            raise ValueError("input layer takes no input shapes")
        return self.shape


@dataclass
class Conv2D(Layer):
    """2-D convolution, the workhorse layer.

    Supports asymmetric kernels (the 1x7 / 7x1 factorised convolutions of
    Inception-v4) and strides; dilation and grouping are not needed by the
    paper's benchmark suite.

    Attributes:
        out_channels: Number of output feature maps (M).
        kernel: ``(Kh, Kw)`` filter size.
        stride: ``(Sh, Sw)`` stride.
        padding: ``(Ph, Pw)`` zero padding; ``"same"`` semantics must be
            pre-resolved by the model builders.
    """

    out_channels: int = 0
    kernel: tuple[int, int] = (1, 1)
    stride: tuple[int, int] = (1, 1)
    padding: tuple[int, int] = (0, 0)
    #: Filled by the graph when shapes are resolved; needed for weight_shape.
    in_channels: int = field(default=0, repr=False)

    compute_kind = ComputeKind.CONV

    def __post_init__(self) -> None:
        super().__post_init__()
        self.op_type = OpType.CONV
        if self.out_channels <= 0:
            raise ValueError(f"conv {self.name!r}: out_channels must be positive")
        if len(self.inputs) != 1:
            raise ValueError(f"conv {self.name!r} must have exactly one input")
        if min(self.kernel) <= 0 or min(self.stride) <= 0 or min(self.padding) < 0:
            raise ValueError(f"conv {self.name!r}: bad kernel/stride/padding")

    def infer_output_shape(self, input_shapes: list[FeatureMapShape]) -> FeatureMapShape:
        (shape,) = input_shapes
        self.in_channels = shape.channels
        return FeatureMapShape(
            channels=self.out_channels,
            height=_conv_output_extent(shape.height, self.kernel[0], self.stride[0], self.padding[0]),
            width=_conv_output_extent(shape.width, self.kernel[1], self.stride[1], self.padding[1]),
        )

    def macs(self, input_shapes: list[FeatureMapShape]) -> int:
        out = self.infer_output_shape(input_shapes)
        (inp,) = input_shapes
        return (
            out.channels
            * out.height
            * out.width
            * inp.channels
            * self.kernel[0]
            * self.kernel[1]
        )

    @property
    def weight_shape(self) -> WeightShape | None:
        if self.in_channels <= 0:
            raise RuntimeError(
                f"conv {self.name!r}: weight shape queried before shape inference"
            )
        return WeightShape(self.out_channels, self.in_channels, *self.kernel)


@dataclass
class DepthwiseConv2D(Layer):
    """Depthwise 2-D convolution: one filter per input channel.

    The workhorse of mobile architectures (MobileNet).  Output channels
    equal input channels; there is no reduction over input channels, so
    operation intensity is very low — depthwise layers are almost always
    memory bound, which makes MobileNet a stress case for the allocator.

    Attributes:
        kernel: ``(Kh, Kw)`` filter size.
        stride: ``(Sh, Sw)`` stride.
        padding: ``(Ph, Pw)`` zero padding.
    """

    kernel: tuple[int, int] = (3, 3)
    stride: tuple[int, int] = (1, 1)
    padding: tuple[int, int] = (1, 1)
    #: Filled by shape inference.
    channels: int = field(default=0, repr=False)

    compute_kind = ComputeKind.DEPTHWISE

    def __post_init__(self) -> None:
        super().__post_init__()
        self.op_type = OpType.CONV
        if len(self.inputs) != 1:
            raise ValueError(f"depthwise conv {self.name!r} must have exactly one input")
        if min(self.kernel) <= 0 or min(self.stride) <= 0 or min(self.padding) < 0:
            raise ValueError(f"depthwise conv {self.name!r}: bad kernel/stride/padding")

    def infer_output_shape(self, input_shapes: list[FeatureMapShape]) -> FeatureMapShape:
        (shape,) = input_shapes
        self.channels = shape.channels
        return FeatureMapShape(
            channels=shape.channels,
            height=_conv_output_extent(shape.height, self.kernel[0], self.stride[0], self.padding[0]),
            width=_conv_output_extent(shape.width, self.kernel[1], self.stride[1], self.padding[1]),
        )

    def macs(self, input_shapes: list[FeatureMapShape]) -> int:
        out = self.infer_output_shape(input_shapes)
        return out.channels * out.height * out.width * self.kernel[0] * self.kernel[1]

    @property
    def weight_shape(self) -> WeightShape | None:
        if self.channels <= 0:
            raise RuntimeError(
                f"depthwise conv {self.name!r}: weight shape queried before inference"
            )
        # One Kh x Kw filter per channel.
        return WeightShape(self.channels, 1, *self.kernel)


@dataclass
class Pooling(Layer):
    """Max or average pooling; data movement only, negligible arithmetic."""

    kernel: tuple[int, int] = (2, 2)
    stride: tuple[int, int] = (2, 2)
    padding: tuple[int, int] = (0, 0)
    mode: PoolMode = PoolMode.MAX
    #: Global pooling collapses H x W to 1 x 1 regardless of kernel.
    global_pool: bool = False

    compute_kind = ComputeKind.POOL

    def __post_init__(self) -> None:
        super().__post_init__()
        self.op_type = OpType.POOL
        if len(self.inputs) != 1:
            raise ValueError(f"pool {self.name!r} must have exactly one input")

    def infer_output_shape(self, input_shapes: list[FeatureMapShape]) -> FeatureMapShape:
        (shape,) = input_shapes
        if self.global_pool:
            return FeatureMapShape(shape.channels, 1, 1)
        return FeatureMapShape(
            channels=shape.channels,
            height=_conv_output_extent(shape.height, self.kernel[0], self.stride[0], self.padding[0]),
            width=_conv_output_extent(shape.width, self.kernel[1], self.stride[1], self.padding[1]),
        )


@dataclass
class Gemm(Layer):
    """Dense matrix multiply over a token sequence.

    The input feature map is read as an ``M x N`` activation matrix with
    ``M = height * width`` token positions and ``N = channels`` features
    per token; the layer multiplies it by an ``N x P`` weight matrix
    (``P = out_features``) and emits a ``P x height x width`` feature map,
    keeping the sequence laid out spatially so eltwise/norm layers and the
    buffer-allocation machinery see ordinary feature tensors.

    Attributes:
        out_features: Output features per token (P).
    """

    out_features: int = 0
    #: Filled by shape inference: reduction depth N and token rows M.
    in_features: int = field(default=0, repr=False)
    rows: int = field(default=0, repr=False)

    compute_kind = ComputeKind.GEMM
    #: Error-message tag, overridden by :class:`FullyConnected`.
    _label = "gemm"
    #: When True, latency characterisation routes the node through the
    #: conv datapath (``effective_macs`` padding model, unit reloads)
    #: instead of the systolic GEMM tile schedule.  The paper's
    #: accelerator runs the CNN classifier head that way.
    conv_datapath = False

    def __post_init__(self) -> None:
        super().__post_init__()
        self.op_type = OpType.GEMM
        if self.out_features <= 0:
            raise ValueError(f"{self._label} {self.name!r}: out_features must be positive")
        if len(self.inputs) != 1:
            raise ValueError(f"{self._label} {self.name!r} must have exactly one input")

    def infer_output_shape(self, input_shapes: list[FeatureMapShape]) -> FeatureMapShape:
        (shape,) = input_shapes
        self.in_features = shape.channels
        self.rows = shape.height * shape.width
        return FeatureMapShape(self.out_features, shape.height, shape.width)

    def macs(self, input_shapes: list[FeatureMapShape]) -> int:
        (shape,) = input_shapes
        return shape.volume * self.out_features

    @property
    def weight_shape(self) -> WeightShape | None:
        if self.in_features <= 0:
            raise RuntimeError(
                f"{self._label} {self.name!r}: weight shape queried before shape inference"
            )
        return WeightShape(self.out_features, self.in_features, 1, 1)

    def gemm_dims(self) -> GemmDims:
        """The (B, M, N, P) loop bounds of this node's multiply."""
        if self.in_features <= 0 or self.rows <= 0:
            raise RuntimeError(
                f"{self._label} {self.name!r}: gemm dims queried before shape inference"
            )
        return GemmDims(batch=1, m=self.rows, n=self.in_features, p=self.out_features)


@dataclass
class FullyConnected(Gemm):
    """Fully-connected classifier head: a GEMM over one flattened token.

    Flattens the whole input feature map into a single ``1 x volume`` row
    (``M = 1``, ``N = volume``), so MACs and weight bytes are identical to
    the historical 1x1-convolution model; latency characterisation keeps
    routing it through the conv datapath (``conv_datapath``), which the
    paper's accelerator uses for classifier layers.
    """

    _label = "fc"
    conv_datapath = True

    def __post_init__(self) -> None:
        super().__post_init__()
        self.op_type = OpType.FC

    def infer_output_shape(self, input_shapes: list[FeatureMapShape]) -> FeatureMapShape:
        (shape,) = input_shapes
        self.in_features = shape.volume
        self.rows = 1
        return FeatureMapShape(self.out_features, 1, 1)


@dataclass
class Attention(Layer):
    """Multi-head self-attention block, executed as composed GEMMs.

    Reads one feature map interpreted as a token sequence (``S = height *
    width`` tokens of ``D = channels`` features) and performs the four
    projections of standard multi-head attention — fused QKV, per-head
    score (``Q K^T``), per-head context (``softmax(scores) V``) and the
    output projection — producing a same-shaped feature map.  Softmax and
    the attention intermediates (Q/K/V, score matrices) stay in the tile
    buffers between the composed GEMMs (fused-attention execution), so the
    node exposes a single combined ``4 D x D`` weight tensor and single
    input/output streams to the allocator.

    Attributes:
        num_heads: Attention heads; must divide the model dimension.
    """

    num_heads: int = 1
    #: Filled by shape inference: model dimension D and sequence length S.
    d_model: int = field(default=0, repr=False)
    seq: int = field(default=0, repr=False)

    compute_kind = ComputeKind.ATTENTION

    def __post_init__(self) -> None:
        super().__post_init__()
        self.op_type = OpType.ATTENTION
        if self.num_heads <= 0:
            raise ValueError(f"attention {self.name!r}: num_heads must be positive")
        if len(self.inputs) != 1:
            raise ValueError(f"attention {self.name!r} must have exactly one input")

    def infer_output_shape(self, input_shapes: list[FeatureMapShape]) -> FeatureMapShape:
        (shape,) = input_shapes
        if shape.channels % self.num_heads != 0:
            raise ValueError(
                f"attention {self.name!r}: d_model {shape.channels} not divisible "
                f"by num_heads {self.num_heads}"
            )
        self.d_model = shape.channels
        self.seq = shape.height * shape.width
        return shape

    def macs(self, input_shapes: list[FeatureMapShape]) -> int:
        (shape,) = input_shapes
        s, d = shape.height * shape.width, shape.channels
        # QKV (3SD^2) + output projection (SD^2) + scores (S^2 D) + context (S^2 D).
        return 4 * s * d * d + 2 * s * s * d

    @property
    def weight_shape(self) -> WeightShape | None:
        if self.d_model <= 0:
            raise RuntimeError(
                f"attention {self.name!r}: weight shape queried before shape inference"
            )
        # W_Q, W_K, W_V and W_O, each D x D, streamed as one fused tensor.
        return WeightShape(4 * self.d_model, self.d_model, 1, 1)

    def gemm_dims(self) -> tuple[GemmDims, ...]:
        """The composed multiplies: (qkv, scores, context, projection)."""
        if self.d_model <= 0 or self.seq <= 0:
            raise RuntimeError(
                f"attention {self.name!r}: gemm dims queried before shape inference"
            )
        head = self.d_model // self.num_heads
        return (
            GemmDims(batch=1, m=self.seq, n=self.d_model, p=3 * self.d_model),
            GemmDims(batch=self.num_heads, m=self.seq, n=head, p=self.seq),
            GemmDims(batch=self.num_heads, m=self.seq, n=self.seq, p=head),
            GemmDims(batch=1, m=self.seq, n=self.d_model, p=self.d_model),
        )


@dataclass
class LayerNorm(Layer):
    """Layer normalisation over the channel dimension of each token.

    Two read passes over the data (statistics, then normalise) and
    negligible arithmetic per element; the per-channel scale/shift
    parameters (2D elements) are folded into the normalise pass and far
    too small to matter for the byte accounting, so the node carries no
    weight tensor.  Shape-preserving, like eltwise — and like eltwise it
    is strongly memory bound, which is what makes transformer graphs
    profitable territory for feature pinning.
    """

    compute_kind = ComputeKind.NORM

    def __post_init__(self) -> None:
        super().__post_init__()
        self.op_type = OpType.NORM
        if len(self.inputs) != 1:
            raise ValueError(f"norm {self.name!r} must have exactly one input")

    def infer_output_shape(self, input_shapes: list[FeatureMapShape]) -> FeatureMapShape:
        (shape,) = input_shapes
        return shape


@dataclass
class EltwiseAdd(Layer):
    """Element-wise addition (residual shortcut join in ResNet)."""

    compute_kind = ComputeKind.ELTWISE

    def __post_init__(self) -> None:
        super().__post_init__()
        self.op_type = OpType.ELTWISE
        if len(self.inputs) < 2:
            raise ValueError(f"eltwise {self.name!r} needs at least two inputs")

    def infer_output_shape(self, input_shapes: list[FeatureMapShape]) -> FeatureMapShape:
        first = input_shapes[0]
        for other in input_shapes[1:]:
            if other != first:
                raise ValueError(
                    f"eltwise {self.name!r}: mismatched input shapes {first} vs {other}"
                )
        return first


@dataclass
class Concat(Layer):
    """Channel-wise concatenation (inception block join).

    Realised by address steering when consumers read from off-chip memory,
    so it contributes no compute and no extra data transfer of its own.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        self.op_type = OpType.CONCAT
        if len(self.inputs) < 2:
            raise ValueError(f"concat {self.name!r} needs at least two inputs")

    def infer_output_shape(self, input_shapes: list[FeatureMapShape]) -> FeatureMapShape:
        first = input_shapes[0]
        for other in input_shapes[1:]:
            if (other.height, other.width) != (first.height, first.width):
                raise ValueError(
                    f"concat {self.name!r}: mismatched spatial dims {first} vs {other}"
                )
        return FeatureMapShape(
            channels=sum(shape.channels for shape in input_shapes),
            height=first.height,
            width=first.width,
        )
