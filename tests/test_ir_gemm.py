"""Op-generic IR: GEMM/attention/norm contracts, FC parity, key stability.

Three satellite claims of the IR refactor are pinned here:

* **FC parity** — ``FullyConnected`` rebased onto ``Gemm`` reports
  bit-identical MACs and weight bytes to the historical
  1x1-convolution model, for every zoo classifier head.
* **Serialization stability** — conv-family graphs keep serializing
  under format version 1 with byte-identical JSON semantics, while
  graphs using the new op kinds get version 2 and round-trip.
* **Cache-key stability** — graph fingerprints of pre-existing conv
  graphs are *unchanged* by the refactor (hard-coded digests captured
  at the pre-refactor commit), and every graph's compile key hashes
  under the one :data:`~repro.fingerprint.CACHE_SCHEMA_VERSION`.
"""

import pytest

from repro.fingerprint import (
    CACHE_SCHEMA_VERSION,
    accel_fingerprint,
    compile_key,
    graph_fingerprint,
    options_fingerprint,
)
from repro.io.serialize import (
    GRAPH_FORMAT_VERSION,
    GRAPH_FORMAT_VERSION_V2,
    graph_format_version,
    graph_from_dict,
    graph_to_dict,
)
from repro.ir.graph import ComputationGraph
from repro.ir.layer import (
    Attention,
    ComputeKind,
    Conv2D,
    EltwiseAdd,
    FullyConnected,
    Gemm,
    GemmDims,
    InputLayer,
    LayerNorm,
    OpType,
)
from repro.ir.tensor import FeatureMapShape, WeightShape
from repro.models.zoo import get_model
from repro.perf.systolic import default_accelerator


def _seq_graph(channels=64, seq=16, factories=()):
    """Chain layer factories ``f(prev_name) -> Layer`` after an input."""
    g = ComputationGraph("t")
    g.add(InputLayer(name="in", shape=FeatureMapShape(channels, seq, 1)))
    prev = "in"
    for factory in factories:
        layer = factory(prev)
        g.add(layer)
        prev = layer.name
    return g


class TestGemm:
    def test_shapes_and_dims(self):
        g = _seq_graph(64, 16, [lambda p: Gemm(name="g", inputs=(p,), out_features=96)])
        assert g.output_shape("g") == FeatureMapShape(96, 16, 1)
        layer = g.layer("g")
        assert layer.gemm_dims() == GemmDims(batch=1, m=16, n=64, p=96)
        assert layer.weight_shape == WeightShape(96, 64, 1, 1)
        assert layer.compute_kind is ComputeKind.GEMM
        assert layer.op_type is OpType.GEMM

    def test_macs_is_m_n_p(self):
        g = _seq_graph(64, 16, [lambda p: Gemm(name="g", inputs=(p,), out_features=96)])
        macs = g.layer("g").macs(g.input_shapes("g"))
        assert macs == 16 * 64 * 96

    def test_spatial_sequence_layout(self):
        # 2-D spatial extents read as a flattened token sequence.
        g = ComputationGraph("t")
        g.add(InputLayer(name="in", shape=FeatureMapShape(768, 14, 14)))
        g.add(Gemm(name="g", inputs=("in",), out_features=3072))
        assert g.layer("g").gemm_dims() == GemmDims(1, 196, 768, 3072)
        assert g.output_shape("g") == FeatureMapShape(3072, 14, 14)

    def test_dims_before_inference_raise(self):
        with pytest.raises(RuntimeError):
            Gemm(name="g", inputs=("x",), out_features=8).gemm_dims()

    def test_bad_out_features(self):
        with pytest.raises(ValueError):
            Gemm(name="g", inputs=("x",), out_features=0)


class TestAttention:
    def test_shape_preserving(self):
        g = _seq_graph(64, 16, [lambda p: Attention(name="a", inputs=(p,), num_heads=4)])
        assert g.output_shape("a") == FeatureMapShape(64, 16, 1)
        assert g.layer("a").compute_kind is ComputeKind.ATTENTION

    def test_composed_gemms(self):
        g = _seq_graph(64, 16, [lambda p: Attention(name="a", inputs=(p,), num_heads=4)])
        qkv, score, context, proj = g.layer("a").gemm_dims()
        assert qkv == GemmDims(1, 16, 64, 192)
        assert score == GemmDims(4, 16, 16, 16)
        assert context == GemmDims(4, 16, 16, 16)
        assert proj == GemmDims(1, 16, 64, 64)

    def test_macs_formula(self):
        g = _seq_graph(64, 16, [lambda p: Attention(name="a", inputs=(p,), num_heads=4)])
        layer = g.layer("a")
        s, d = 16, 64
        expected = 4 * s * d * d + 2 * s * s * d
        assert layer.macs(g.input_shapes("a")) == expected
        # ... and equals the sum over the composed GEMMs.
        assert expected == sum(dims.macs for dims in layer.gemm_dims())

    def test_fused_weight_tensor(self):
        g = _seq_graph(64, 16, [lambda p: Attention(name="a", inputs=(p,), num_heads=4)])
        assert g.layer("a").weight_shape == WeightShape(256, 64, 1, 1)

    def test_heads_must_divide(self):
        with pytest.raises(ValueError):
            _seq_graph(64, 16, [lambda p: Attention(name="a", inputs=(p,), num_heads=5)])


class TestLayerNorm:
    def test_shape_preserving_no_weights(self):
        g = _seq_graph(64, 16, [lambda p: LayerNorm(name="n", inputs=(p,))])
        assert g.output_shape("n") == FeatureMapShape(64, 16, 1)
        layer = g.layer("n")
        assert layer.compute_kind is ComputeKind.NORM
        assert not layer.has_weights
        assert layer.macs(g.input_shapes("n")) == 0


class TestFullyConnectedParity:
    """The rebase satellite: FC == historical 1x1-conv accounting."""

    def test_is_a_gemm(self):
        layer = FullyConnected(name="fc", inputs=("x",), out_features=10)
        assert isinstance(layer, Gemm)
        assert layer.compute_kind is ComputeKind.GEMM
        assert layer.conv_datapath
        assert layer.op_type is OpType.FC

    def test_flatten_semantics(self):
        g = ComputationGraph("t")
        g.add(InputLayer(name="in", shape=FeatureMapShape(512, 7, 7)))
        g.add(FullyConnected(name="fc", inputs=("in",), out_features=1000))
        layer = g.layer("fc")
        assert g.output_shape("fc") == FeatureMapShape(1000, 1, 1)
        # Historical model: in_features = flattened volume, a single row.
        assert layer.gemm_dims() == GemmDims(1, 1, 512 * 7 * 7, 1000)

    @pytest.mark.parametrize("name", ["alexnet", "vgg16", "resnet152", "googlenet"])
    def test_zoo_heads_bitwise_parity(self, name):
        """MACs and weight bytes match the pre-rebase formulas exactly."""
        g = get_model(name)
        elem = 1  # int8
        checked = 0
        for node in g.weighted_layers():
            layer = g.layer(node)
            if not isinstance(layer, FullyConnected):
                continue
            (inp,) = g.input_shapes(node)
            # Pre-rebase FullyConnected: macs = volume * out_features,
            # weight_shape = (out_features, volume, 1, 1).
            assert layer.macs(g.input_shapes(node)) == inp.volume * layer.out_features
            assert layer.weight_shape == WeightShape(
                layer.out_features, inp.volume, 1, 1
            )
            assert layer.weight_shape.bytes(elem) == inp.volume * layer.out_features
            checked += 1
        assert checked >= 1


class TestSerialization:
    def test_conv_graphs_keep_format_v1(self):
        g = get_model("resnet50")
        assert graph_format_version(g) == GRAPH_FORMAT_VERSION == 1
        assert graph_to_dict(g)["format"] == 1

    def test_transformer_graphs_get_format_v2(self):
        g = get_model("bert_base")
        assert graph_format_version(g) == GRAPH_FORMAT_VERSION_V2 == 2
        assert graph_to_dict(g)["format"] == 2

    @pytest.mark.parametrize("name", ["bert_base", "vit_b16"])
    def test_roundtrip(self, name):
        g = get_model(name)
        restored = graph_from_dict(graph_to_dict(g))
        assert graph_to_dict(restored) == graph_to_dict(g)
        assert graph_fingerprint(restored) == graph_fingerprint(g)

    def test_roundtrip_preserves_op_classes(self):
        g = _seq_graph(
            64,
            16,
            [
                lambda p: Attention(name="a", inputs=(p,), num_heads=4),
                lambda p: EltwiseAdd(name="e", inputs=("in", p)),
                lambda p: LayerNorm(name="n", inputs=(p,)),
                lambda p: Gemm(name="g", inputs=(p,), out_features=128),
            ],
        )
        restored = graph_from_dict(graph_to_dict(g))
        assert isinstance(restored.layer("a"), Attention)
        assert restored.layer("a").num_heads == 4
        assert isinstance(restored.layer("n"), LayerNorm)
        assert isinstance(restored.layer("g"), Gemm)
        assert not isinstance(restored.layer("g"), FullyConnected)


#: Graph fingerprint per conv-family model, captured at the commit
#: *before* the op-generic IR refactor.  Conv graphs still serialize
#: under format version 1, so their canonical JSON — and with it the
#: graph component of every cache key — must never move.
_PRE_REFACTOR_KEYS = {
    "alexnet": "d7a4ecd64ecffecf266fc3f2d0220b93d6ba25a7eb53023a7960b9acddc71f19",
    "googlenet": "e8286956e4519e9689e24b7b847367ff86b8611e3deb4df3b0571f64f671134f",
    "resnet50": "86feee4cb07fed27f6d60a5a4eff2404756f0e6f6f4954ba6afe412a1fc4056d",
    "mobilenet_v1": "a590478949eab3180fb98203346ae5d53c8d468479328766aaa1f192e5c84c48",
    "vgg16": "b377ca7106103496b2baeebf6b67369fe53f1442889b2a6f4d3a7cfeac41403c",
}


class TestCacheKeyStability:
    """One schema for every key; conv graph fingerprints never move."""

    def test_schema_bumped(self):
        assert CACHE_SCHEMA_VERSION == 7

    def test_component_fingerprints_stable(self):
        accel = default_accelerator()
        assert accel_fingerprint(accel) == (
            "b20972bfa25ae6fdbfbab571f1fb6de83033fc773dff791f1ca2674fc888eefa"
        )
        assert options_fingerprint(None) == (
            "213321f6407d5c210349dc48206377dc12530736bd67bb3cd1be5f1808b3cfb5"
        )

    @pytest.mark.parametrize("name", sorted(_PRE_REFACTOR_KEYS))
    def test_conv_graph_keys_unchanged(self, name):
        assert graph_fingerprint(get_model(name)) == _PRE_REFACTOR_KEYS[name]

    def test_transformer_keys_use_bumped_schema(self):
        """Conv and new-op graphs alike hash under the one current schema."""
        from repro.fingerprint import _digest

        accel = default_accelerator()
        for name in ("bert_base", "resnet50"):
            graph = get_model(name)
            expected = _digest(
                {
                    "schema": CACHE_SCHEMA_VERSION,
                    "kind": "compile",
                    "graph": graph_fingerprint(graph),
                    "accel": accel_fingerprint(accel),
                    "options": options_fingerprint(None),
                }
            )
            assert compile_key(graph, accel, None) == expected
