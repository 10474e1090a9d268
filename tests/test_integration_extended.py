"""Extended integration matrix: every zoo model through the full stack.

The original integration tests cover the paper's three benchmarks; this
module runs the complete pipeline (+ validators + simulator) on the rest
of the zoo, including the extension models, at 8- and 16-bit.
"""

import pytest

from repro.analysis.experiments import reference_design
from repro.hw.precision import INT8, INT16
from repro.lcmm.framework import LCMMOptions, run_lcmm
from repro.lcmm.validate import validate_buffers, validate_result
from repro.models import get_model
from repro.perf.latency import LatencyModel
from repro.sim import simulate

EXTENDED_MODELS = (
    "alexnet",
    "vgg16",
    "resnet50",
    "resnet101",
    "densenet121",
    "mobilenet_v1",
    "squeezenet",
)


@pytest.mark.parametrize("model_name", EXTENDED_MODELS)
@pytest.mark.parametrize("precision", (INT8, INT16), ids=lambda p: p.name)
class TestExtendedZoo:
    def test_full_stack(self, model_name, precision):
        graph = get_model(model_name)
        accel = reference_design("resnet152", precision, "lcmm")
        model = LatencyModel(graph, accel)
        lcmm = run_lcmm(graph, accel, model=model)
        validate_result(lcmm, model)
        validate_buffers(lcmm)
        assert lcmm.latency <= model.umm_latency() + 1e-15

        sim = simulate(
            model, lcmm.onchip_tensors, prefetch=lcmm.prefetch_result
        )
        assert sim.makespan == pytest.approx(lcmm.latency, rel=0.25)


class TestOptionMatrix:
    """Every option combination stays valid on one non-trivial model."""

    @pytest.fixture(scope="class")
    def setup(self):
        graph = get_model("squeezenet")
        accel = reference_design("resnet152", INT16, "lcmm")
        return graph, accel, LatencyModel(graph, accel)

    @pytest.mark.parametrize("feature_reuse", (True, False))
    @pytest.mark.parametrize("weight_prefetch", (True, False))
    @pytest.mark.parametrize("splitting", (True, False))
    def test_pass_combinations(self, setup, feature_reuse, weight_prefetch, splitting):
        graph, accel, model = setup
        options = LCMMOptions(
            feature_reuse=feature_reuse,
            weight_prefetch=weight_prefetch,
            splitting=splitting,
        )
        lcmm = run_lcmm(graph, accel, options=options, model=model)
        validate_result(lcmm, model)

    @pytest.mark.parametrize("extra", (
        LCMMOptions(use_greedy=True),
        LCMMOptions(fractional_fill=True),
        LCMMOptions(use_greedy=True, fractional_fill=True),
    ), ids=("greedy", "fill", "greedy+fill"))
    def test_extension_combinations(self, setup, extra):
        graph, accel, model = setup
        lcmm = run_lcmm(graph, accel, options=extra, model=model)
        validate_result(lcmm, model)
