"""Agreement between the latency models over the zoo.

Every compiled allocation (12 models x 5 configurations, int8, on the
fused model where the result fused layers) has three independent
latency estimates besides Eq. 1 (``model.total_latency``): the DDR
timeline under its load-window and bulk + PDG-prefetch policies, and
the tile-granularity oracle.  The bounds below are the stated
calibration contract; ``docs/calibration.md`` records the measured
extremes.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import BENCHMARKS, reference_design
from repro.cache.batch import standard_options
from repro.hw.precision import INT8
from repro.lcmm.framework import run_lcmm
from repro.lcmm.fusion import apply_fusion
from repro.models.zoo import get_model, list_models
from repro.perf.latency import LatencyModel
from repro.sim import simulate

from tests.oracles import network_tile_latency

CONFIGS = ("dnnk", "greedy", "splitting", "fused", "fused_sched")
CASES = [(m, c) for m in list_models() for c in CONFIGS]


@pytest.fixture(scope="module")
def compiled():
    """``(model, result, eq1)`` per case, on the model the compile ran on."""
    cases = {}
    for name in list_models():
        design = name if name in BENCHMARKS else "resnet152"
        accel = reference_design(design, INT8, "lcmm")
        plain = LatencyModel(get_model(name), accel)
        for config in CONFIGS:
            result = run_lcmm(
                plain.graph, accel, model=plain, options=standard_options(config)
            )
            model = plain
            if result.fused_edges:
                model = apply_fusion(plain, result.fused_edges)
            eq1 = model.total_latency(
                result.onchip_tensors, result.residuals, result.fractions
            )
            cases[name, config] = (model, result, eq1)
    return cases


@pytest.mark.parametrize("name, config", CASES)
def test_load_window_never_slower_than_eq1(compiled, name, config):
    model, r, eq1 = compiled[name, config]
    window = simulate(
        model, r.onchip_tensors, r.residuals, r.fractions, overlap_loads=True
    )
    assert window.makespan <= eq1 + 1e-12


@pytest.mark.parametrize("name, config", CASES)
def test_prefetch_contention_within_8_percent_of_eq1(compiled, name, config):
    model, r, eq1 = compiled[name, config]
    bulk = simulate(
        model, r.onchip_tensors, fractions=r.fractions, prefetch=r.prefetch_result
    )
    assert eq1 * (1 - 1e-9) <= bulk.makespan <= 1.08 * eq1


@pytest.mark.parametrize("name, config", CASES)
def test_tile_oracle_within_5_percent_of_eq1(compiled, name, config):
    model, r, _ = compiled[name, config]
    total = model.total_latency(r.onchip_tensors)
    assert total <= network_tile_latency(model, r.onchip_tensors) <= 1.05 * total
