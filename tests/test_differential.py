"""Differential-testing harness for the fusion-era pass pipeline.

Three independent oracles (:mod:`tests.oracles`) check every randomized
compilation:

* **engine vs naive decisions** — re-running the compile with every
  allocator call on the naive gain evaluator must reproduce the
  engine-backed result bit for bit;
* **naive re-evaluation** — the published latency, per-node latencies
  and prefetch residuals must be reproducible from the result's own
  allocation decisions alone: rebuild the fused model from
  ``fused_edges``, re-run Eq. 1 (and the transfer scheduler when
  enabled) from scratch, compare bit-for-bit;
* **monotonicity** — enabling ``fuse_layers`` / ``transfer_schedule``
  never worsens the Eq.-1 objective (both passes are
  accept-if-improves, so this is an end-to-end check that the gate
  actually gates).

The golden-compatibility class checks that explicitly disabled fusion
flags reproduce the golden files; the cache-key class pins the current
digests so any accidental key change fails loudly.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.experiments import BENCHMARKS, reference_design
from repro.fingerprint import (
    compile_key,
    fingerprint,
    options_fingerprint,
    sweep_key,
)
from repro.hw.precision import INT8
from repro.lcmm.framework import LCMMOptions, run_lcmm
from repro.models.zoo import get_model, list_models
from repro.perf.latency import LatencyModel

from tests.conftest import small_accel
from tests.oracles import naive_allocators, naive_walk
from tests.test_properties import random_dags

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Option combinations exercised by every differential property.  The
#: sram budget keeps the small test design from simply pinning every
#: tensor (which would leave fusion nothing to do).
_BUDGET = 256 * 1024
OPTION_COMBOS = (
    LCMMOptions(sram_budget=_BUDGET),
    LCMMOptions(sram_budget=_BUDGET, splitting=False),
    LCMMOptions(sram_budget=_BUDGET, use_greedy=True, splitting=False),
    LCMMOptions(sram_budget=_BUDGET, fuse_layers=True),
    LCMMOptions(sram_budget=_BUDGET, fuse_layers=True, splitting=False),
    LCMMOptions(sram_budget=_BUDGET, transfer_schedule=True),
    LCMMOptions(
        sram_budget=_BUDGET, fuse_layers=True, transfer_schedule=True
    ),
    LCMMOptions(
        sram_budget=_BUDGET,
        fuse_layers=True,
        transfer_schedule=True,
        fractional_fill=True,
    ),
)


class TestDifferential:
    @given(random_dags(), st.sampled_from(OPTION_COMBOS))
    @settings(max_examples=25, deadline=None)
    def test_engine_matches_naive_bit_for_bit(self, graph, options):
        accel = small_accel(ddr_efficiency=0.25)
        model = LatencyModel(graph, accel)
        engine = run_lcmm(
            graph, accel, options=options, model=model,
            fallback=False,
        )
        with naive_allocators():
            naive = run_lcmm(
                graph, accel, options=options, model=LatencyModel(graph, accel),
                fallback=False,
            )
        assert engine.latency == naive.latency
        assert engine.onchip_tensors == naive.onchip_tensors
        assert engine.residuals == naive.residuals
        assert engine.fractions == naive.fractions
        assert fingerprint(engine) == fingerprint(naive)

    @given(random_dags(), st.sampled_from(OPTION_COMBOS))
    @settings(max_examples=25, deadline=None)
    def test_latency_reproducible_from_decisions(self, graph, options):
        accel = small_accel(ddr_efficiency=0.25)
        model = LatencyModel(graph, accel)
        result = run_lcmm(
            graph, accel, options=options, model=model,
            fallback=False,
        )
        latency, node_latencies, residuals = naive_walk(result, model)
        assert result.latency == latency
        assert result.node_latencies == node_latencies
        assert result.residuals == residuals

    @given(random_dags())
    @settings(max_examples=25, deadline=None)
    def test_fusion_monotone_on_eq1(self, graph):
        accel = small_accel(ddr_efficiency=0.25)
        model = LatencyModel(graph, accel)

        def latency(**flags):
            return run_lcmm(
                graph, accel, model=model, fallback=False,
                options=LCMMOptions(sram_budget=_BUDGET, **flags),
            ).latency

        plain = latency()
        fused = latency(fuse_layers=True)
        sched = latency(fuse_layers=True, transfer_schedule=True)
        assert fused <= plain
        assert sched <= fused


class TestGoldenCompatibility:
    """``fuse_layers`` off reproduces the golden files without
    ``--update-golden`` — explicitly-disabled fusion flags are
    byte-identical to the pre-fusion dataclass."""

    @pytest.mark.parametrize("model_name", list_models())
    def test_fusion_off_matches_golden(self, model_name):
        graph = get_model(model_name)
        design_key = model_name if model_name in BENCHMARKS else "resnet152"
        accel = reference_design(design_key, INT8, "lcmm")
        result = run_lcmm(
            graph, accel,
            options=LCMMOptions(fuse_layers=False, transfer_schedule=False),
        )
        golden = json.loads(
            (GOLDEN_DIR / f"{model_name}.json").read_text()
        )
        assert fingerprint(result) == golden["splitting"]


class TestCacheKeyStability:
    """Pinned schema-7 digests: any change to what a key hashes — a new
    option field, a payload tweak, a schema bump — must show up here as
    a deliberate re-pin, because it turns every warm cache cold."""

    def test_options_fingerprints_stable(self):
        assert options_fingerprint(LCMMOptions()) == (
            "e135b672c38ee4b03de737b957c01a5e1221d6465ae6a128b3b92dcdc38a1a57"
        )
        assert options_fingerprint(None) == (
            "213321f6407d5c210349dc48206377dc12530736bd67bb3cd1be5f1808b3cfb5"
        )
        assert options_fingerprint(LCMMOptions(splitting=False)) == (
            "ea967f579e253d45aa014caf9a5f48e97a6919867b6dc6b1cd2339de62d880d6"
        )
        assert options_fingerprint(
            LCMMOptions(use_greedy=True, splitting=False)
        ) == (
            "1238085b4d5f5c8d024c7f34e55daf095c1427e274be9e3853cd5172b7c62c8a"
        )

    def test_compile_keys_stable(self):
        graph = get_model("squeezenet")
        accel = reference_design("resnet152", INT8, "lcmm")
        assert compile_key(graph, accel, LCMMOptions()) == (
            "bddba2351fecf9f6a0c1efb406e2f2f34f041d1b71296d8730060f8bf34da46c"
        )
        assert compile_key(graph, accel, None) == (
            "390437b9c77f96b2b79c6e5de75b38fa286bfa8e3d30c9d7ea1ab10550582ac1"
        )
        assert sweep_key(graph, accel) == (
            "1a568fa1b9cfbb68f267b8506b3136a5afd6b6065317783139b37c84749e7e31"
        )

    def test_gemm_compile_key_stable(self):
        graph = get_model("bert_base")
        accel = reference_design("resnet152", INT8, "lcmm")
        assert compile_key(graph, accel, LCMMOptions()) == (
            "060772d00c39ce9595f2809a221465390efbfaf9ad98cb6d4ddb7c45f6565e29"
        )

    def test_fusion_options_change_keys(self):
        graph = get_model("squeezenet")
        accel = reference_design("resnet152", INT8, "lcmm")
        plain = compile_key(graph, accel, LCMMOptions())
        fused = compile_key(graph, accel, LCMMOptions(fuse_layers=True))
        sched = compile_key(
            graph, accel,
            LCMMOptions(fuse_layers=True, transfer_schedule=True),
        )
        assert len({plain, fused, sched}) == 3
