"""Bench: the transformer zoo end to end — LCMM vs UMM, cold vs warm.

The op-generic IR's acceptance bar, turned into numbers and assertions
written to ``BENCH_transformer.json``:

* for **every** transformer model (BERT-base, ViT-B/16), the full LCMM
  pipeline must beat the UMM floor (asserted), with the per-model
  latencies and reduction percentages recorded;
* a **cold** batch compile of the transformer x config matrix through a
  fresh cache followed by a **warm** identical pass must be served
  entirely from the cache (asserted), timing both — the cache round-trip
  extended to the new workload family;
* warm fingerprints must verify against the checked-in golden files
  (asserted), tying the benchmark to the regression suite.

Weight-dominated graphs exercise the allocator differently from CNNs
(see :mod:`repro.models.transformer`), so this file is the canary for
regressions that CNN-only benchmarks cannot see.
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

from repro.analysis.experiments import reference_design
from repro.cache import STANDARD_CONFIGS, batch_compile
from repro.hw.precision import INT8
from repro.lcmm.framework import LCMMOptions, run_lcmm, umm_only_result
from repro.models.zoo import get_model
from repro.perf.latency import LatencyModel

from conftest import write_bench

_TRANSFORMERS = ("bert_base", "vit_b16")
_GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"


def _lcmm_vs_umm() -> dict[str, dict]:
    per_model: dict[str, dict] = {}
    for name in _TRANSFORMERS:
        graph = get_model(name)
        accel = reference_design("resnet152", INT8, "lcmm")
        model = LatencyModel(graph, accel)
        umm = umm_only_result(graph, accel, model=model)
        lcmm = run_lcmm(graph, accel, options=LCMMOptions(), model=model)
        assert lcmm.latency < umm.latency, (
            f"{name}: LCMM ({lcmm.latency * 1e3:.3f} ms) must beat "
            f"UMM ({umm.latency * 1e3:.3f} ms)"
        )
        per_model[name] = {
            "nodes": len(graph.layers()),
            "umm_latency_ms": round(umm.latency * 1e3, 6),
            "lcmm_latency_ms": round(lcmm.latency * 1e3, 6),
            "reduction_pct": round((1 - lcmm.latency / umm.latency) * 100, 2),
            "speedup": round(umm.latency / lcmm.latency, 4),
            "onchip_tensors": len(lcmm.onchip_tensors),
            "degradation_level": lcmm.degradation_level,
        }
    return per_model


def test_transformer_lcmm_beats_umm():
    per_model = _lcmm_vs_umm()

    configs = list(STANDARD_CONFIGS)
    with tempfile.TemporaryDirectory(prefix="lcmm-bench-tfm-") as cache_dir:
        start = time.perf_counter()
        cold = batch_compile(
            models=list(_TRANSFORMERS), configs=configs, cache_dir=cache_dir
        )
        cold_seconds = time.perf_counter() - start

        start = time.perf_counter()
        warm = batch_compile(
            models=list(_TRANSFORMERS), configs=configs, cache_dir=cache_dir
        )
        warm_seconds = time.perf_counter() - start

    assert cold.misses == len(_TRANSFORMERS) * len(configs)
    assert warm.all_hits, (
        f"warm pass missed the cache on {warm.misses} of {len(warm.outcomes)} jobs"
    )
    warm_problems = warm.verify_golden(_GOLDEN_DIR)
    assert warm_problems == [], "\n".join(warm_problems)

    report = {
        "models": per_model,
        "batch_compile": {
            "configs": configs,
            "jobs": len(cold.outcomes),
            "cold_seconds": round(cold_seconds, 4),
            "warm_seconds": round(warm_seconds, 4),
            "speedup": round(cold_seconds / warm_seconds, 2),
            "golden_verified": True,
        },
    }
    write_bench("BENCH_transformer.json", report)

    print("\nTransformer zoo — LCMM vs UMM (reproduced)")
    for name, row in per_model.items():
        print(
            f"  {name:10s}  UMM {row['umm_latency_ms']:9.3f} ms -> "
            f"LCMM {row['lcmm_latency_ms']:9.3f} ms  "
            f"(-{row['reduction_pct']:.1f}%, deg {row['degradation_level']})"
        )
    print(
        f"  batch-compile: cold {cold_seconds:.2f}s, warm {warm_seconds:.3f}s"
    )
