"""Bench: multi-die pipeline scaling — throughput vs device count.

Sweeps the layer-pipelined partitioner (:mod:`repro.perf.partition`)
over devices in {1, 2, 4, 8} on the CNN + transformer zoo (resnet152
and bert_base under ``BENCH_SMOKE=1``) with the default 12.5 GB/s
inter-die link, and writes the per-model scaling table to
``BENCH_pipeline.json`` at the repo root (under ``.bench_out/smoke/``
for a smoke run).

Three guarantees are asserted here, not just measured:

* monotonicity — steady-state throughput never *drops* when dies are
  added (accept-if-improves degrades any losing partition back to the
  single-die design, so the curve is non-decreasing by construction);
* the single-die column is bit-identical to the plain LCMM flow — its
  allocation fingerprint must match the checked-in golden "splitting"
  record, proving partitioning leaves the non-partitioned path alone;
* on at least one model the 4-die chain shows a real (>1.5x) speedup —
  the link model is not so pessimistic that pipelining never pays.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.experiments import BENCHMARKS, reference_design
from repro.fingerprint import fingerprint
from repro.hw.precision import precision_by_name
from repro.models.zoo import get_model
from repro.perf.partition import InterDieLink, design_partition

from conftest import SMOKE, write_bench

_GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"

_MODELS = (
    ("resnet152", "bert_base")
    if SMOKE
    else ("resnet50", "resnet152", "vit_b16", "bert_base")
)
_DEVICES = (1, 2, 4, 8)
_LINK = InterDieLink(gbps=12.5)


def test_pipeline_scaling():
    table: dict[str, dict] = {}
    for name in _MODELS:
        graph = get_model(name)
        design_key = name if name in BENCHMARKS else "resnet152"
        accel = reference_design(design_key, precision_by_name("int8"), "lcmm")
        points = {}
        for devices in _DEVICES:
            result = design_partition(graph, accel, devices, link=_LINK)
            points[devices] = result
        table[name] = points

    for name, points in table.items():
        # Single die is the plain LCMM compilation, bit for bit: the
        # golden "splitting" fingerprint (default LCMMOptions) must match.
        single = points[1]
        assert single.num_devices == 1 and single.fell_back is None
        golden = json.loads((_GOLDEN_DIR / f"{name}.json").read_text())
        assert fingerprint(single.stages[0].lcmm) == golden["splitting"], (
            f"{name}: single-die partition diverged from the plain flow"
        )

        # Monotone scaling: adding dies never loses throughput.
        rates = [points[d].steady_state_throughput for d in _DEVICES]
        for prev, nxt in zip(rates, rates[1:]):
            assert nxt >= prev * (1 - 1e-12), (
                f"{name}: throughput dropped when adding dies: {rates}"
            )

    assert any(
        points[4].speedup_vs_single > 1.5 for points in table.values()
    ), "no model gains >1.5x from a 4-die chain: the link model is broken"

    payload = {
        "link": {"gbps": _LINK.gbps, "efficiency": _LINK.efficiency},
        "design": "reference per-model int8 LCMM design, one full device per die",
        "models": {
            name: {
                str(d): {
                    "devices_used": r.num_devices,
                    "period_ms": r.period * 1e3,
                    "image_latency_ms": r.image_latency * 1e3,
                    "images_per_second": r.steady_state_throughput,
                    "speedup_vs_single": r.speedup_vs_single if d > 1 else 1.0,
                    "fell_back": r.fell_back,
                    "stage_nodes": [len(s.nodes) for s in r.stages],
                    "cut_mbytes": [b / 2**20 for b in r.cut_bytes],
                    "link_bound_stages": sum(s.link_bound for s in r.stages),
                }
                for d, r in points.items()
            }
            for name, points in table.items()
        },
        "smoke": SMOKE,
    }
    write_bench("BENCH_pipeline.json", payload, sort_keys=True)

    print("\nmulti-die pipeline scaling (12.5 GB/s links):")
    for name, points in table.items():
        row = "  ".join(
            f"{d}d {points[d].steady_state_throughput:7.1f} img/s"
            for d in _DEVICES
        )
        print(f"  {name:>10}: {row}")
