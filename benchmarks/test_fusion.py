"""Bench: fusion ablation — fused+scheduled vs plain LCMM vs UMM.

Runs :func:`repro.analysis.experiments.run_fusion_ablation` over the
model zoo (a three-model subset under ``BENCH_SMOKE=1``) on the
bandwidth-constrained ablation design and writes the per-model table to
``BENCH_fusion.json`` at the repo root (under ``.bench_out/smoke/`` for
a smoke run).

Two guarantees are asserted here, not just measured:

* monotonicity — on every model the fused pipeline never loses to plain
  LCMM and fused+scheduled never loses to fused (Eq.-1 objective, exact
  comparison; both passes are accept-if-improves so a tie means the
  pass found nothing and changed nothing);
* the constrained design is actually transfer-bound enough to exercise
  the passes — at least one model must show a strict improvement.
"""

from __future__ import annotations

from repro.analysis.experiments import run_fusion_ablation
from repro.models.zoo import list_models

from conftest import SMOKE, write_bench

_MODELS = ("resnet50", "googlenet", "squeezenet") if SMOKE else tuple(list_models())


def test_fusion_ablation():
    rows = run_fusion_ablation(models=_MODELS)
    assert [r.model_name for r in rows] == list(_MODELS)

    for row in rows:
        # Exact comparisons: accept-if-improves means a pass either
        # strictly improves the objective or leaves it bit-identical.
        # (No plain-vs-UMM assertion: the UMM column runs on its own
        # design point with a higher achieved clock — Tab. 1's pairing —
        # so a compute-bound model can legitimately favour it.)
        assert row.fused_ms <= row.plain_ms
        assert row.fused_sched_ms <= row.fused_ms
        assert (row.fused_edges > 0) or (row.fused_ms == row.plain_ms)

    assert any(r.improvement > 0.0 for r in rows), (
        "the ablation design is no longer transfer-bound: fusion and "
        "scheduling improved nothing anywhere"
    )

    payload = {
        "design": "reference resnet152/int8 LCMM @ 0.5x DDR efficiency, "
        "tile buffers + 2 MiB tensor budget",
        "models": {
            r.model_name: {
                "umm_ms": r.umm_ms,
                "plain_ms": r.plain_ms,
                "fused_ms": r.fused_ms,
                "fused_sched_ms": r.fused_sched_ms,
                "fused_edges": r.fused_edges,
                "shortcut_edges": r.shortcut_edges,
                "bytes_saved": r.bytes_saved,
                "improvement_vs_plain": r.improvement,
            }
            for r in rows
        },
        "best_improvement": max(r.improvement for r in rows),
        "smoke": SMOKE,
    }
    write_bench("BENCH_fusion.json", payload, sort_keys=True)

    print("\nfusion ablation (constrained design):")
    for r in rows:
        print(
            f"  {r.model_name:>14}: umm {r.umm_ms:8.3f}  plain {r.plain_ms:8.3f}  "
            f"fused {r.fused_ms:8.3f}  +sched {r.fused_sched_ms:8.3f} ms  "
            f"({r.fused_edges} edges, {r.improvement:6.2%})"
        )
