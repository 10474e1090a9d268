"""Bench: regenerate Table 2 — on-chip memory utilisation and POL.

Paper's claims this reproduces: LCMM has far higher on-chip memory
utilisation than UMM (tensor buffers in URAM on top of tile buffers), and
a high percentage of memory-bound layers benefit (POL 61-94%).
"""

from repro.analysis.experiments import run_table2
from repro.analysis.report import format_table, table2_table

from conftest import attach


def test_table2(benchmark):
    rows = benchmark(run_table2)

    print("\nTable 2 — on-chip memory utilisation (reproduced)")
    print(format_table(*table2_table(rows)))

    attach(
        benchmark,
        pol={
            f"{r.benchmark}/{r.precision}": round(r.percentage_onchip_layers, 3)
            for r in rows
            if r.design == "LCMM"
        },
    )

    by_key = {}
    for r in rows:
        by_key.setdefault((r.benchmark, r.precision), {})[r.design] = r
    for pair in by_key.values():
        assert pair["LCMM"].uram_utilization > pair["UMM"].uram_utilization
        assert pair["LCMM"].percentage_onchip_layers >= 0.6
