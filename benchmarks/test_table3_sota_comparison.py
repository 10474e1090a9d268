"""Bench: regenerate Table 3 — comparison with state-of-the-art designs.

Paper's claims this reproduces: the 16-bit LCMM design beats Cloud-DNN
[3] on ResNet-50 (paper: 1.35x throughput) and TGPA [17] on ResNet-152
(paper: 1.12x throughput), in both throughput and latency-per-image.
"""

from repro.analysis.experiments import run_table3
from repro.analysis.report import format_table, table3_table

from conftest import attach


def test_table3(benchmark):
    rows = benchmark(run_table3)

    print("\nTable 3 — state-of-the-art comparison (published vs reproduced)")
    print(format_table(*table3_table(rows)))

    by_model = {}
    for r in rows:
        by_model.setdefault(r.dnn_model, {})[r.published] = r
    ratios = {
        model: pair[False].throughput_tops / pair[True].throughput_tops
        for model, pair in by_model.items()
    }
    print(f"Throughput ratios vs published: {ratios}")

    attach(benchmark, throughput_ratios={k: round(v, 3) for k, v in ratios.items()})

    for pair in by_model.values():
        assert pair[False].throughput_tops > pair[True].throughput_tops
        assert pair[False].latency_ms < pair[True].latency_ms
