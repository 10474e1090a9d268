"""Bench: regenerate Fig. 8 — GoogLeNet 16-bit per-block analysis.

Paper's claims this reproduces: feature buffer reuse lifts the early
inception blocks (large feature maps, small filters); weight buffer
prefetching removes the weight bottleneck of the late blocks (5a/5b,
where feature maps shrink to 7x7 and weights dominate); their integration
improves every block (Fig. 8(c)).
"""

from repro.analysis.experiments import run_fig8
from repro.analysis.report import fig8_table, format_table

from conftest import attach


def test_fig8(benchmark):
    series = benchmark(run_fig8)
    by_label = {s.label: s for s in series}
    blocks = series[0].blocks

    print("\nFig. 8 — GoogLeNet 16-bit per-block performance in Tops (reproduced)")
    print(format_table(*fig8_table(series)))

    umm = by_label["UMM"].tops
    feat = by_label["LCMM (feature reuse)"].tops
    wt = by_label["LCMM (weight prefetching)"].tops
    full = by_label["LCMM"].tops

    attach(
        benchmark,
        blocks=list(blocks),
        umm=[round(v, 3) for v in umm],
        lcmm=[round(v, 3) for v in full],
    )

    # Fig. 8(a): feature reuse clearly helps the early blocks.
    assert all(feat[i] > umm[i] * 1.1 for i in range(5))
    # Fig. 8(b): prefetching removes the late weight bottleneck.
    assert wt[-1] > umm[-1] * 1.1 and wt[-2] > umm[-2] * 1.1
    # Fig. 8(c): the integration wins everywhere.
    assert all(full[i] >= max(feat[i], wt[i]) - 1e-9 for i in range(len(blocks)))
