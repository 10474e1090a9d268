"""One-shot markdown report of every reproduced experiment.

``lcmm report`` regenerates a self-contained markdown document — the live
counterpart of EXPERIMENTS.md — by running every table and figure driver
and rendering the results.  Useful for checking a modified model or
device description against the full evaluation in one command.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.experiments import (
    run_fig2a,
    run_fig8,
    run_table1,
    run_table2,
    run_table3,
)
from repro.analysis.metrics import average_speedup
from repro.analysis.report import (
    fig8_table,
    format_markdown_table,
    table1_table,
    table2_table,
    table3_table,
)


def generate_report() -> str:
    """Run every experiment driver and render a markdown report."""
    sections = ["# LCMM reproduction — live experiment report", ""]

    # Table 1.
    rows = run_table1()
    sections.append("## Table 1 — UMM vs LCMM")
    sections.append("")
    sections.append(format_markdown_table(*table1_table(rows)))
    avg = average_speedup([r.speedup for r in rows if r.design == "LCMM"])
    sections.append("")
    sections.append(f"Average speedup: **{avg:.2f}x** (paper: 1.36x)")
    sections.append("")

    # Table 2.
    sections.append("## Table 2 — on-chip memory utilisation")
    sections.append("")
    sections.append(format_markdown_table(*table2_table(run_table2())))
    sections.append("")

    # Table 3.
    sections.append("## Table 3 — state-of-the-art comparison")
    sections.append("")
    sections.append(format_markdown_table(*table3_table(run_table3())))
    sections.append("")

    # Fig. 2(a).
    roofline = run_fig2a()
    bound, total = roofline.memory_bound_count(convs_only=True)
    sections.append("## Fig. 2(a) — Inception-v4 roofline")
    sections.append("")
    sections.append(
        f"Memory-bound conv layers: **{bound}/{total}** ({bound / total:.0%}; "
        f"paper: 82/141 = 58%).  Ridge point: {roofline.ridge_point():.0f} ops/byte."
    )
    sections.append("")

    # Fig. 8.
    sections.append("## Fig. 8 — GoogLeNet 16-bit per-block breakdown (Tops)")
    sections.append("")
    sections.append(format_markdown_table(*fig8_table(run_fig8())))
    sections.append("")
    return "\n".join(sections)


def write_report(path: str | Path) -> Path:
    """Generate the report and write it to ``path``."""
    target = Path(path)
    target.write_text(generate_report())
    return target
