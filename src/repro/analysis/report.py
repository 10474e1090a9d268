"""Experiment tables as ``(headers, rows)``, rendered as text or markdown.

Each ``*_table`` function builds one experiment's cells once, for both
renderers: ``lcmm table1`` prints ``format_table(*table1_table(rows))``
and the live report writes ``format_markdown_table`` of the same.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def _stringify(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned plain-text table.

    Args:
        headers: Column titles.
        rows: Row tuples; floats are rendered with three decimals.
    """
    str_rows = [[_stringify(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row width {len(row)} does not match header width {len(headers)}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_markdown_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Render a GitHub-flavoured markdown table."""
    str_rows = [[_stringify(v) for v in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row width {len(row)} does not match header width {len(headers)}"
            )
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in str_rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


Table = tuple[tuple[str, ...], list[tuple[object, ...]]]


def table1_table(rows) -> Table:
    """Table 1 (UMM vs LCMM) from :func:`run_table1` rows."""
    headers = (
        "Benchmark", "Prec", "Design", "Latency(ms)", "Tops", "MHz", "DSP", "SRAM",
        "Speedup",
    )
    return headers, [
        (
            r.benchmark,
            r.precision,
            r.design,
            f"{r.latency_ms:.3f}",
            f"{r.tops:.3f}",
            int(r.frequency_mhz),
            f"{r.dsp_utilization:.0%}",
            f"{r.sram_utilization:.0%}",
            f"{r.speedup:.2f}",
        )
        for r in rows
    ]


def table2_table(rows) -> Table:
    """Table 2 (on-chip memory utilisation) from :func:`run_table2` rows."""
    return ("Benchmark", "Prec", "Design", "BRAM", "URAM", "POL"), [
        (
            r.benchmark,
            r.precision,
            r.design,
            f"{r.bram_utilization:.0%}",
            f"{r.uram_utilization:.0%}",
            f"{r.percentage_onchip_layers:.0%}",
        )
        for r in rows
    ]


def table3_table(rows) -> Table:
    """Table 3 (state-of-the-art comparison) from :func:`run_table3` rows."""
    return ("Design", "Model", "MHz", "Tops", "Latency(ms)", "Source"), [
        (
            r.design,
            r.dnn_model,
            int(r.frequency_mhz),
            f"{r.throughput_tops:.3f}",
            f"{r.latency_ms:.2f}",
            "published" if r.published else "measured",
        )
        for r in rows
    ]


def fig8_table(series) -> Table:
    """Fig. 8 (per-block Tops) from :func:`run_fig8` series."""
    return ("Design",) + tuple(series[0].blocks), [
        (s.label,) + tuple(f"{v:.2f}" for v in s.tops) for s in series
    ]
