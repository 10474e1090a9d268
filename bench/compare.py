"""``python -m bench --compare``: verdicts for a change against its parent.

Each side is one or more result files written by ``python -m bench``
(``--out``).  For every (workload, end-to-end metric) the runs of each
side give a median and quartiles, and the verdict follows the rules the
benchmark was built for:

* **worse**: the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``, and the run-to-run
  spread of both sides is within that bound;
* **unresolved**: the spread of either side (interquartile range over
  median) is wider than the bound, unless every run of the change reads
  better than every run of the parent; also a gain larger than the bound
  backed by fewer than :data:`MIN_PAIRS` pairs;
* **improved**: the change wins at least nine tenths of the pairs (ties
  count for neither), over at least :data:`MIN_PAIRS` pairs, and the
  medians differ by more than the parent's interquartile range;
* **unchanged**: everything else.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from bench import stats

__all__ = ["MIN_PAIRS", "compare", "load_side", "verdict"]

#: Pairs of runs an "improved" verdict needs.
MIN_PAIRS = 10


def _better(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def verdict(
    parent: Sequence[float], change: Sequence[float], bound: float, better: str
) -> str:
    """The verdict for one metric (see the module docstring)."""
    p1, p_med, p3 = stats.quartiles(parent)
    c_med = stats.median(change)
    worse_by = (c_med - p_med) / abs(p_med) if p_med else 0.0
    if better == "higher":
        worse_by = -worse_by
    spread = max(stats.iqr_frac(parent), stats.iqr_frac(change))
    all_better = all(_better(c, p, better) for c in change for p in parent)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if _better(c, p, better))
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= 0.9 * len(pairs)
        and abs(c_med - p_med) > p3 - p1
    ):
        return "improved"
    if spread > bound and not all_better:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > bound:
        return "unresolved"  # a gain beyond the bound, too few pairs to claim
    return "unchanged"


def load_side(paths: Sequence[str]) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> one value per result file, in file order."""
    values: dict[tuple[str, str], list[float]] = {}
    for path in paths:
        record = json.loads(Path(path).read_text())
        for workload, entry in record["workloads"].items():
            for metric, value in entry["metrics"].items():
                values.setdefault((workload, metric), []).append(float(value))
    return values


def compare(parent_paths: Sequence[str], change_paths: Sequence[str], spec: dict) -> tuple[list[dict], bool]:
    """One row per (workload, end-to-end metric) present on both sides.

    Returns the rows and whether any verdict is "worse".
    """
    parent = load_side(parent_paths)
    change = load_side(change_paths)
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in parent or key not in change:
                continue
            p1, pm, p3 = stats.quartiles(parent[key])
            c1, cm, c3 = stats.quartiles(change[key])
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "parent": (pm, p1, p3, len(parent[key])),
                    "change": (cm, c1, c3, len(change[key])),
                    "verdict": verdict(
                        parent[key], change[key], metric["bound"], metric["better"]
                    ),
                }
            )
    return rows, any(row["verdict"] == "worse" for row in rows)


def format_rows(rows: list[dict]) -> str:
    """The comparison as a fixed-width text table."""
    header = ("workload", "metric", "unit", "parent median [q1, q3] n", "change median [q1, q3] n", "verdict")
    lines = [header]
    for row in rows:
        cells = []
        for side in ("parent", "change"):
            med, q1, q3, n = row[side]
            cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={n}")
        lines.append((row["workload"], row["metric"], row["unit"], *cells, row["verdict"]))
    widths = [max(len(str(line[i])) for line in lines) for i in range(len(header))]
    return "\n".join(
        "  ".join(str(cell).ljust(width) for cell, width in zip(line, widths)).rstrip()
        for line in lines
    )
