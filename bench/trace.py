"""Traced runs: Chrome traces, per-span self time and the attribution check.

A traced run records the benchmark's own ``bench.<layer>`` spans around
every call into the program; the program's existing spans (passes, DSE
chunks) nest beneath them.  The check here asks that the ``bench.*``
spans cover at least :data:`MIN_COVERAGE` of the traced wall time, so
the per-layer numbers explain the whole run rather than a part of it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

__all__ = ["MIN_COVERAGE", "coverage", "self_times", "write_trace"]

#: Share of the traced wall time the ``bench.*`` spans must cover.
MIN_COVERAGE = 0.90


def _union_seconds(intervals: Iterable[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def coverage(records: Sequence, wall_s: float) -> float:
    """Share of ``[0, wall_s]`` covered by root ``bench.*`` spans of this process.

    Spans from several threads may overlap; their union is what counts.
    """
    if wall_s <= 0:
        return 0.0
    intervals = [
        (max(0.0, r.start), min(wall_s, r.start + r.duration))
        for r in records
        if r.parent_id is None and r.process == "main" and r.name.startswith("bench.")
    ]
    return _union_seconds(i for i in intervals if i[1] > i[0]) / wall_s


def self_times(records: Sequence) -> dict[str, dict]:
    """Per span name: count, total and self milliseconds.

    Self time is a span's duration minus the part of it its children
    cover.  Spans merged from worker processes keep their own clocks, so
    children are matched by id within one process only.
    """
    children: dict[tuple[str, int], list] = {}
    for r in records:
        if r.parent_id is not None:
            children.setdefault((r.process, r.parent_id), []).append(r)
    out: dict[str, dict] = {}
    for r in records:
        lo, hi = r.start, r.start + r.duration
        kids = children.get((r.process, r.span_id), [])
        covered = _union_seconds(
            (max(lo, k.start), min(hi, k.start + k.duration))
            for k in kids
            if min(hi, k.start + k.duration) > max(lo, k.start)
        )
        row = out.setdefault(r.name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["count"] += 1
        row["total_ms"] += r.duration * 1e3
        row["self_ms"] += (r.duration - covered) * 1e3
    return dict(sorted(out.items(), key=lambda item: -item[1]["self_ms"]))


def write_trace(trace_dir: Path, workload: str, outcome) -> dict:
    """Write ``<workload>.trace.json`` and merge this workload into ``layers.json``.

    Returns the workload's ``layers.json`` entry.
    """
    from repro.obs import write_chrome_trace

    trace_dir.mkdir(parents=True, exist_ok=True)
    records = outcome.tracer.records
    write_chrome_trace(str(trace_dir / f"{workload}.trace.json"), outcome.tracer)
    covered = coverage(records, outcome.traced_s)
    entry = {
        "traced_s": outcome.traced_s,
        "coverage": covered,
        "unattributed_frac": 1.0 - covered,
        "spans": self_times(records),
        "metrics": outcome.layers,
    }
    path = trace_dir / "layers.json"
    try:
        merged = json.loads(path.read_text())
    except (OSError, ValueError):
        merged = {}
    merged[workload] = entry
    path.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
    return entry
