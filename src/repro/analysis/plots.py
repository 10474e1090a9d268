"""Terminal-friendly renderings of the paper's figures.

Pure-text plotting (no matplotlib in the offline environment): a log-x
roofline scatter (Fig. 2(a)), horizontal bar charts (Fig. 8), the on-chip
memory footprint timeline (Fig. 3(c)) and a Gantt view of the simulator's
event stream.  All functions return strings, so they compose with the CLI
and are trivially testable.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.lcmm.framework import LCMMResult
from repro.perf.roofline import RooflineModel, RooflinePoint
from repro.sim import EventKind, Timeline


def roofline_scatter(
    roofline: RooflineModel,
    width: int = 72,
    height: int = 18,
    convs_only: bool = True,
) -> str:
    """ASCII roofline: attainable performance vs operation intensity.

    Memory-bound layers render as ``m``, compute-bound as ``c``, the
    ridge point as a vertical bar.
    """
    points = roofline.points(convs_only=convs_only)
    if not points:
        raise ValueError("no layers to plot")
    ois = [p.operation_intensity for p in points]
    lo, hi = math.log10(min(ois)), math.log10(max(ois))
    if hi <= lo:
        hi = lo + 1.0
    peak = roofline.compute_roof
    grid = [[" "] * width for _ in range(height)]
    for p in points:
        x = int((math.log10(p.operation_intensity) - lo) / (hi - lo) * (width - 1))
        y = int((1.0 - p.attainable_ops / peak) * (height - 1))
        grid[y][x] = "m" if p.memory_bound else "c"
    ridge = roofline.ridge_point()
    if min(ois) <= ridge <= max(ois):
        rx = int((math.log10(ridge) - lo) / (hi - lo) * (width - 1))
        for y in range(height):
            if grid[y][rx] == " ":
                grid[y][rx] = "|"
    header = (
        f"peak {peak / 1e12:.2f} Tops | ridge {ridge:.0f} ops/B | "
        "m=memory bound, c=compute bound"
    )
    return header + "\n" + "\n".join("".join(row) for row in grid)


def bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 40,
    unit: str = "",
) -> str:
    """Horizontal bar chart with right-aligned labels."""
    if len(labels) != len(values):
        raise ValueError("labels and values must have equal length")
    if not values:
        raise ValueError("nothing to plot")
    peak = max(values)
    if peak <= 0:
        raise ValueError("values must contain a positive entry")
    label_width = max(len(l) for l in labels)
    lines = []
    for label, value in zip(labels, values):
        bar = "#" * int(round(value / peak * width))
        lines.append(f"{label:>{label_width}} {value:8.3f}{unit} |{bar}")
    return "\n".join(lines)


def footprint_timeline(result: LCMMResult, max_steps: int | None = None) -> str:
    """On-chip residency per schedule step (the Fig. 3(c) view).

    One row per executed node; one column per physical buffer; ``#``
    marks the buffer holding a live tensor at that step.
    """
    buffers = result.physical_buffers
    if not buffers:
        return "(no on-chip buffers allocated)"
    candidates = {
        c.name: c
        for c in result.feature_result.candidates + result.prefetch_result.candidates
    }
    schedule = list(result.node_latencies)
    if max_steps is not None:
        schedule = schedule[:max_steps]
    name_width = max(len(n) for n in schedule)
    header = " " * (name_width + 1) + " ".join(
        f"{b.name:>6}" for b in buffers
    )
    lines = [header]
    for step, node in enumerate(schedule):
        cells = []
        for pbuf in buffers:
            live = any(
                candidates[t].live_range.start <= step <= candidates[t].live_range.end
                for t in pbuf.tensor_names
                if t in candidates
            )
            cells.append(f"{'#' if live else '.':>6}")
        lines.append(f"{node:>{name_width}} " + " ".join(cells))
    return "\n".join(lines)


def simulation_gantt(
    sim: Timeline,
    width: int = 64,
    max_rows: int = 40,
) -> str:
    """Gantt chart of node execution spans with prefetch/stall markers."""
    if not sim.node_spans:
        raise ValueError("empty simulation")
    total = sim.makespan
    rows = []
    prefetch_spans: dict[str, tuple[float, float]] = {}
    starts: dict[str, float] = {}
    for event in sim.prefetch_events:
        if event.kind is EventKind.PREFETCH_START:
            starts[event.node] = event.time
        elif event.kind is EventKind.PREFETCH_END and event.node in starts:
            prefetch_spans[event.node] = (starts[event.node], event.time)
    name_width = max(len(n) for n in sim.node_spans)
    for node, (start, stop) in list(sim.node_spans.items())[:max_rows]:
        begin = int(start / total * (width - 1))
        end = max(begin + 1, int(stop / total * (width - 1)))
        row = [" "] * width
        for x in range(begin, min(end, width)):
            row[x] = "="
        if node in prefetch_spans:
            p0, p1 = prefetch_spans[node]
            for x in range(int(p0 / total * (width - 1)), int(p1 / total * (width - 1)) + 1):
                if 0 <= x < width and row[x] == " ":
                    row[x] = "~"
        rows.append(f"{node:>{name_width}} |{''.join(row)}|")
    legend = "= execution, ~ weight prefetch in flight"
    return "\n".join(rows) + f"\n{legend}"
