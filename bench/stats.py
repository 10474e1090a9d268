"""Order statistics the benchmark reports.

Every timing is summarised by its median and quartiles, never by the
minimum of N repeats: the minimum hides the spread a regression check
needs.  Quartiles follow :func:`statistics.quantiles` with its default
(exclusive) method, so the spreads printed here match what a reader
recomputes from the raw values with the standard library.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

__all__ = [
    "TAIL_PERCENTILES",
    "geomean",
    "iqr_frac",
    "median",
    "percentile",
    "quartiles",
    "summarize",
    "tail",
    "tail_name",
    "tail_percentile",
]

#: Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _checked(values: Sequence[float]) -> list[float]:
    if not values:
        raise ValueError("no samples")
    return [float(v) for v in values]


def median(values: Sequence[float]) -> float:
    """The median of a non-empty sample."""
    return statistics.median(_checked(values))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    data = _checked(values)
    if len(data) == 1:
        return data[0], data[0], data[0]
    q1, q2, q3 = statistics.quantiles(data, n=4)
    return q1, q2, q3


def iqr_frac(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for one sample)."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(q2)


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0-100), linearly interpolated between ranks."""
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside [0, 100]")
    data = sorted(_checked(values))
    rank = (len(data) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (rank - low)


def tail_percentile(n: int, min_beyond: int = 10) -> float | None:
    """Highest of :data:`TAIL_PERCENTILES` with ``min_beyond`` samples above it.

    ``None`` when even the median has fewer than ``min_beyond`` samples
    beyond it, i.e. the sample supports no tail at all.
    """
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= min_beyond - 1e-9:
            return p
    return None


def tail(values: Sequence[float], min_beyond: int = 10) -> tuple[float | None, float]:
    """``(p, value)`` at the highest percentile the sample supports.

    Falls back to the maximum (``p`` is ``None``) when the sample is too
    small for any percentile to have ``min_beyond`` samples beyond it.
    """
    data = _checked(values)
    p = tail_percentile(len(data), min_beyond)
    if p is None:
        return None, max(data)
    return p, percentile(data, p)


def tail_name(p: float | None) -> str:
    """How a tail from :func:`tail` is labelled: ``p95``, ``p99.9`` or ``max``."""
    return "max" if p is None else f"p{p:g}"


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values (the mean for ratios)."""
    data = _checked(values)
    if any(v <= 0 for v in data):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in data) / len(data))


def summarize(values: Sequence[float]) -> dict:
    """Median, quartiles, highest supported tail and sample count."""
    q1, q2, q3 = quartiles(values)
    p, tail_value = tail(values)
    return {
        "median": q2,
        "q1": q1,
        "q3": q3,
        "tail_p": p,
        "tail": tail_value,
        "n": len(values),
    }
