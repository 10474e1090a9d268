"""Unit tests of the benchmark's statistics, verdicts and trace accounting.

Run with ``pytest bench/tests`` from the repository root.
"""

from __future__ import annotations

import math
import statistics
from types import SimpleNamespace

import pytest

from bench import stats
from bench.compare import MIN_PAIRS, verdict
from bench.trace import coverage, self_times


def test_median_and_quartiles_match_the_standard_library():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    assert stats.median(values) == statistics.median(values)
    q1, q2, q3 = stats.quartiles(values)
    assert [q1, q2, q3] == statistics.quantiles(values, n=4)
    assert q2 == stats.median(values)


def test_single_sample_is_its_own_quartiles_and_has_no_spread():
    assert stats.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert stats.iqr_frac([3.0]) == 0.0


def test_iqr_frac_is_relative_to_the_median():
    values = [8.0, 9.0, 10.0, 11.0, 12.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.iqr_frac(values) == pytest.approx((q3 - q1) / q2)


def test_empty_sample_is_rejected():
    with pytest.raises(ValueError):
        stats.median([])


def test_percentile_interpolates_between_ranks():
    values = list(range(1, 102))  # 1..101
    assert stats.percentile(values, 0) == 1
    assert stats.percentile(values, 50) == 51
    assert stats.percentile(values, 95) == pytest.approx(96.0)
    assert stats.percentile(values, 100) == 101
    assert stats.percentile([1.0, 2.0], 50) == 1.5
    with pytest.raises(ValueError):
        stats.percentile(values, 101)


@pytest.mark.parametrize(
    "n, expected",
    [
        (10_000, 99.9),
        (1_000, 99.0),
        (999, 95.0),
        (200, 95.0),
        (199, 90.0),
        (100, 90.0),
        (40, 75.0),
        (20, 50.0),
        (19, None),
    ],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_tail_falls_back_to_the_maximum_for_tiny_samples():
    p, value = stats.tail([1.0, 7.0, 3.0])
    assert p is None and value == 7.0
    assert stats.tail_name(p) == "max"
    p, value = stats.tail(list(range(1000)))
    assert p == 99.0 and value == pytest.approx(stats.percentile(range(1000), 99))
    assert stats.tail_name(p) == "p99"
    assert stats.tail_name(99.9) == "p99.9"


def test_geomean():
    assert stats.geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert stats.geomean([1.3] * 5) == pytest.approx(1.3)
    with pytest.raises(ValueError):
        stats.geomean([1.0, 0.0])


def test_summarize_reports_median_quartiles_tail_and_count():
    summary = stats.summarize([float(v) for v in range(1, 41)])
    assert summary["n"] == 40
    assert summary["median"] == 20.5
    assert summary["tail_p"] == 75.0
    assert summary["q1"] < summary["median"] < summary["q3"]


# -- verdicts -----------------------------------------------------------


def test_same_code_within_noise_is_unchanged():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98]
    change = [1.01, 0.99, 1.00, 1.02, 0.97]
    assert verdict(parent, change, 0.10, "lower") == "unchanged"


def test_a_slowdown_beyond_the_bound_is_worse():
    parent = [1.00, 1.01, 0.99, 1.00]
    assert verdict(parent, [1.20, 1.21, 1.19, 1.20], 0.10, "lower") == "worse"
    # For higher-is-better metrics the same drop in value is the regression.
    assert verdict(parent, [0.80, 0.81, 0.79, 0.80], 0.10, "higher") == "worse"
    assert verdict(parent, [1.20, 1.21, 1.19, 1.20], 0.10, "higher") != "worse"


def test_spread_wider_than_the_bound_is_unresolved():
    parent = [1.0, 1.5, 0.7, 1.3, 0.8]
    change = [1.4, 1.0, 1.9, 1.2, 0.9]
    assert verdict(parent, change, 0.10, "lower") == "unresolved"


def test_wide_spread_but_every_change_run_better_is_not_unresolved():
    parent = [1.0, 1.02, 1.2, 1.21]  # spread ~18%, wider than the 15% bound
    change = [0.99] * 4
    assert stats.iqr_frac(parent) > 0.15
    assert verdict(parent, change, 0.15, "lower") == "unchanged"


def test_improved_needs_enough_pairs_and_a_gap_beyond_the_parent_spread():
    parent = [1.00 + 0.001 * i for i in range(MIN_PAIRS)]
    change = [0.80 + 0.001 * i for i in range(MIN_PAIRS)]
    assert verdict(parent, change, 0.10, "lower") == "improved"
    # The same gain from a handful of runs cannot be claimed.
    assert verdict(parent[:3], change[:3], 0.10, "lower") == "unresolved"


def test_improved_requires_nine_wins_in_ten():
    parent = [1.0] * MIN_PAIRS
    change = [0.8] * (MIN_PAIRS - 2) + [1.2, 1.2]
    assert verdict(parent, change, 0.50, "lower") != "improved"


# -- trace accounting ---------------------------------------------------


def _span(name, span_id, parent_id, start, duration, process="main"):
    return SimpleNamespace(
        name=name, span_id=span_id, parent_id=parent_id,
        start=start, duration=duration, process=process,
    )


def test_coverage_is_the_union_of_root_bench_spans():
    records = [
        _span("bench.serve", 1, None, 0.0, 4.0),
        _span("bench.serve", 2, None, 2.0, 4.0),  # overlaps the first (another thread)
        _span("pass.score", 3, 1, 0.5, 1.0),  # child: already inside its parent
        _span("lcmm.run", 4, None, 8.0, 1.0),  # not a benchmark span
        _span("bench.other", 5, None, 0.0, 10.0, process="dse-worker-1"),
    ]
    assert coverage(records, 10.0) == pytest.approx(0.6)
    assert coverage(records, 0.0) == 0.0


def test_self_time_subtracts_the_children():
    records = [
        _span("bench.lcmm", 1, None, 0.0, 0.010),
        _span("lcmm.run", 2, 1, 0.001, 0.008),
        _span("pass.score", 3, 2, 0.002, 0.003),
        _span("pass.placement", 4, 2, 0.004, 0.002),  # overlaps pass.score by 1 ms
    ]
    rows = self_times(records)
    assert rows["bench.lcmm"]["self_ms"] == pytest.approx(2.0)
    assert rows["lcmm.run"]["self_ms"] == pytest.approx(4.0)
    assert rows["pass.score"]["self_ms"] == pytest.approx(3.0)
    assert rows["bench.lcmm"]["total_ms"] == pytest.approx(10.0)
    assert all(row["count"] == 1 for row in rows.values())
    assert not math.isnan(sum(row["self_ms"] for row in rows.values()))
