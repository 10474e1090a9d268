"""Bench: disabled-tracing overhead of the observability hooks.

The instrumentation contract is that with no tracer active, every
``obs.span()`` call site reduces to one global load returning the shared
no-op span, and every ``obs.annotate()`` to a single dict-load guard —
so a production ``run_lcmm`` pays nothing measurable.  This file turns
that claim into numbers and an assertion, written to ``BENCH_obs.json``:

* results are **bit-for-bit identical** with tracing enabled, disabled,
  and as measured by the golden fingerprints (asserted);
* the analytic overhead bound — measured per-call guard cost times the
  number of instrumentation hits an enabled run actually records, with a
  10x call-count safety margin — must stay under 2 % of the disabled
  ``run_lcmm`` wall time on GoogLeNet;
* measured enabled vs disabled wall times are recorded for the record
  (not asserted: two ~20 ms wall-time samples are noisier than the 2 %
  budget, which is exactly why the bound is computed analytically).

Set ``BENCH_SMOKE=1`` to cut repeats for CI smoke runs; a smoke run
writes under ``.bench_out/smoke/`` instead (``conftest.bench_path``).
"""

from __future__ import annotations

import time

from repro import obs
from repro.analysis.experiments import reference_design
from repro.hw.precision import INT8
from repro.lcmm.framework import run_lcmm
from repro.models import get_model
from repro.perf.latency import LatencyModel

from conftest import SMOKE, write_bench

_REPEATS = 2 if SMOKE else 5
_GUARD_CALLS = 20_000 if SMOKE else 200_000
_OVERHEAD_BUDGET = 0.02
_CALL_COUNT_MARGIN = 10


def _best_of(fn, repeats: int = _REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_disabled_tracing_overhead_under_budget():
    graph = get_model("googlenet")
    accel = reference_design("googlenet", INT8, "lcmm")
    model = LatencyModel(graph, accel)

    obs.disable()
    baseline = run_lcmm(graph, accel, model=model)
    with obs.tracing("main") as tracer:
        traced = run_lcmm(graph, accel, model=model)

    # The hooks must not move the result at all.
    assert traced.latency == baseline.latency
    assert traced.onchip_tensors == baseline.onchip_tensors
    assert traced.sram_usage.used_bytes == baseline.sram_usage.used_bytes

    # Instrumentation hits one enabled run actually makes: recorded
    # spans plus instant annotations.  Disabled, each of those sites is
    # one guard; pad the count 10x for sites that only guard (metrics
    # publication, enabled() checks) without recording anything.
    hits = len(tracer.records) + len(tracer.events) + sum(
        len(record.events) for record in tracer.records
    )
    call_count = hits * _CALL_COUNT_MARGIN

    def guard_loop():
        for _ in range(_GUARD_CALLS):
            obs.span("bench.guard", key=1)

    assert obs.tracer() is None, "guard must be measured with tracing off"
    guard_seconds = _best_of(guard_loop) / _GUARD_CALLS

    disabled_seconds = _best_of(lambda: run_lcmm(graph, accel, model=model))
    with obs.tracing("main"):
        enabled_seconds = _best_of(lambda: run_lcmm(graph, accel, model=model))

    overhead_seconds = guard_seconds * call_count
    overhead_fraction = overhead_seconds / disabled_seconds
    assert overhead_fraction < _OVERHEAD_BUDGET, (
        f"disabled-tracing overhead bound {overhead_fraction:.4%} "
        f"exceeds the {_OVERHEAD_BUDGET:.0%} budget "
        f"({call_count} guarded calls at {guard_seconds * 1e9:.0f} ns)"
    )

    write_bench(
        "BENCH_obs.json",
        {
            "run_lcmm_googlenet": {
                "disabled_seconds": disabled_seconds,
                "enabled_seconds": enabled_seconds,
                "enabled_span_count": len(tracer.records),
                "instrumentation_hits": hits,
                "guard_call_ns": guard_seconds * 1e9,
                "overhead_bound_fraction": overhead_fraction,
                "overhead_budget": _OVERHEAD_BUDGET,
                "call_count_margin": _CALL_COUNT_MARGIN,
            },
        },
    )
    print(
        f"\nobs overhead: guard {guard_seconds * 1e9:.0f} ns/call, "
        f"{hits} hits ({call_count} assumed), "
        f"bound {overhead_fraction:.4%} of {disabled_seconds * 1e3:.2f} ms "
        f"(enabled run: {enabled_seconds * 1e3:.2f} ms)"
    )
