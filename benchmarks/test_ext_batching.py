"""Extension bench: steady-state batched throughput.

Not a paper table — quantifies Sec. 3.2's remark that resident weights
"could be reused for multiple instances of inference": after the first
image pays the unhidden prefetch residuals, persistent weight buffers
stop costing anything and throughput settles at the steady-state rate.
"""

import pytest

from repro.analysis.experiments import BENCHMARKS, reference_design, run_comparison
from repro.analysis.report import format_table
from repro.hw.precision import INT16
from repro.perf.batching import batched_latency

from conftest import attach

BATCH = 32


def run_all():
    rows = []
    for model_name in BENCHMARKS:
        cmp = run_comparison(model_name, INT16)
        lcmm_batch = batched_latency(cmp.lcmm_model, cmp.lcmm, BATCH)
        umm_batch = batched_latency(cmp.umm_model, cmp.umm, BATCH)
        rows.append((model_name, lcmm_batch, umm_batch))
    return rows


def test_batched_throughput(benchmark):
    rows = benchmark(run_all)

    print(f"\nSteady-state throughput over a batch of {BATCH} images (16-bit)")
    print(
        format_table(
            ("Model", "first (ms)", "steady (ms)", "img/s", "UMM img/s", "speedup"),
            [
                (
                    name,
                    f"{l.first_image_latency * 1e3:.3f}",
                    f"{l.steady_image_latency * 1e3:.3f}",
                    f"{l.images_per_second:.1f}",
                    f"{u.images_per_second:.1f}",
                    f"{u.steady_image_latency / l.steady_image_latency:.2f}",
                )
                for name, l, u in rows
            ],
        )
    )

    attach(
        benchmark,
        steady_speedups={
            name: round(u.steady_image_latency / l.steady_image_latency, 3)
            for name, l, u in rows
        },
    )

    for name, lcmm_batch, umm_batch in rows:
        assert lcmm_batch.steady_image_latency <= lcmm_batch.first_image_latency + 1e-15
        assert lcmm_batch.total_latency < umm_batch.total_latency
