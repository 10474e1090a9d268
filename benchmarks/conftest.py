"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper, records the
reproduced numbers in ``benchmark.extra_info`` (visible in the JSON
output of ``pytest-benchmark``) and prints a human-readable rendition, so
``pytest benchmarks/ --benchmark-only -s`` shows the reproduced artifact
next to its generation time.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: ``BENCH_SMOKE=1`` cuts repeats and model sets for CI smoke runs.
SMOKE = bool(os.environ.get("BENCH_SMOKE"))


def bench_path(name: str) -> Path:
    """Where a benchmark's ``BENCH_*.json`` result lives.

    A full run owns the committed file at the repo root.  A smoke run's
    numbers are not evidence, so they go to the gitignored
    ``.bench_out/smoke/`` instead of overwriting it.
    """
    if not SMOKE:
        return ROOT / name
    out = ROOT / ".bench_out" / "smoke"
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def write_bench(name: str, payload: dict, sort_keys: bool = False) -> Path:
    """Write one benchmark's result as indented JSON; returns the path."""
    path = bench_path(name)
    path.write_text(json.dumps(payload, indent=2, sort_keys=sort_keys) + "\n")
    return path


def attach(benchmark, **info) -> None:
    """Record reproduced results on the benchmark fixture."""
    for key, value in info.items():
        benchmark.extra_info[key] = value
