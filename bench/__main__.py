"""``python -m bench``: run, trace and compare the seeded benchmark.

Run from the root of a checkout::

    python -m bench --seed 0                      # all workloads, one subprocess each
    python -m bench --workload compile-zoo --seed 3 --seconds 20 --trace 0
    python -m bench --seed 0 --trace-dir .bench_out/trace   # traced runs
    python -m bench --compare PARENT.json CHANGE.json[,CHANGE2.json...]

A single-workload run prints its metrics by name, unit, median,
quartiles and sample count, its headline numbers under the names users
know them by (lines starting with ``=``), then, as the last line of
standard output, one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.
With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
measured with tracing on.  It exits 1 when any correctness check
failed, and 2, printing no result, when the checkout holds no program
to measure.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from contextlib import nullcontext
from datetime import datetime, timezone
from pathlib import Path

from bench import stats
from bench.common import (
    OUT_DIR,
    ROOT,
    SPEC_PATH,
    CheckoutIncomplete,
    cpu_kept_awake,
    peak_rss_mb,
    pin_to_one_cpu,
    require_program,
)

WORKLOADS = {
    "compile-zoo": "bench.workloads.compile_zoo",
    "dse-space": "bench.workloads.dse_space",
    "serve-mixed": "bench.workloads.serve_mixed",
    "batch-cli": "bench.workloads.batch_cli",
}


def _load_spec() -> dict:
    try:
        return json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as exc:
        raise CheckoutIncomplete(f"cannot read {SPEC_PATH}: {exc}") from None


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def manifest(seed: int, seconds: float, traced: bool) -> dict:
    """The host and code a result was measured on."""
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha,
        "git_dirty": bool(status) if status is not None else None,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "started": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run_workload(args: argparse.Namespace, spec: dict) -> int:
    """One workload in this process; prints the result line last."""
    traced = bool(args.trace)
    module = importlib.import_module(WORKLOADS[args.workload])
    # On SIGTERM unwind, so every server, pool and helper process is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    cpu = pin_to_one_cpu()
    start = time.perf_counter()
    with cpu_kept_awake() if cpu is not None else nullcontext():
        outcome = module.run(args.seed, args.seconds, traced)
    outcome.info["cpu"] = cpu
    outcome.e2e["peak_rss_mb"] = peak_rss_mb()
    wall = time.perf_counter() - start
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    entry_extra: dict = {}
    if traced:
        from bench.trace import MIN_COVERAGE, write_trace

        trace_dir = Path(args.trace_dir) if args.trace_dir else OUT_DIR / "trace"
        entry = write_trace(trace_dir, args.workload, outcome)
        outcome.layers["bench.unattributed_frac"] = entry["unattributed_frac"]
        if entry["coverage"] < MIN_COVERAGE:
            outcome.tally.fail(
                f"bench.* spans cover {entry['coverage']:.1%} of the traced "
                f"{outcome.traced_s:.1f} s (< {MIN_COVERAGE:.0%})"
            )
        entry_extra["trace_dir"] = str(trace_dir)
        names = [m["name"] for m in spec["per_layer"]]
        values = {name: float(outcome.layers.get(name, 0.0)) for name in names}
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        missing = [name for name in names if name not in outcome.e2e]
        if missing:
            raise RuntimeError(f"{args.workload} produced no {', '.join(missing)}")
        values = {name: float(outcome.e2e[name]) for name in names}

    tally = outcome.tally
    correct = tally.failed == 0 and tally.attempted > 0
    print(f"{args.workload} (seed {args.seed}, {wall:.1f} s, tracing {'on' if traced else 'off'})")
    for name, value in values.items():
        line = f"  {name:40s} {_fmt(value):>12s} {units[name]}"
        samples = outcome.samples.get(name)
        if samples and not traced:
            s = stats.summarize(samples)
            line += (
                f"   median {_fmt(s['median'])} IQR [{_fmt(s['q1'])}, {_fmt(s['q3'])}]"
                f" {stats.tail_name(s['tail_p'])} {_fmt(s['tail'])} n={s['n']}"
            )
        print(line)
    if not traced:
        for name, (value, unit) in outcome.named.items():
            print(f"  = {name:38s} {_fmt(value):>12s} {unit}")
    failed_frac = tally.failed / max(1, tally.attempted)
    print(f"  = {'failed_frac':38s} {_fmt(failed_frac):>12s} ({tally.failed} of {tally.attempted} ops)")
    for problem in tally.problems:
        print(f"  FAILED: {problem}")

    if args.out:
        record = {
            "manifest": manifest(args.seed, args.seconds, traced),
            "workloads": {
                args.workload: {
                    "correct": correct,
                    "attempted": tally.attempted,
                    "failed": tally.failed,
                    "failed_frac": failed_frac,
                    "problems": tally.problems,
                    "metrics": values,
                    "named": {name: value for name, (value, _) in outcome.named.items()},
                    "summary": {
                        name: stats.summarize(samples)
                        for name, samples in outcome.samples.items()
                    },
                    "layers": outcome.layers,
                    "info": outcome.info,
                    "wall_s": wall,
                    **entry_extra,
                }
            },
        }
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Every workload in its own subprocess; one combined result file."""
    traced = args.trace_dir is not None
    out = Path(args.out) if args.out else OUT_DIR / f"result-seed{args.seed}.json"
    combined = {"manifest": manifest(args.seed, args.seconds, traced), "workloads": {}}
    status = 0
    for workload in WORKLOADS:
        part = OUT_DIR / "tmp" / f"{workload}-seed{args.seed}.json"
        argv = [
            sys.executable, "-m", "bench",
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", "1" if traced else "0",
            "--out", str(part),
        ]
        if traced:
            argv += ["--trace-dir", args.trace_dir]
        proc = subprocess.run(argv, cwd=ROOT)
        if proc.returncode != 0:
            status = 1
        if part.is_file():
            combined["workloads"].update(json.loads(part.read_text())["workloads"])
            part.unlink()
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(combined, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return status


def run_compare(args: argparse.Namespace, spec: dict) -> int:
    from bench.compare import compare, format_rows

    parent, change = (side.split(",") for side in args.compare)
    rows, any_worse = compare(parent, change, spec)
    print(format_rows(rows))
    return 1 if any_worse else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0, help="fixes job order, DSE samples and key ranks")
    parser.add_argument("--seconds", type=float, default=None, help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics with tracing on")
    parser.add_argument("--trace-dir", default=None, help="where traced runs write Chrome traces and layers.json")
    parser.add_argument("--out", default=None, help="also write the full result record to this file")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"), help="result files, comma-separated per side")
    args = parser.parse_args(argv)
    try:
        spec = _load_spec()
        if args.compare:
            return run_compare(args, spec)
        require_program()
    except CheckoutIncomplete as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload:
        return run_workload(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
