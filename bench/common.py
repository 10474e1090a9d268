"""Paths, processes and bookkeeping shared by every workload.

The benchmark lives beside the program it measures: it imports
``repro`` from ``src/`` of the same checkout, starts CLI subprocesses
with that same ``src/`` on ``PYTHONPATH``, and reads the golden
fingerprints from ``tests/golden``.  Everything it writes goes under
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from bench import stats

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_DIR = ROOT / "tests" / "golden"
OUT_DIR = ROOT / ".bench_out"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: The six standard configurations, in the order ``cache.batch`` lists them.
CONFIGS = ("umm", "dnnk", "greedy", "splitting", "fused", "fused_sched")

#: Configurations pinned in ``{model}.fused.json`` rather than ``{model}.json``.
FUSED_CONFIGS = ("fused", "fused_sched")

#: Fresh-process set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Load generators use at most this many threads or connections.
MAX_CLIENTS = min(2, os.cpu_count() or 1)


class CheckoutIncomplete(RuntimeError):
    """The checkout lacks the program, its golden files or ``BENCHMARK.json``."""


def require_program() -> None:
    """Put ``src/`` on ``sys.path``, or fail when the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise CheckoutIncomplete(f"no program to measure: {SRC / 'repro'} is missing")
    if not (GOLDEN_DIR.is_dir() and any(GOLDEN_DIR.glob("*.json"))):
        raise CheckoutIncomplete(f"no golden fingerprints under {GOLDEN_DIR}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _tmp_root() -> Path:
    base = OUT_DIR / "tmp"
    base.mkdir(parents=True, exist_ok=True)
    return base


def child_env() -> dict:
    """Environment for program subprocesses: this checkout's ``src/``,
    and temporary files under ``.bench_out/tmp``."""
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(_tmp_root()))
    env.pop("PYTHONSTARTUP", None)
    return env


def temp_dir(prefix: str) -> Path:
    """A fresh directory under ``.bench_out/tmp`` (caller removes it)."""
    return Path(tempfile.mkdtemp(prefix=prefix, dir=_tmp_root()))


def dir_bytes(path: Path) -> int:
    """Total size of the regular files under ``path``."""
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


#: Seconds :func:`_calibration_kernel` takes at reference speed (one core
#: of the 2-vCPU VM the benchmark was defined on, idle neighbours).
CALIBRATION_REFERENCE_S = 0.0108


def _calibration_kernel() -> None:
    """Fixed pure-Python work of two kinds, in about equal parts.

    Random dict updates and a keyed sort, which a busy neighbour slows
    more than it slows the program, and an integer recurrence, which it
    slows less.  Over half an hour on a busy shared host, with compiling,
    DSE sweeps, warm serve requests and process start-up timed in turn,
    scaling by the two together erred by at most 3 % in the slowest
    spells (speed below 2/3), where the dict part alone erred by up to
    14 %.
    """
    rng = random.Random(1)
    counts: dict[int, int] = {}
    for i in range(10_000):
        key = rng.randrange(5_000)
        counts[key] = counts.get(key, 0) + i
    sorted(counts.items(), key=lambda kv: (kv[1] % 97, kv[0]))
    x = 1
    for _ in range(50_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF


def host_speed() -> float:
    """How fast this host runs right now; 1.0 is reference speed.

    The median of three kernel runs, so that one run slowed by a cold
    start or a neighbour's burst does not skew the measurements it scales.
    """
    times = []
    with layer("calibrate"):
        for _ in range(3):
            start = time.perf_counter()
            _calibration_kernel()
            times.append(time.perf_counter() - start)
    return CALIBRATION_REFERENCE_S / stats.median(times)


def pin_to_one_cpu() -> int | None:
    """Confine this process, and every process it starts, to one CPU.

    On a shared host each virtual CPU slows down on its own, as
    neighbours come and go on the cores beneath it, so a calibration
    kernel only speaks for the CPU it ran on.  Running the workload and
    the kernel on the same CPU keeps the two in step; worker pools still
    run, time-sliced, so multi-core scaling is not measured.  Returns the
    CPU, or ``None`` where affinity cannot be set.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


#: An idle-priority busy loop that ends when its parent does.
_SPINNER_CODE = (
    "import os\n"
    "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
    "parent = os.getppid()\n"
    "while os.getppid() == parent:\n"
    "    pass\n"
)


@contextmanager
def cpu_kept_awake() -> Iterator[None]:
    """Keep the pinned CPU from going idle while the enclosed region runs.

    A virtual CPU that idles is descheduled by the host, and waking it
    costs a delay that varies with the neighbours.  A busy loop at
    ``SCHED_IDLE`` priority, on the same CPU, fills the idle time and
    yields at once to any other runnable process, so the program gets
    the CPU as before, minus the wake-ups.  Over ten serve-mixed runs of
    one seed it cut the spread of the warm p50 from 9 % to 4 % and of
    the daemon's start-up from 12 % to 3 %.
    """
    spinner = subprocess.Popen([sys.executable, "-c", _SPINNER_CODE])
    try:
        yield
    finally:
        spinner.kill()
        spinner.wait()


class SpeedTrack:
    """Scales measured times to reference speed.

    A shared host's speed drifts by tens of percent over seconds as its
    neighbours come and go.  The calibration kernel runs between
    measurements, never inside one; a time measured between two samples
    is multiplied by their mean speed, so it reads as the time it would
    have taken at reference speed.
    """

    def __init__(self) -> None:
        self.samples = [host_speed()]

    def factor(self) -> float:
        """Sample now; the factor for everything timed since the last sample."""
        self.samples.append(host_speed())
        return (self.samples[-2] + self.samples[-1]) / 2


def python_setup(code: str) -> list[float]:
    """Seconds of :data:`SETUP_REPEATS` fresh ``python -c code`` processes.

    Scaled to reference speed.  Each must exit 0; a failing set-up is a
    broken program, not a slow one.
    """
    samples = []
    track = SpeedTrack()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
        )
        samples.append((time.perf_counter() - start) * track.factor())
        if proc.returncode != 0:
            raise RuntimeError(f"set-up exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return samples


_GOLDEN: dict[str, dict] = {}


def golden(model: str, config: str) -> dict | None:
    """The pinned fingerprint of one int8 (model, configuration) job."""
    stem = f"{model}.fused" if config in FUSED_CONFIGS else model
    if stem not in _GOLDEN:
        path = GOLDEN_DIR / f"{stem}.json"
        _GOLDEN[stem] = json.loads(path.read_text()) if path.is_file() else {}
    return _GOLDEN[stem].get(config)


@dataclass
class Tally:
    """Operations attempted and the correctness checks they failed."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def op(self, ok: bool, problem: str = "") -> None:
        """Count one operation; ``ok`` is whether all its checks held."""
        self.attempted += 1
        if not ok:
            self.fail(problem)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


@dataclass
class Outcome:
    """What one workload run produced.

    Attributes:
        e2e: End-to-end metric name -> value.
        samples: End-to-end metric name -> the samples behind its value,
            for the printed median/IQR/count (absent for single values).
        layers: Per-layer metric name -> value.
        named: The workload's headline numbers under the names users
            know them by (``compile_matrix_s``, ``serve_warm_p50_ms``...)
            -> (value, unit); printed, not part of the result line.
        tally: Operations attempted and failed.
        info: Manifest details (workers, connections, rounds...).
        tracer: The ``repro.obs`` tracer of the traced region, if any.
        traced_s: Wall seconds of the traced region.
    """

    e2e: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    named: dict[str, tuple[float, str]] = field(default_factory=dict)
    tally: Tally = field(default_factory=Tally)
    info: dict = field(default_factory=dict)
    tracer: object = None
    traced_s: float = 0.0

    def timing(self, name: str, samples: list[float]) -> None:
        """Record an end-to-end timing: its samples and their median."""
        self.samples[name] = samples
        self.e2e[name] = stats.median(samples)


@contextmanager
def maybe_tracing(on: bool, outcome: Outcome) -> Iterator[None]:
    """Trace the enclosed region into ``outcome`` when ``on``.

    Uses ``repro.obs.tracing()``, so the program's own pass and DSE-chunk
    spans nest beneath the benchmark's ``bench.*`` spans.
    """
    if not on:
        yield
        return
    from repro.obs import tracing

    with tracing() as tracer:
        start = time.perf_counter()
        try:
            yield
        finally:
            outcome.traced_s = time.perf_counter() - start
            outcome.tracer = tracer


def layer(name: str, **attrs):
    """A ``bench.<name>`` span around a call into one layer of the program.

    The shared no-op span unless tracing is on.
    """
    from repro.obs import span

    return span(f"bench.{name}", **attrs)


def rounds_until(seconds: float, body: Callable[[], float]) -> None:
    """Run whole rounds of ``body`` (which returns its own duration).

    A round starts only while the previous one would still finish inside
    ``seconds``, so the measured time stays within one round of the
    budget; at least one round always runs.
    """
    start = time.perf_counter()
    while True:
        last = body()
        if time.perf_counter() - start + last > seconds:
            return
