"""Compile/DSE job bodies and the worker pools that run them.

Everything a job needs crosses the process boundary as plain picklable
arguments, and everything it returns is a JSON-ready dict — the service
layer never ships live objects to or from workers.

Key compatibility is deliberate: a served compile runs the batch job
body (:func:`repro.cache.batch.compile_job`), so it derives the same
content key and writes the same artifact as ``batch_compile`` and
``lcmm run --cache``; a daemon pointed at a pre-warmed batch cache
directory answers from it immediately, and artifacts the daemon writes
warm later batch runs.

Two pools, one lifecycle (:class:`repro.perf.pool.ResilientPool`):

* :class:`CompilePool` — process workers.  Survives worker crashes (the
  service refreshes it), supports the ``"crash"`` chaos mode, isolates
  compile bugs from the event loop.
* :class:`InlineWorkers` — thread workers in the server process.  No
  spawn cost, so tests and benchmarks exercise the full admission /
  single-flight / deadline machinery in milliseconds.  ``"crash"``
  faults must not be armed inline — ``os._exit`` would take the server
  down with the job.

The ``serve.worker`` fault point fires inside the job body (worker
side), after the request deadline is installed: ``raise`` exercises the
structured-error path, ``hang`` the cooperative deadline, ``crash`` the
broken-pool recovery.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Iterable

from repro.perf.pool import ResilientPool
from repro.robustness import inject
from repro.robustness.deadline import check_deadline, deadline_scope
from repro.robustness.inject import declare_fault_point, fault_point, install_plans

__all__ = [
    "CompilePool",
    "InlineWorkers",
    "job_key",
    "run_compile_job",
    "run_dse_job",
]

declare_fault_point("serve.worker", "one compile/DSE job body in a serve worker")


def job_key(model: str, config: str, precision: str) -> str:
    """The content key a compile job will use (validates its inputs).

    The name is checked against the zoo without building the graph, so
    a warm request with a memoised key builds nothing.

    Raises:
        repro.errors.ModelNotFoundError: Unknown model.
        repro.errors.ConfigError: Unknown configuration label.
    """
    from repro.cache.batch import _job_key

    return _job_key(model, config, precision)


def run_compile_job(
    model: str,
    config: str,
    precision: str,
    cache_dir: str | None,
    deadline_epoch: float | None = None,
) -> dict:
    """One compile job under a request deadline, as a JSON-ready payload.

    Top-level so process pools can pickle it.  The body is
    :func:`repro.cache.batch.compile_job`; this wrapper adds the serving
    concerns: the caller's wall-clock deadline is re-anchored onto this
    process and checked at every pass boundary, the ``serve.worker``
    fault point runs under it, and ``seconds`` covers the whole job.
    The payload carries ``degradation_level`` / ``degradation_path`` — a
    degraded result is always labeled, never silently served.
    """
    from repro.cache.batch import compile_job

    start = time.perf_counter()
    with deadline_scope(None, epoch=deadline_epoch):
        fault_point("serve.worker", model=model, config=config)
        check_deadline("serve.worker")
        payload = compile_job(model, config, precision, cache_dir).as_payload()
    payload["seconds"] = time.perf_counter() - start
    return payload


def run_dse_job(
    model: str,
    precision: str,
    budget_mb: float,
    top: int,
    cache_dir: str | None,
    deadline_epoch: float | None = None,
) -> dict:
    """One serial tile-DSE sweep under a request deadline.

    The sweep runs ``workers=1`` inside this worker — the daemon's
    parallelism lives at the request level, and nesting a process pool
    inside a pool worker would not survive the spawn limits anyway.
    Sweep-score warm-starts come from the shared cache directory.  The
    graph and design are the ones compile jobs use
    (:func:`repro.cache.batch.zoo_design`), so compiles and sweeps of one
    model and precision share one graph and one latency model per
    process.
    """
    from repro.cache.batch import zoo_design
    from repro.cache.store import CompilationCache
    from repro.perf.dse import candidate_tiles
    from repro.perf.space import SampledSpace, explore_space

    start = time.perf_counter()
    with deadline_scope(None, epoch=deadline_epoch):
        fault_point("serve.worker", model=model, config="dse")
        check_deadline("serve.worker")
        graph, base = zoo_design(model, precision)
        cache = CompilationCache(cache_dir) if cache_dir is not None else None
        result = explore_space(
            graph,
            SampledSpace([(base, candidate_tiles())]),
            int(budget_mb * 2**20),
            prune=False,
            cache=cache,
        )
    return {
        "model": model,
        "precision": precision,
        "budget_mb": budget_mb,
        "feasible_points": result.total_points,
        "points": [
            {
                "tile": str(point.accel.tile),
                "umm_latency": point.umm_latency,
                "tile_buffer_bytes": point.tile_buffer_bytes,
            }
            for point in result.points[:top]
        ],
        "seconds": time.perf_counter() - start,
    }


def _serve_worker_init(plans: tuple) -> None:
    """Process-pool initializer: arm exactly the pool's fault plans.

    Forked workers inherit whatever was armed in the server process at
    fork time; disarming first makes the pool's captured plan set
    authoritative, so clearing ``CompilePool.plans`` between
    generations genuinely clears the fault.
    """
    inject.disarm_all()
    install_plans(plans)


class CompilePool(ResilientPool):
    """Process workers for serve jobs (crash-isolated from the loop).

    Fault plans armed in the server process at construction time follow
    the jobs into every worker generation, so a chaos test arming
    ``serve.worker`` before the pool spins up sees it fire worker-side.
    """

    def __init__(self, workers: int, plans: Iterable | None = None) -> None:
        super().__init__(workers)
        self.plans = tuple(plans) if plans is not None else inject.active_plans()

    def _build_executor(self) -> ProcessPoolExecutor:
        from repro.cache.batch import preload_compiler

        preload_compiler()
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_serve_worker_init,
            initargs=(self.plans,),
        )


class InlineWorkers(ResilientPool):
    """Thread workers in the server process (tests and benchmarks).

    Jobs see whatever fault plans are armed in-process; ``"crash"``
    plans must not be armed in this mode.
    """

    def _build_executor(self) -> ThreadPoolExecutor:  # type: ignore[override]
        return ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="serve-inline"
        )
