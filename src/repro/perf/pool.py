"""Reusable worker pools for design-space scoring.

``BENCH_engine.json`` showed the original parallel DSE path *losing* to
the serial fast path (64-point sweep: 17.6x serial vs 4.4x with
``workers=4``): every sweep paid full ``ProcessPoolExecutor`` spin-up,
every chunk re-pickled result objects, and the fixed ``n / (workers*4)``
chunking left nothing to amortise any of it against.  This module is the
fix — a pool that outlives a single base design and one chunk per
worker per base:

* **One pool per sweep, warm across bases.**  The initializer ships the
  computation graph (the only heavy payload) exactly once per worker
  process, and every base of a :func:`~repro.perf.space.explore_space`
  sweep scores on the same pool.  A sweep either scores on the pool its
  caller passes (the caller owns it and may keep it warm across sweeps)
  or builds a private pool and closes it before returning.
* **One model per (worker, base).**  Chunks carry the *base* design
  point (~1 kB of scalars) and a worker scores it on
  :func:`~repro.perf.latency.design_model` of its graph and the base,
  the process's one design cache, so the graph is re-characterised at
  most once per (worker, base) visit — exploded multi-base spaces
  stream through the same warm pool.  The model scores every tile of
  its base itself (``umm_latency(tile)``), so a worker and a serial
  sweep compute each score with the same code.  Workers only score:
  the sweep floors its bases in the parent, from the graph's one floor
  table, which needs no model.
* **One chunk rule.**  Each base's pending tiles split evenly over
  the workers, ``ceil(n / workers)`` tiles a chunk.  Chunks carry plain
  :class:`TileConfig` lists and return plain score lists; pickling
  them costs microseconds against milliseconds of scoring.

Fault handling composes with the hardened retry loop in
:mod:`repro.perf.dse`: a broken or stranded pool is *refreshed*
(:meth:`ScorerPool.refresh` discards the executor; the next
:meth:`ScorerPool.ensure` builds a fresh one with identical initargs),
so crash/hang faults trigger fresh-pool retries without losing the
pool object.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from typing import TYPE_CHECKING

from repro.errors import ConfigError
from repro.obs import spans as obs
from repro.robustness import inject
from repro.robustness.inject import declare_fault_point, fault_point
from repro.perf.tiling import TileConfig

if TYPE_CHECKING:
    from concurrent.futures import Future

    from repro.ir.graph import ComputationGraph

__all__ = ["ResilientPool", "ScorerPool"]

#: Deadline for the warm-up pings that prove the pool came up at all.
_WARMUP_TIMEOUT = 60.0

declare_fault_point("dse.chunk", "one tile chunk scored in a DSE worker")


# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------

#: The graph the initializer shipped once; chunks score its designs.
_worker_graph: "ComputationGraph | None" = None


def _pool_init(
    graph: "ComputationGraph",
    fault_plans: tuple = (),
    trace: bool = False,
) -> None:
    """Worker initializer: receives the graph exactly once per process."""
    global _worker_graph
    _worker_graph = graph
    # Fault injection armed in the parent follows the work into the
    # worker (chaos tests for the crash/timeout recovery paths).
    inject.install_plans(fault_plans)
    # Tracing armed in the parent follows too: the worker runs its own
    # tracer (own epoch, own process label) and ships finished spans
    # back with each chunk for parent-side merging.  A forked worker
    # inherits the parent's tracer object, so always install a fresh
    # one (or none) rather than recording into the inherited copy.
    if trace:
        obs.enable(f"dse-worker-{os.getpid()}")
    else:
        obs.disable()


def _pool_ping() -> int:
    """Warm-up no-op proving a worker process came up and initialized."""
    return os.getpid()


def _pool_score_chunk(
    base, tiles: list[TileConfig], index: int = 0
) -> tuple[list[float], list[dict]]:
    """Score one chunk of tiles in a worker process.

    Returns the scores, in tile order, and the serialized spans recorded
    while scoring (empty when tracing is off).
    """
    # Imported here so that processes which only borrow the pool
    # lifecycle (the serving daemon) never load the latency model.
    from repro.perf.latency import design_model

    fault_point("dse.chunk", chunk=index)
    tracer = obs.tracer()
    mark = len(tracer.records) if tracer is not None else 0
    with obs.span("dse.chunk", chunk=index, tiles=len(tiles)):
        score = design_model(_worker_graph, base).umm_latency
        scores = [score(tile) for tile in tiles]
    spans = (
        [record.as_dict() for record in tracer.records[mark:]]
        if tracer is not None
        else []
    )
    return scores, spans


# ----------------------------------------------------------------------
# Parent-process side
# ----------------------------------------------------------------------

class ResilientPool:
    """A lazily created process pool with warm-up, refresh and close.

    The lifecycle contract shared by every pool in the system (the DSE
    :class:`ScorerPool` below, the serving daemon's compile pool in
    :mod:`repro.serve.jobs`):

    * The executor is not built until the first :meth:`ensure`, so
      merely resolving a pool costs nothing.
    * :meth:`ensure` warms the fresh executor with one ping per worker,
      so the initializer has demonstrably run before real work is
      dispatched — job deadlines never absorb process spawn time, and an
      environment that cannot spawn fails *here* (with
      ``OSError``/``RuntimeError``, which callers' environmental
      fallbacks catch) rather than mid-job.
    * :meth:`refresh` replaces a broken or stranded executor (crashed
      worker, uncancellable hung future) without losing the pool
      object or its measurements — the fault costs the executor its
      life, not the pool.
    * :meth:`close` ends the pool's life explicitly (idempotent).

    Subclasses override :meth:`_build_executor` to attach their
    initializer and its arguments.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigError(
                "pool workers must be at least 1", details={"workers": workers}
            )
        self.workers = int(workers)
        #: Incremented every time :meth:`refresh` discards an executor.
        self.generation = 0
        #: Total wall seconds spent spinning up executors (all generations).
        self.init_seconds_total = 0.0
        self._executor: ProcessPoolExecutor | None = None
        self._closed = False

    def _build_executor(self) -> ProcessPoolExecutor:
        """Construct the executor (override to attach an initializer)."""
        return ProcessPoolExecutor(max_workers=self.workers)

    # -- lifecycle -----------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def is_warm(self) -> bool:
        """Whether a live executor exists right now."""
        return self._executor is not None

    def ensure(self) -> tuple[ProcessPoolExecutor, float]:
        """The live executor, creating and warming one if needed.

        Returns ``(executor, seconds)`` where ``seconds`` is the wall
        time spent bringing the pool up (0.0 when it was already warm).
        """
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} is closed")
        if self._executor is not None:
            return self._executor, 0.0
        start = time.perf_counter()
        executor = self._build_executor()
        try:
            pings = [executor.submit(_pool_ping) for _ in range(self.workers)]
            done, not_done = futures_wait(pings, timeout=_WARMUP_TIMEOUT)
            if not_done:
                raise RuntimeError(
                    f"worker pool warm-up timed out after {_WARMUP_TIMEOUT}s"
                )
            for ping in done:
                ping.result()  # surfaces initializer failures
        except BaseException:
            executor.shutdown(wait=False, cancel_futures=True)
            raise
        elapsed = time.perf_counter() - start
        self._executor = executor
        self.init_seconds_total += elapsed
        return executor, elapsed

    def refresh(self) -> None:
        """Discard the current executor (broken pool / stranded worker).

        The pool object stays alive; the next :meth:`ensure` builds a
        fresh executor with identical initargs.
        """
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
            self.generation += 1

    def close(self, wait: bool = False) -> None:
        """Shut the pool down for good (idempotent).

        With ``wait``, join the executor's workers and management thread
        — for an idle pool only, since a hung worker would block the
        join.  Without it, the executor winds down on its own, which is
        what a pool abandoned around a hung chunk needs.
        """
        if self._executor is not None:
            self._executor.shutdown(wait=wait, cancel_futures=True)
            self._executor = None
        self._closed = True


class ScorerPool(ResilientPool):
    """A lazily created, reusable process pool bound to one graph.

    Extends :class:`ResilientPool` with the DSE worker initializer —
    the graph, the tracing state and the fault plans armed in this
    process at construction time.

    Args:
        graph: The computation graph workers score against.
        workers: Worker process count.
        trace: Ship parent tracing into the workers (worker spans are
            returned with each chunk for merging).
    """

    def __init__(
        self,
        graph: "ComputationGraph",
        workers: int,
        trace: bool = False,
    ) -> None:
        super().__init__(workers)
        self.graph = graph
        self.trace = bool(trace)
        self.plans = inject.active_plans()

    def _build_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_pool_init,
            initargs=(self.graph, self.plans, self.trace),
        )

    # -- scoring support ----------------------------------------------

    def submit_chunk(self, base, tiles: list[TileConfig], index: int) -> "Future":
        """Submit one chunk of tiles against the live executor."""
        executor = self._executor
        if executor is None:
            raise RuntimeError("ensure() the pool before submitting chunks")
        return executor.submit(_pool_score_chunk, base, tiles, index)

    def __repr__(self) -> str:  # pragma: no cover — debug aid
        state = "closed" if self._closed else ("warm" if self.is_warm() else "cold")
        return (
            f"ScorerPool(workers={self.workers}, {state}, "
            f"gen={self.generation}, graph={self.graph.name})"
        )
