"""Tile scoring for the design-space explorer.

The paper plugs LCMM into an external DSE framework ([12, 18, 22]) that
fixes the PE array and tile buffer structure; LCMM then manages whatever
on-chip memory the tile buffers do not use (Fig. 4).  The explorer that
stands in for that DSE is :func:`repro.perf.space.explore_space`; this
module holds the parts it scores with: the candidate tile grid and the
hardened parallel scoring loop.  Every score is
``LatencyModel.umm_latency(tile)`` on the base design's
:class:`~repro.perf.latency.LatencyModel`.

Tile sizes trade buffer footprint against reload traffic: larger ``tm``
cuts input re-streaming (``ceil(M/tm)`` passes), larger ``th x tw`` cuts
weight re-streaming — but both inflate the tile buffers that compete with
LCMM's tensor buffers for SRAM.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.obs import spans as obs
from repro.ir.graph import ComputationGraph
from repro.perf.pool import ScorerPool
from repro.perf.systolic import AcceleratorConfig
from repro.perf.tiling import TileConfig

#: Candidate tile extents; powers of two for channels (all benchmark models
#: use channel counts divisible by 32) and the common feature-map extents
#: for the spatial dims.
_TM_CANDIDATES = (16, 32, 64, 128)
_TN_CANDIDATES = (16, 32, 64)
_SPATIAL_CANDIDATES = (7, 14, 28, 56)


@dataclass(frozen=True)
class DesignPoint:
    """One explored design with its predicted performance.

    Attributes:
        accel: The accelerator configuration.
        umm_latency: End-to-end latency with uniform memory management.
        tile_buffer_bytes: On-chip footprint of the double-buffered tile
            buffers.
    """

    accel: AcceleratorConfig
    umm_latency: float
    tile_buffer_bytes: int


def candidate_tiles(
    tm_values: tuple[int, ...] = _TM_CANDIDATES,
    tn_values: tuple[int, ...] = _TN_CANDIDATES,
    spatial_values: tuple[int, ...] = _SPATIAL_CANDIDATES,
) -> list[TileConfig]:
    """The tile configurations the explorer enumerates."""
    return [
        TileConfig(tm=tm, tn=tn, th=sp, tw=sp)
        for tm, tn, sp in itertools.product(tm_values, tn_values, spatial_values)
    ]


@dataclass
class WorkerStats:
    """What the hardened parallel sweep had to do to finish.

    A clean run is ``chunks == N`` with every other counter zero.  The
    counters let callers (and ``lcmm dse``) see how much fault handling
    the sweep needed without changing its results — the recovered output
    is always identical to a serial sweep.

    Attributes:
        chunks: Tile chunks the sweep was split into.
        retries: Chunk re-submissions after a worker exception.
        timeouts: Per-chunk deadline expiries.
        failures: Chunk attempts that raised in a worker.
        pool_broken: The process pool died (``BrokenProcessPool``).
        serial_chunks: Chunks re-executed serially in the parent after
            the pool could not produce them.
        pool_unavailable: The pool could not be created at all and the
            whole sweep ran serially.
        chunks_reused_pool: Chunks served by a pool that was already
            warm when their base's scoring began — every base after the
            first on a private pool, and every chunk of a sweep on a
            caller's pool that an earlier sweep warmed.
        init_seconds: Wall seconds this sweep spent spinning up worker
            pools (0.0 when the pool was already warm).
        points_pruned: Design points discarded before scoring by the
            dominance/roofline pruning of :mod:`repro.perf.space`.
    """

    chunks: int = 0
    retries: int = 0
    timeouts: int = 0
    failures: int = 0
    pool_broken: bool = False
    serial_chunks: int = 0
    pool_unavailable: bool = False
    chunks_reused_pool: int = 0
    init_seconds: float = 0.0
    points_pruned: int = 0

    def recovered(self) -> bool:
        """Whether any fault handling occurred."""
        return bool(
            self.retries
            or self.timeouts
            or self.failures
            or self.pool_broken
            or self.serial_chunks
            or self.pool_unavailable
        )


def score_serially(
    graph: ComputationGraph,
    base: AcceleratorConfig,
    tiles: list[TileConfig],
) -> list[float]:
    """Score ``tiles`` on ``base`` in this process, in tile order.

    The one place the parent scores tiles: a one-worker sweep, a sweep
    whose pool could not be built and the chunks a pool lost all land
    here, on the base's model from the process's design cache
    (:func:`~repro.perf.latency.design_model`).
    """
    from repro.perf.latency import design_model

    with obs.span("dse.serial-sweep", tiles=len(tiles)):
        score = design_model(graph, base).umm_latency
        return [score(tile) for tile in tiles]


def _score_parallel(
    graph: ComputationGraph,
    base: AcceleratorConfig,
    tiles: list[TileConfig],
    pool: ScorerPool,
    chunk_timeout: float | None = None,
    chunk_retries: int = 1,
    stats: WorkerStats | None = None,
) -> list[float]:
    """Fan tile scoring out over ``pool``, preserving order.

    ``tiles`` split evenly over the pool's workers, ``ceil(n / workers)``
    tiles a chunk; each chunk is scored in a worker process and
    reassembled by index, so the result lines up with ``tiles``
    regardless of which worker finished first.

    Hardened against worker failure: a chunk that raises *or misses
    ``chunk_timeout``* is resubmitted up to ``chunk_retries`` times; a
    chunk that exhausts its retries is re-scored in the parent by
    :func:`score_serially`, so the sweep always terminates with exact
    results and never trusts anything a dying worker may have sent.

    A broken pool (``BrokenProcessPool``) or a timed-out chunk whose
    future is already running (uncancellable, stranding the hung worker
    on its slot) triggers :meth:`ScorerPool.refresh`: the executor is
    discarded and retries run in a freshly created one — the pool
    *object* survives, so no broken executor leaks into later sweeps and
    no slot stays occupied by a dead deadline.
    """
    stats = stats if stats is not None else WorkerStats()
    tracer = obs.tracer()
    size = max(1, math.ceil(len(tiles) / pool.workers))
    chunks = [tiles[i : i + size] for i in range(0, len(tiles), size)]
    stats.chunks += len(chunks)
    preexisting = pool.is_warm()
    start_generation = pool.generation
    results: list[list[float] | None] = [None] * len(chunks)
    pending = list(range(len(chunks)))
    attempts = [0] * len(chunks)

    def charge(i: int, retry: list[int]) -> None:
        """Count a failed attempt; queue the chunk while retries remain."""
        attempts[i] += 1
        if attempts[i] <= chunk_retries:
            stats.retries += 1
            retry.append(i)

    while pending:
        _, init_elapsed = pool.ensure()
        stats.init_seconds += init_elapsed
        if preexisting and pool.generation == start_generation:
            stats.chunks_reused_pool += len(pending)
        futures = []
        unsubmitted: list[int] = []
        broken = False
        stranded = False
        for pos, i in enumerate(pending):
            try:
                futures.append((pool.submit_chunk(base, chunks[i], i), i))
            except BrokenProcessPool:
                # A worker died while chunks were still being handed out:
                # the rest count an attempt, as if their result had raised.
                broken = True
                unsubmitted = pending[pos:]
                break
        retry: list[int] = []
        for future, i in futures:
            try:
                # Chunks run concurrently, so waiting on them in
                # submission order still gives each roughly its own
                # deadline — and never mislabels a healthy chunk.
                results[i], worker_spans = future.result(timeout=chunk_timeout)
                if tracer is not None and worker_spans:
                    tracer.merge(worker_spans)
            except FutureTimeout:
                stats.timeouts += 1
                # A still-queued future cancels cleanly; a running one
                # does not, and its hung worker keeps the pool slot —
                # mark the executor for replacement.
                if not future.cancel():
                    stranded = True
                charge(i, retry)
            except BrokenProcessPool:
                broken = True
                charge(i, retry)
            except Exception:
                stats.failures += 1
                charge(i, retry)
        for i in unsubmitted:
            charge(i, retry)
        if broken:
            stats.pool_broken = True
            pool.refresh()
        elif stranded:
            pool.refresh()
        pending = retry
    lost = [i for i in range(len(chunks)) if results[i] is None]
    if lost:
        stats.serial_chunks += len(lost)
        for i in lost:
            results[i] = score_serially(graph, base, chunks[i])
    return [lat for part in results for lat in part]


def _publish_sweep_metrics(stats: WorkerStats, graph_name: str) -> None:
    """Mirror one ``explore_space`` call's totals into the metrics registry."""
    from repro.obs.metrics import registry

    counters = registry()
    for name, value in (
        ("dse.chunks", stats.chunks),
        ("dse.retries", stats.retries),
        ("dse.timeouts", stats.timeouts),
        ("dse.failures", stats.failures),
        ("dse.serial_chunks", stats.serial_chunks),
        ("dse.chunks_reused_pool", stats.chunks_reused_pool),
        ("dse.points_pruned", stats.points_pruned),
    ):
        counters.counter(name).inc(value, graph=graph_name)
    counters.gauge("dse.pool_broken").set(float(stats.pool_broken), graph=graph_name)
    counters.gauge("dse.pool_unavailable").set(
        float(stats.pool_unavailable), graph=graph_name
    )
    counters.gauge("dse.init_seconds").set(stats.init_seconds, graph=graph_name)
