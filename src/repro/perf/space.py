"""The tile explorer: accelerator design spaces with dominance pre-pruning.

:func:`explore_space` is the one explorer that stands in for the
external DSE of [18].  It sweeps the full design space that DSE would
explore — PE array shapes x tile sizes x clock x precision x DDR
configuration — at the 10^5-to-10^6-point scale where SoMa/AutoWS
(PAPERS.md) show communication/allocation co-design actually pays off.
Sweeping the tile axis of one fixed base design is the same call on a
one-base space, ``SampledSpace([(base, candidate_tiles())])``.

Scoring every point at that scale is wasteful, because most of the space
is *provably* uncompetitive before any scoring happens:

* **Tile dominance.**  The sweep score is invariant in the input-channel
  tile ``tn`` — conv reload traffic depends only on ``tm`` and
  ``th x tw``, and GEMM nodes tile only their token-row (``th * tw``)
  and output-feature (``tm``) loops while the reduction depth
  accumulates on chip — so of all budget-feasible tiles sharing
  ``(tm, th, tw)`` only the first-enumerated needs scoring — the rest
  are equal-score duplicates with a larger or equal buffer footprint.
* **Roofline base dominance.**
  :meth:`~repro.perf.latency.FloorTable.floor` evaluates a base
  with every DDR reload at its floor of one trip and every GEMM at its
  best-schedule cycle count; no tile on that base can do better.  Bases
  are scored in ascending order of this bound, and a base whose *floor*
  already exceeds the best design found so far is discarded whole, with
  every tile unscored.

Both prunings are exact: :func:`explore_space` returns the bit-identical
best design point (same accelerator, same score) with pruning on or off,
and every pruned count is reported — in the returned
:class:`SpaceResult`, in ``WorkerStats.points_pruned`` and in the
``dse.points_pruned`` metric.  There are no silent caps.

The parent floors every base from the graph's one
:class:`~repro.perf.latency.FloorTable`, without characterising any;
a base's tile scores come from its
:class:`~repro.perf.latency.LatencyModel` (``umm_latency(tile)``),
built only for a base that is scored, and taken from the process's
one design cache (:func:`~repro.perf.latency.design_model`) in the
parent and in every pool worker alike.
Scoring streams through one :class:`~repro.perf.pool.ScorerPool` shared
across every base: the pool the caller passes, or a private one the
sweep builds and closes.  Per-tile scores warm-start from the
:class:`~repro.cache.store.CompilationCache` under each base's
``sweep_key`` — a repeated sweep only scores what it has never seen.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field, replace
from pickle import PicklingError
from typing import TYPE_CHECKING

from repro.errors import CapacityError, ConfigError, ReproError
from repro.fingerprint import sweep_key, tile_key
from repro.hw.fpga import FPGADevice, VU9P
from repro.hw.precision import ALL_PRECISIONS, INT8, INT16, Precision
from repro.obs import spans as obs
from repro.perf.dse import (
    DesignPoint,
    WorkerStats,
    _publish_sweep_metrics,
    _score_parallel,
    candidate_tiles,
    score_serially,
)
from repro.perf.pool import ScorerPool
from repro.perf.systolic import AcceleratorConfig, SystolicArray
from repro.perf.tiling import TileConfig

if TYPE_CHECKING:
    from repro.cache.store import CompilationCache
    from repro.ir.graph import ComputationGraph

__all__ = [
    "DesignSpace",
    "SampledSpace",
    "SpaceResult",
    "explore_space",
    "large_space",
    "small_space",
]


@dataclass(frozen=True)
class DesignSpace:
    """A cartesian accelerator design space.

    The cross product of every axis below defines the candidate set; one
    *base* design per (array, precision, frequency, DDR efficiency,
    residency caps) combination, times one point per tile shape.  Bases
    whose array does not fit the device's DSP budget at the requested
    precision are excluded up front (and counted — see
    :meth:`infeasible_bases`).

    Attributes:
        arrays: PE array shapes to consider.
        precisions: Arithmetic precisions.
        frequencies: Achieved clocks in Hz.
        ddr_efficiencies: Sustained fractions of theoretical DDR
            bandwidth (the memory-system axis).
        tm_values: Output-channel tile extents.
        tn_values: Input-channel tile extents.
        spatial_values: Square spatial tile extents (``th == tw``).
        if_resident_caps: Input-residency buffer capacities in bytes
            (0 disables the option).
        wt_resident_caps: Weight-residency buffer capacities in bytes.
        device: Target FPGA.
    """

    arrays: tuple[SystolicArray, ...]
    precisions: tuple[Precision, ...] = (INT16, INT8)
    frequencies: tuple[float, ...] = (190e6,)
    ddr_efficiencies: tuple[float, ...] = (1.0,)
    tm_values: tuple[int, ...] = (16, 32, 64, 128)
    tn_values: tuple[int, ...] = (16, 32, 64)
    spatial_values: tuple[int, ...] = (7, 14, 28, 56)
    if_resident_caps: tuple[int, ...] = (0,)
    wt_resident_caps: tuple[int, ...] = (0,)
    device: FPGADevice = VU9P

    def __post_init__(self) -> None:
        for axis in (
            "arrays", "precisions", "frequencies", "ddr_efficiencies",
            "tm_values", "tn_values", "spatial_values",
            "if_resident_caps", "wt_resident_caps",
        ):
            if not getattr(self, axis):
                raise ConfigError(
                    f"design-space axis {axis!r} must be non-empty"
                )

    def tiles(self) -> list[TileConfig]:
        """Tile shapes, in canonical enumeration order."""
        return candidate_tiles(self.tm_values, self.tn_values, self.spatial_values)

    def _base_combos(self):
        return itertools.product(
            self.precisions,
            self.arrays,
            self.frequencies,
            self.ddr_efficiencies,
            self.if_resident_caps,
            self.wt_resident_caps,
        )

    def bases(self) -> list[AcceleratorConfig]:
        """Feasible base designs, in canonical enumeration order.

        Names are deterministic functions of the axis values, so the
        per-base ``sweep_key`` — and with it the warm-start cache —
        is stable across runs.
        """
        tile0 = TileConfig(
            tm=self.tm_values[0],
            tn=self.tn_values[0],
            th=self.spatial_values[0],
            tw=self.spatial_values[0],
        )
        out: list[AcceleratorConfig] = []
        for prec, array, freq, eff, if_cap, wt_cap in self._base_combos():
            if array.dsp_slices(prec) > self.device.dsp_slices:
                continue
            out.append(
                AcceleratorConfig(
                    name=(
                        f"space-{prec.name}-{array}"
                        f"-f{freq / 1e6:g}mhz-e{eff:g}"
                        f"-ri{if_cap}-rw{wt_cap}"
                    ),
                    precision=prec,
                    array=array,
                    tile=tile0,
                    frequency=freq,
                    device=self.device,
                    ddr_efficiency=eff,
                    if_resident_cap=if_cap,
                    wt_resident_cap=wt_cap,
                )
            )
        return out

    def infeasible_bases(self) -> int:
        """Axis combinations excluded by the device's DSP budget."""
        return sum(
            1
            for prec, array, *_ in self._base_combos()
            if array.dsp_slices(prec) > self.device.dsp_slices
        )

    def size(self) -> int:
        """Candidate (base, tile) points, before any budget filtering."""
        return len(self.bases()) * len(self.tiles())

    def groups(self) -> list[tuple[AcceleratorConfig, list[TileConfig]]]:
        """(base, candidate tiles) pairs in canonical order."""
        tiles = self.tiles()
        return [(base, tiles) for base in self.bases()]

    def sample(self, n: int, seed: int = 0) -> "SampledSpace":
        """A uniform random subset of ``n`` points (without replacement).

        Sampling is deterministic in ``seed``, and the surviving tiles
        of each base keep their canonical enumeration order, so pruned
        and unpruned sweeps of the same sample stay comparable.
        """
        if n <= 0:
            raise ConfigError("sample size must be positive", details={"n": n})
        bases = self.bases()
        tiles = self.tiles()
        total = len(bases) * len(tiles)
        n = min(n, total)
        rng = random.Random(seed)
        picks = sorted(rng.sample(range(total), n))
        grouped: dict[int, list[TileConfig]] = {}
        for p in picks:
            grouped.setdefault(p // len(tiles), []).append(tiles[p % len(tiles)])
        return SampledSpace(
            groups_=[(bases[i], grouped[i]) for i in sorted(grouped)],
            infeasible=self.infeasible_bases(),
        )


@dataclass
class SampledSpace:
    """An explicit list of (base, candidate tiles) groups.

    :meth:`DesignSpace.sample` produces one; a single group
    ``SampledSpace([(base, candidate_tiles())])`` is the tile sweep of
    one fixed base design.
    """

    groups_: list[tuple[AcceleratorConfig, list[TileConfig]]]
    infeasible: int = 0

    def size(self) -> int:
        return sum(len(tiles) for _, tiles in self.groups_)

    def groups(self) -> list[tuple[AcceleratorConfig, list[TileConfig]]]:
        return self.groups_

    def infeasible_bases(self) -> int:
        return self.infeasible


def small_space(device: FPGADevice = VU9P) -> DesignSpace:
    """The ~2k-point space the CI ``dse-scaling`` job sweeps."""
    return DesignSpace(
        arrays=(
            SystolicArray(rows=32, cols=16, simd=11),
            SystolicArray(rows=16, cols=16, simd=8),
            SystolicArray(rows=8, cols=8, simd=8),
        ),
        precisions=(INT16, INT8),
        frequencies=(150e6, 190e6, 230e6),
        ddr_efficiencies=(0.7, 1.0),
        device=device,
    )


def large_space(device: FPGADevice = VU9P) -> DesignSpace:
    """The exploded ~10^5-point space (ROADMAP open item 2).

    Six array shapes x three precisions (FP32 only where five DSPs per
    MAC still fit the device) x six clocks x four DDR efficiencies x two
    input-residency options, times a 200-tile grid.
    """
    return DesignSpace(
        arrays=(
            SystolicArray(rows=32, cols=16, simd=11),
            SystolicArray(rows=16, cols=16, simd=11),
            SystolicArray(rows=32, cols=8, simd=11),
            SystolicArray(rows=16, cols=16, simd=8),
            SystolicArray(rows=16, cols=8, simd=8),
            SystolicArray(rows=8, cols=8, simd=8),
        ),
        precisions=ALL_PRECISIONS,
        frequencies=(120e6, 150e6, 180e6, 190e6, 220e6, 250e6),
        ddr_efficiencies=(0.6, 0.7, 0.85, 1.0),
        tm_values=(8, 16, 24, 32, 48, 64, 96, 128, 160, 192),
        tn_values=(8, 16, 32, 64),
        spatial_values=(7, 14, 28, 56, 112),
        if_resident_caps=(0, 1 << 15),
        device=device,
    )


@dataclass
class SpaceResult:
    """Outcome of one :func:`explore_space` sweep.

    Attributes:
        points: Scored design points, ascending UMM latency.  With
            pruning on this omits the provably dominated points, but its
            head — the best design and score — is bit-identical to an
            unpruned sweep.
        total_points: Budget-feasible (base, tile) points in the space.
        scored_points: Points actually scored (or warm-started).
        pruned_dominated: Points removed by ``tn`` tile dominance.
        pruned_bounded: Points removed whole-base by the roofline bound.
        infeasible_bases: Axis combinations excluded by the DSP budget.
        bases_total: Feasible bases in the space.
        bases_scored: Bases that reached scoring.
        bases_pruned: Bases discarded entirely by the roofline bound.
        stats: Aggregated :class:`~repro.perf.dse.WorkerStats` over every
            per-base sweep (``points_pruned`` holds the pruned total).
    """

    points: list[DesignPoint]
    total_points: int
    scored_points: int
    pruned_dominated: int
    pruned_bounded: int
    infeasible_bases: int
    bases_total: int
    bases_scored: int
    bases_pruned: int
    stats: WorkerStats = field(default_factory=WorkerStats)

    @property
    def pruned_points(self) -> int:
        """All points discarded before scoring."""
        return self.pruned_dominated + self.pruned_bounded

    @property
    def best(self) -> DesignPoint:
        """The lowest-latency design in the space."""
        return self.points[0]


def _dominant_tiles(
    tiles: list[TileConfig], element_bytes: int, budget: int
) -> tuple[list[TileConfig], int, int]:
    """Budget-filter then drop ``tn`` duplicates.

    Returns (kept tiles, feasible count, dominated count).  The sweep
    score never depends on ``tn``, so among feasible tiles sharing
    ``(tm, th, tw)`` only the first-enumerated is kept — it is the one
    a full stable-sorted sweep would rank first of the group anyway.
    """
    feasible = [
        t for t in tiles if t.tile_buffer_bytes(element_bytes) <= budget
    ]
    kept: list[TileConfig] = []
    seen: set[tuple[int, int, int]] = set()
    for tile in feasible:
        key = (tile.tm, tile.th, tile.tw)
        if key in seen:
            continue
        seen.add(key)
        kept.append(tile)
    return kept, len(feasible), len(feasible) - len(kept)


def _sweep_base(
    graph: "ComputationGraph",
    base: AcceleratorConfig,
    tiles: list[TileConfig],
    workers: int,
    stats: WorkerStats,
    cache: "CompilationCache | None",
    sweep_pool: ScorerPool | None,
    chunk_timeout: float | None,
    chunk_retries: int,
) -> list[DesignPoint]:
    """Score one base's budget-feasible tiles; ascending UMM latency.

    Warm-starts from ``cache`` under the base's ``sweep_key`` and writes
    fresh scores back.  Pending tiles go to the pool when more than one
    worker can be used, otherwise to
    :func:`~repro.perf.dse.score_serially`.  Only
    *environmental* pool failures fall back to the serial path; a
    taxonomy error raised while setting up the pool propagates.
    """
    with obs.span(
        "dse.explore",
        graph=graph.name,
        tiles=len(tiles),
        workers=min(workers, len(tiles)),
    ):
        scores: dict[str, float] = {}
        if cache is not None:
            warm_key = sweep_key(graph, base)
            scores = cache.get(warm_key, namespace="sweep") or {}
        pending = [tile for tile in tiles if tile_key(tile) not in scores]
        if cache is not None:
            obs.annotate(
                "dse.warm-start",
                known=len(tiles) - len(pending),
                scored=len(pending),
            )
        scored: list[float] | None = None
        if min(workers, len(pending)) > 1:
            try:
                scored = _score_parallel(
                    graph,
                    base,
                    pending,
                    sweep_pool,
                    chunk_timeout=chunk_timeout,
                    chunk_retries=chunk_retries,
                    stats=stats,
                )
            except ReproError:
                # A genuinely invalid graph/config surfaced during pool
                # setup is a caller error — relabeling it as an
                # environmental failure would bury it in a silent serial
                # fallback.
                raise
            except (OSError, RuntimeError, PicklingError):
                # The pool could not even be created (sandboxed
                # interpreter, no fork/spawn support, unpicklable
                # initargs...); the serial path below is exact.
                stats.pool_unavailable = True
        if pending:
            if scored is None:
                scored = score_serially(graph, base, pending)
            scores.update(zip(map(tile_key, pending), scored))
            if cache is not None:
                cache.put(warm_key, scores, namespace="sweep")
        elem = base.precision.bytes
        points = [
            DesignPoint(
                accel=replace(base, tile=tile),
                umm_latency=scores[tile_key(tile)],
                tile_buffer_bytes=tile.tile_buffer_bytes(elem),
            )
            for tile in tiles
        ]
    points.sort(key=lambda p: p.umm_latency)
    return points


def explore_space(
    graph: "ComputationGraph",
    space: DesignSpace | SampledSpace,
    tile_buffer_budget: int,
    workers: int | None = None,
    prune: bool = True,
    chunk_timeout: float | None = None,
    chunk_retries: int = 1,
    stats: WorkerStats | None = None,
    cache: "CompilationCache | None" = None,
    pool: ScorerPool | None = None,
) -> SpaceResult:
    """Sweep a design space, pruning what cannot win.

    Args:
        graph: The DNN to optimise for.
        space: A :class:`DesignSpace` (cartesian) or a
            :class:`SampledSpace` — a :meth:`DesignSpace.sample`, or one
            ``(base, tiles)`` group to sweep a single base design.
        tile_buffer_budget: Byte budget for the double-buffered tile
            buffers, applied per base at its element width.
        workers: Process count for scoring; every base shares one pool.
            Defaults to ``pool.workers`` with a ``pool``, else 1 (a
            serial sweep).  Clamped to the number of points to score, so
            small sweeps never spawn idle workers.  Results are identical
            and identically ordered for any count, and any pool failure (a
            crashed worker, a hung chunk, or an environment without
            working process spawning) is recovered by re-scoring the
            missing points serially.
        prune: Apply tile dominance and the roofline base bound.  The
            best design and score are bit-identical either way; pruning
            only skips provably worse points (all counted, never
            silent).  ``False`` keeps every feasible point in
            ``result.points``.
        chunk_timeout: Optional per-chunk deadline in seconds; a
            timed-out chunk is retried in a fresh pool and, past its
            retry budget, re-scored serially.
        chunk_retries: Re-submissions allowed per failing chunk before it
            falls back to serial re-scoring.
        stats: Optional :class:`~repro.perf.dse.WorkerStats` filled in
            with totals over every base (``points_pruned`` holds the
            pruned total).  When tracing is on they are published once
            per sweep as the ``dse.*`` metrics.
        cache: Optional compilation cache; per-tile scores warm-start
            under each base's ``sweep_key`` and fresh scores are written
            back.
        pool: Pool to score on; the caller owns it, so it stays open
            (and warm) for later sweeps.  Without one, a sweep with more
            than one worker builds a private pool (tracing when tracing
            is on) and closes it before returning.

    Returns:
        A :class:`SpaceResult`; ``result.best`` is the space optimum.

    Raises:
        repro.errors.CapacityError: On a non-positive budget, or when no
            point in the space fits it.
        repro.errors.ConfigError: On ``workers < 1``, or a ``workers``
            that differs from ``pool.workers``.
        repro.errors.ReproError: Any taxonomy error raised while setting
            up the parallel sweep propagates — only *environmental* pool
            failures fall back to the serial path.
    """
    if tile_buffer_budget <= 0:
        raise CapacityError(
            "tile_buffer_budget must be positive",
            details={"tile_buffer_budget": tile_buffer_budget},
        )
    if workers is None:
        workers = pool.workers if pool is not None else 1
    elif pool is not None and workers != pool.workers:
        raise ConfigError(
            "workers must equal the given pool's worker count",
            details={"workers": workers, "pool_workers": pool.workers},
        )
    if workers < 1:
        raise ConfigError("workers must be at least 1", details={"workers": workers})
    stats = stats if stats is not None else WorkerStats()
    groups = space.groups()

    # Per-base preparation: budget filter and tile dominance.
    prepped: list[tuple[int, AcceleratorConfig, list[TileConfig]]] = []
    total_points = 0
    pruned_dominated = 0
    for idx, (base, tiles) in enumerate(groups):
        if prune:
            kept, feasible, dominated = _dominant_tiles(
                tiles, base.precision.bytes, tile_buffer_budget
            )
        else:
            kept = [
                t for t in tiles
                if t.tile_buffer_bytes(base.precision.bytes) <= tile_buffer_budget
            ]
            feasible, dominated = len(kept), 0
        total_points += feasible
        pruned_dominated += dominated
        if kept:
            prepped.append((idx, base, kept))
    if not prepped:
        raise CapacityError(
            f"no tile configuration in the space fits a {tile_buffer_budget}-byte "
            "tile-buffer budget",
            details={"tile_buffer_budget": tile_buffer_budget},
        )
    workers = min(workers, sum(len(kept) for _, _, kept in prepped))

    pruned_bounded = 0
    bases_pruned = 0
    incumbent = float("inf")
    per_base: dict[int, list[DesignPoint]] = {}
    owned = pool is None and workers > 1
    if owned:
        pool = ScorerPool(graph, workers, trace=obs.enabled())
    swept = False
    with obs.span(
        "dse.space",
        graph=graph.name,
        bases=len(prepped),
        points=total_points,
        workers=workers,
        prune=prune,
    ):
        try:
            if prune:
                from repro.perf.latency import FloorTable

                # Every floor comes from the graph's one floor table, in
                # this process: no base is characterised for its bound.
                table = graph.derived(FloorTable)
                bounds = {idx: table.floor(base) for idx, base, _ in prepped}
                # Most promising floors first maximises how early the
                # incumbent tightens and how much the bound can discard.
                order = sorted(prepped, key=lambda p: (bounds[p[0]], p[0]))
            else:
                order = prepped
            for idx, base, kept in order:
                if prune and bounds[idx] > incumbent:
                    # Strictly above the incumbent: no tile on this base
                    # can beat *or tie* the best already found.
                    pruned_bounded += len(kept)
                    bases_pruned += 1
                    continue
                points = _sweep_base(
                    graph,
                    base,
                    kept,
                    workers,
                    stats,
                    cache,
                    pool,
                    chunk_timeout,
                    chunk_retries,
                )
                per_base[idx] = points
                incumbent = min(incumbent, points[0].umm_latency)
            swept = True
        finally:
            if owned:
                # A sweep that returns leaves its pool idle (an executor
                # stranded by a hung chunk was already discarded), so join
                # it: an executor shut down without waiting can race the
                # interpreter's exit hook on its closed wakeup pipe.
                pool.close(wait=swept)
        stats.points_pruned += pruned_dominated + pruned_bounded
        obs.annotate(
            "dse.pruned",
            dominated=pruned_dominated,
            bounded=pruned_bounded,
            bases_pruned=bases_pruned,
            scored=total_points - pruned_dominated - pruned_bounded,
        )
        if obs.enabled():
            _publish_sweep_metrics(stats, graph.name)

    # Reassemble in canonical base order before the final stable sort:
    # ties across bases then resolve exactly as an unpruned sweep would.
    merged: list[DesignPoint] = []
    for idx in sorted(per_base):
        merged.extend(per_base[idx])
    merged.sort(key=lambda p: p.umm_latency)
    return SpaceResult(
        points=merged,
        total_points=total_points,
        scored_points=len(merged),
        pruned_dominated=pruned_dominated,
        pruned_bounded=pruned_bounded,
        infeasible_bases=space.infeasible_bases(),
        bases_total=len(groups),
        bases_scored=len(per_base),
        bases_pruned=bases_pruned,
        stats=stats,
    )
