"""Batch compile front-end: the whole model zoo, sharded across workers.

A production deployment compiles every (model, configuration) pair it
serves ahead of time; this module is that front-end.  It enumerates the
job matrix — by default the model zoo times the standard configurations
the golden-result suite pins (the UMM floor, plain DNNK, the greedy
allocator, the full splitting pipeline, and the fusion-era fused /
fused+scheduled pipelines) — shards the jobs
over a process pool, and routes every compilation through a shared
:class:`~repro.cache.store.CompilationCache` directory, so repeated runs
(and concurrent workers racing on the same artifact) compile each unique
input at most once.

Each outcome carries the :func:`repro.fingerprint.fingerprint` of its
result, which makes the report directly comparable against
``tests/golden/*.json`` — ``lcmm batch-compile --verify-golden`` and the
CI cache round-trip job do exactly that.

:func:`compile_job` is the one compile-job body: ``batch_compile`` runs
it for its misses and ``lcmm serve`` wraps it (:mod:`repro.serve.jobs`).
A hit is answered from the reply stored beside the result, so a warm
batch neither unpickles a result nor imports the compiler.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from pickle import PicklingError
from typing import TYPE_CHECKING

from repro.errors import ConfigError, ModelNotFoundError, ReproError
from repro.fingerprint import compile_key_for_digest, graph_fingerprint, result_reply
from repro.lcmm.options import LCMMOptions
from repro.models.zoo import canonical_model_name, get_model, list_models
from repro.obs import spans as obs

if TYPE_CHECKING:
    from repro.ir.graph import ComputationGraph
    from repro.perf.systolic import AcceleratorConfig

__all__ = [
    "BatchReport",
    "CompileOutcome",
    "FUSED_CONFIGS",
    "STANDARD_CONFIGS",
    "batch_compile",
    "compile_job",
    "standard_options",
    "zoo_design",
]

#: Configuration label -> LCMM options (``None`` = the pass-free UMM
#: floor).  Mirrors the golden-result suite's matrix.
STANDARD_CONFIGS: dict[str, LCMMOptions | None] = {
    "umm": None,
    "dnnk": LCMMOptions(splitting=False),
    "greedy": LCMMOptions(use_greedy=True, splitting=False),
    "splitting": LCMMOptions(),
    "fused": LCMMOptions(fuse_layers=True),
    "fused_sched": LCMMOptions(fuse_layers=True, transfer_schedule=True),
}

#: Configurations whose golden fingerprints live in ``{model}.fused.json``
#: rather than ``{model}.json`` — the fusion-era matrix is pinned
#: separately so the pre-fusion golden files stay byte-identical.
FUSED_CONFIGS = ("fused", "fused_sched")


def standard_options(config: str) -> LCMMOptions | None:
    """The options object for one standard configuration label.

    Raises:
        repro.errors.ConfigError: On an unknown label.
    """
    try:
        return STANDARD_CONFIGS[config]
    except KeyError:
        raise ConfigError(
            f"unknown batch configuration {config!r}; "
            f"known: {', '.join(STANDARD_CONFIGS)}"
        ) from None


@dataclass(frozen=True)
class CompileOutcome:
    """One (model, configuration) compile job: a batch row, a serve reply.

    Attributes:
        model: Model name as requested.
        config: Configuration label (``"umm"``, ``"splitting"``, ...).
        precision: Arithmetic precision name.
        compile_key: The job's content key.
        cache_hit: Whether the artifact came from the cache.
        latency: Predicted end-to-end latency of the compiled result.
        degradation_level: Fallback attempts the compile went through
            (0 = the requested pipeline landed).
        degradation_path: Labels of the attempts that failed.
        fingerprint: The result's golden-format regression fingerprint.
        seconds: Wall time this job took (lookup or compile).
    """

    model: str
    config: str
    precision: str
    compile_key: str
    cache_hit: bool
    latency: float
    degradation_level: int
    degradation_path: list
    fingerprint: dict
    seconds: float

    def as_payload(self) -> dict:
        """The JSON-ready dict ``lcmm serve`` answers a compile with.

        A shallow copy (``dataclasses.asdict`` deep-copies, which costs
        a warm serve hit more than its checksum): the payload shares the
        nested ``fingerprint`` and ``degradation_path``.
        """
        return dict(vars(self))


@dataclass
class BatchReport:
    """Everything one :func:`batch_compile` call produced.

    Attributes:
        outcomes: Per-job outcomes in job order (model-major).
        seconds: Wall time of the whole batch.
        workers: Process count actually used (1 = in-process).
        pool_unavailable: The requested pool could not be created and
            the batch fell back to in-process compilation.
    """

    outcomes: list[CompileOutcome]
    seconds: float
    workers: int
    pool_unavailable: bool = False

    @property
    def hits(self) -> int:
        return sum(1 for o in self.outcomes if o.cache_hit)

    @property
    def misses(self) -> int:
        return len(self.outcomes) - self.hits

    @property
    def all_hits(self) -> bool:
        return bool(self.outcomes) and self.misses == 0

    def verify_golden(self, golden_dir: str | Path) -> list[str]:
        """Compare every outcome against ``tests/golden``-style files.

        Returns a list of human-readable mismatch descriptions (empty =
        everything matches).  Models without a golden file are reported
        as mismatches — a silently skipped comparison is how stale
        caches survive review.
        """
        golden_dir = Path(golden_dir)
        problems: list[str] = []
        for outcome in self.outcomes:
            stem = (
                f"{outcome.model}.fused"
                if outcome.config in FUSED_CONFIGS
                else outcome.model
            )
            path = golden_dir / f"{stem}.json"
            if not path.exists():
                problems.append(f"{outcome.model}: no golden file {path}")
                continue
            expected = json.loads(path.read_text()).get(outcome.config)
            if expected is None:
                problems.append(
                    f"{outcome.model}.{outcome.config}: not in golden file"
                )
            elif expected != outcome.fingerprint:
                diffs = [
                    f"{key}: golden={expected.get(key)!r} "
                    f"actual={outcome.fingerprint.get(key)!r}"
                    for key in sorted(set(expected) | set(outcome.fingerprint))
                    if expected.get(key) != outcome.fingerprint.get(key)
                ]
                problems.append(
                    f"{outcome.model}.{outcome.config}: " + "; ".join(diffs)
                )
        return problems


#: Per-process memo of built graphs by model.  Zoo builds are
#: deterministic and ``run_lcmm`` treats its inputs as read-only, so one
#: graph serves every job of its model in a process, every precision
#: included, and the analyses the graph holds
#: (``ComputationGraph.derived``) are built once.
_GRAPH_MEMO: dict[str, "ComputationGraph"] = {}

#: Per-process memo of graph digests by model: every configuration and
#: precision of one model keys the same graph.
_DIGEST_MEMO: dict[str, str] = {}

#: Per-process memo of content keys by (model, config, precision).  The
#: key is content-derived on first use; memoising the derivation lets a
#: warm batch answer hits without rebuilding the model graph at all.
_KEY_MEMO: dict[tuple[str, str, str], str] = {}


def zoo_design(
    model_name: str, precision_name: str
) -> tuple["ComputationGraph", "AcceleratorConfig"]:
    """The (graph, reference design) of one zoo model at one precision.

    The graph is the process's one build of the model; the design is
    derived afresh (a few microseconds).  Compile and DSE jobs on the
    pair share one :func:`~repro.perf.latency.design_model`.

    Raises:
        repro.errors.ModelNotFoundError: Unknown model.
        repro.errors.PrecisionNotFoundError: Unknown precision.
    """
    from repro.analysis.reference import model_reference_design
    from repro.hw.precision import precision_by_name

    model_name = canonical_model_name(model_name)
    graph = _GRAPH_MEMO.get(model_name)
    if graph is None:
        # Threads that build the same graph at once settle on one.
        graph = _GRAPH_MEMO.setdefault(model_name, get_model(model_name))
    accel = model_reference_design(
        model_name, precision_by_name(precision_name), "lcmm"
    )
    return graph, accel


def _job_key(model_name: str, config: str, precision_name: str) -> str:
    """The content key of one job; aliases key as their canonical name.

    Raises:
        repro.errors.ModelNotFoundError: Unknown model.
        repro.errors.ConfigError: Unknown configuration label.
    """
    model_name = canonical_model_name(model_name)
    memo = (model_name, config, precision_name)
    key = _KEY_MEMO.get(memo)
    if key is None:
        options = standard_options(config)
        graph, accel = zoo_design(model_name, precision_name)
        digest = _DIGEST_MEMO.get(model_name)
        if digest is None:
            digest = _DIGEST_MEMO[model_name] = graph_fingerprint(graph)
        # Matches the key run_lcmm(cache=...) derives, so batch artifacts
        # and `lcmm run --cache` artifacts are interchangeable.
        key = compile_key_for_digest(digest, accel, options)
        _KEY_MEMO[memo] = key
    return key


def preload_compiler() -> None:
    """Import the compiler before forking workers.

    Forked workers inherit what the parent has imported; without this a
    parent that has not compiled yet leaves every worker to import the
    compiler during its first cold compile.
    """
    import repro.lcmm.framework  # noqa: F401


def _cached_outcome(
    cache, model_name: str, config: str, precision_name: str
) -> CompileOutcome | None:
    """One job answered from ``cache``'s stored reply, or ``None`` on a miss.

    An artifact stored without a reply is read whole and its reply
    rebuilt, so it still counts as one hit.
    """
    start = time.perf_counter()
    key = _job_key(model_name, config, precision_name)
    reply = cache.get_reply(key)
    if reply is None and cache.contains(key):
        result = cache.get(key)
        reply = None if result is None else result_reply(result)
    if reply is None:
        return None
    return CompileOutcome(
        model=model_name,
        config=config,
        precision=precision_name,
        compile_key=key,
        cache_hit=True,
        seconds=time.perf_counter() - start,
        **reply,
    )


def compile_job(
    model_name: str,
    config: str,
    precision_name: str,
    cache_dir: str | None,
) -> CompileOutcome:
    """Answer one (model, configuration) job — process-pool safe.

    Top level so pools can pickle it; opens its own handle on the shared
    cache directory and looks the key up first, so an artifact another
    writer stored meanwhile is still a hit.  A miss compiles and stores
    the result with its reply, but only a clean (level-0) result, as
    ``run_lcmm(cache=...)`` does.  Every configuration of one design
    compiles on the process's shared latency model
    (:func:`~repro.perf.latency.design_model`).

    Raises:
        repro.errors.ModelNotFoundError: Unknown model.
        repro.errors.ConfigError: Unknown configuration label.
    """
    from repro.cache.store import CompilationCache

    cache = CompilationCache(cache_dir) if cache_dir is not None else None
    if cache is not None:
        outcome = _cached_outcome(cache, model_name, config, precision_name)
        if outcome is not None:
            return outcome
    from repro.lcmm.framework import run_lcmm, umm_only_result
    from repro.perf.latency import design_model

    start = time.perf_counter()
    key = _job_key(model_name, config, precision_name)
    graph, accel = zoo_design(model_name, precision_name)
    model = design_model(graph, accel)
    options = standard_options(config)
    if options is None:
        # The UMM floor bypasses the pass machinery entirely.
        result = umm_only_result(graph, accel, model=model)
    else:
        result = run_lcmm(graph, accel, options=options, model=model)
    reply = result_reply(result)
    if cache is not None and result.degradation_level == 0:
        cache.put(key, result, reply=reply)
    return CompileOutcome(
        model=model_name,
        config=config,
        precision=precision_name,
        compile_key=key,
        cache_hit=False,
        seconds=time.perf_counter() - start,
        **reply,
    )


def _compile_group(
    model_name: str, configs: list[str], precision_name: str, cache_dir: str | None
) -> list[CompileOutcome]:
    """One design's missed jobs, in order, in one pool worker."""
    return [
        compile_job(model_name, config, precision_name, cache_dir)
        for config in configs
    ]


def batch_compile(
    models: list[str] | None = None,
    configs: list[str] | None = None,
    precision: str = "int8",
    cache_dir: str | Path | None = None,
    workers: int = 1,
) -> BatchReport:
    """Compile a model/configuration matrix with cache reuse.

    Every key is derived and every artifact read in the calling
    process first; only the misses are compiled.

    Args:
        models: Zoo model names (default: the whole zoo).
        configs: Configuration labels from :data:`STANDARD_CONFIGS`
            (default: all of them).
        precision: Arithmetic precision name.
        cache_dir: Shared cache directory; ``None`` disables caching
            (every job compiles).
        workers: Process count for the misses.  ``1`` compiles
            in-process; higher values shard the misses over a pool by
            model, one task per model with a miss, clamped to the count
            of such models, so each worker characterises a design once
            and a batch of hits uses one process.  A pool that cannot be
            created falls back to in-process compilation (reported via
            ``pool_unavailable``), exactly like the DSE sweep.

    Raises:
        repro.errors.ConfigError: On unknown configuration labels or
            ``workers < 1``.
        repro.errors.ModelNotFoundError: On unknown model names.
    """
    if workers < 1:
        raise ConfigError("workers must be at least 1", details={"workers": workers})
    models = list(models) if models else list_models()
    configs = list(configs) if configs else list(STANDARD_CONFIGS)
    for config in configs:
        standard_options(config)  # validate labels before spawning anything
    known = set(list_models())
    for model in models:
        if model not in known:
            raise ModelNotFoundError(
                f"unknown model {model!r}; known: {', '.join(sorted(known))}"
            )
    jobs = [(model, config) for model in models for config in configs]
    cache_str = str(cache_dir) if cache_dir is not None else None
    start = time.perf_counter()
    pool_unavailable = False
    with obs.span("cache.batch-compile", jobs=len(jobs)) as batch_span:
        outcomes: list[CompileOutcome | None] = [None] * len(jobs)
        if cache_str is not None:
            from repro.cache.store import CompilationCache

            cache = CompilationCache(cache_str)
            outcomes = [
                _cached_outcome(cache, model, config, precision)
                for model, config in jobs
            ]
        missed = [i for i, outcome in enumerate(outcomes) if outcome is None]
        # Misses by model, in job order: one pool task per design.
        groups: dict[str, list[int]] = {}
        for i in missed:
            groups.setdefault(jobs[i][0], []).append(i)
        workers = min(workers, len(groups)) if groups else 1
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            preload_compiler()
            try:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    futures = {
                        pool.submit(
                            _compile_group,
                            model,
                            [jobs[i][1] for i in indices],
                            precision,
                            cache_str,
                        ): indices
                        for model, indices in groups.items()
                    }
                    for future, indices in futures.items():
                        for i, outcome in zip(indices, future.result()):
                            outcomes[i] = outcome
            except ReproError:
                raise
            except (OSError, RuntimeError, PicklingError):
                pool_unavailable = True
        for i in missed:
            if outcomes[i] is None:
                outcomes[i] = compile_job(*jobs[i], precision, cache_str)
        report = BatchReport(
            outcomes=outcomes,
            seconds=time.perf_counter() - start,
            workers=workers,
            pool_unavailable=pool_unavailable,
        )
        batch_span.annotate(
            "batch-complete", hits=report.hits, misses=report.misses, workers=workers
        )
    return report
