"""Content-addressed compilation cache + batch compile front-end.

Compiling the same model against the same design point twice is pure
waste, and schedule/allocation search spaces are dominated by repeated
evaluation of near-identical configurations.  This package eliminates
both:

* :class:`CompilationCache` (:mod:`repro.cache.store`) — a persistent
  disk store of pickled :class:`~repro.lcmm.framework.LCMMResult`
  artifacts keyed by :func:`repro.fingerprint.compile_key`, with a
  bounded in-memory LRU in front.  ``run_lcmm(..., cache=...)`` and
  ``explore_space(..., cache=...)`` consume it; caching is **off by
  default** everywhere.
* :func:`batch_compile` (:mod:`repro.cache.batch`) — compiles a
  model/configuration matrix across a worker pool with cache reuse
  (``lcmm batch-compile`` on the command line).

Key derivation, invalidation-by-construction and the cache schema
version live in :mod:`repro.fingerprint`; usage and CLI examples in
``docs/caching.md``.
"""

from repro.cache.batch import (
    BatchReport,
    CompileOutcome,
    STANDARD_CONFIGS,
    batch_compile,
    standard_options,
)
from repro.cache.store import CacheStats, CompilationCache

__all__ = [
    "BatchReport",
    "CacheStats",
    "CompilationCache",
    "CompileOutcome",
    "STANDARD_CONFIGS",
    "batch_compile",
    "standard_options",
]
