"""The compile service: single-flight, deadlines, retries, breaker.

This is the layer between the HTTP front door (:mod:`repro.serve.server`)
and the worker pools (:mod:`repro.serve.jobs`).  Its job is to make one
promise: **every request either returns an honestly-labeled result or a
structured taxonomy error, in bounded time** — no silent degradation, no
unbounded waits, no wedged event loop.

Mechanisms, in the order a request meets them:

* **Warm path** — the content key is derived first and looked up in the
  shared :class:`~repro.cache.store.CompilationCache` from the server
  process.  A hit returns without touching the pool, the breaker or the
  retry machinery: a broken pool is no reason to refuse a result that
  is already on disk.
* **Single-flight** — concurrent misses on the same key coalesce onto
  one pool job; followers await the leader's future under their own
  deadlines and are labeled ``"coalesced": true``.
* **Deadline** — the request's wall-clock deadline travels into the
  worker (cooperative checks at pass boundaries) *and* bounds the
  parent-side await with a small grace.  The worker raising
  :class:`~repro.errors.DeadlineExceeded` is the request's fault and
  does not count against the pool; the parent-side timeout firing means
  the worker blew past its own deadline — a wedged worker — so it trips
  the breaker and the executor is refreshed.
* **Retries** — transient :class:`~repro.errors.WorkerError` failures
  (a crashed worker, a broken executor) are retried with jittered
  exponential backoff on a refreshed pool, within the deadline.
* **Circuit breaker** — repeated pool failures open the circuit;
  submissions are then shed as :class:`~repro.errors.OverloadedError`
  (HTTP 429 + ``Retry-After``) until a half-open probe succeeds.

Taxonomy errors raised by the job itself (unknown model, infeasible
budget, an injected pass fault that exhausted the fallback chain)
propagate untouched — they are answers, not pool failures.
"""

from __future__ import annotations

import asyncio
import random
import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from typing import Any, Awaitable, Callable

from repro.errors import (
    DeadlineExceeded,
    OverloadedError,
    ReproError,
    WorkerError,
)
from repro.obs.metrics import registry
from repro.serve.breaker import CircuitBreaker
from repro.serve.jobs import (
    CompilePool,
    InlineWorkers,
    job_key,
    run_compile_job,
    run_dse_job,
)

__all__ = ["CompileService", "ServiceConfig"]


@dataclass
class ServiceConfig:
    """Tunables of one :class:`CompileService`.

    Attributes:
        cache_dir: Shared artifact cache directory (``None`` = no cache;
            every request compiles).
        workers: Worker count for the pool.
        inline: Run jobs on threads in-process instead of a process
            pool (fast tests/benchmarks; no crash isolation).
        precision: Default arithmetic precision for requests that omit it.
        default_deadline: Seconds granted to a request that names none.
        max_deadline: Cap on client-requested deadlines.
        retries: Transient worker-failure retries per request.
        retry_base: First backoff delay, seconds (doubles per attempt,
            jittered to 0.5x-1.5x).
        retry_cap: Upper bound on one backoff delay.
        breaker_threshold: Consecutive pool failures that open the circuit.
        breaker_reset: Circuit cool-down seconds before half-open probing.
        deadline_grace: Parent-side slack past the worker's own deadline
            before the await gives up and declares the worker wedged.
    """

    cache_dir: str | None = None
    workers: int = 2
    inline: bool = False
    precision: str = "int8"
    default_deadline: float = 60.0
    max_deadline: float = 600.0
    retries: int = 2
    retry_base: float = 0.05
    retry_cap: float = 2.0
    breaker_threshold: int = 5
    breaker_reset: float = 10.0
    deadline_grace: float = 0.5


class CompileService:
    """Async orchestration over one worker pool (one event loop only)."""

    def __init__(self, config: ServiceConfig, rng: random.Random | None = None) -> None:
        from repro.cache.store import CompilationCache

        self.config = config
        self.pool = (
            InlineWorkers(config.workers)
            if config.inline
            else CompilePool(config.workers)
        )
        self.breaker = CircuitBreaker(
            failure_threshold=config.breaker_threshold,
            reset_seconds=config.breaker_reset,
        )
        self.cache = (
            CompilationCache(config.cache_dir) if config.cache_dir is not None else None
        )
        self._inflight: dict[str, asyncio.Future] = {}
        self._rng = rng or random.Random(0x5E12E)

    # ------------------------------------------------------------------
    # Public entry points (called from the event loop)
    # ------------------------------------------------------------------
    async def submit_compile(
        self,
        model: str,
        config_label: str,
        precision: str | None = None,
        deadline_epoch: float | None = None,
    ) -> dict:
        """One compile request end to end (warm path, coalescing, pool)."""
        precision = precision or self.config.precision
        key = await asyncio.to_thread(job_key, model, config_label, precision)
        if self.cache is not None:
            warm = await asyncio.to_thread(
                self._warm_lookup, key, model, config_label, precision
            )
            if warm is not None:
                self._count("serve.warm_hits")
                return warm
        return await self._single_flight(
            key,
            deadline_epoch,
            lambda: self._execute(
                run_compile_job,
                (model, config_label, precision, self.config.cache_dir, deadline_epoch),
                deadline_epoch,
            ),
        )

    async def submit_dse(
        self,
        model: str,
        precision: str | None = None,
        budget_mb: float = 2.0,
        top: int = 5,
        deadline_epoch: float | None = None,
    ) -> dict:
        """One DSE sweep request (single-flight on its full parameter set)."""
        from repro.models.zoo import canonical_model_name

        precision = precision or self.config.precision
        # Validate before queueing, without building the graph; aliases
        # share the canonical name's single-flight key and design.
        model = canonical_model_name(model)
        key = f"dse:{model}:{precision}:{budget_mb}:{top}"
        return await self._single_flight(
            key,
            deadline_epoch,
            lambda: self._execute(
                run_dse_job,
                (model, precision, budget_mb, top, self.config.cache_dir, deadline_epoch),
                deadline_epoch,
            ),
        )

    async def close(self) -> None:
        """Shut the pool down (idempotent)."""
        await asyncio.to_thread(self.pool.close)

    def snapshot(self) -> dict:
        """Service state for ``/v1/stats``."""
        return {
            "inflight_keys": len(self._inflight),
            "pool": {
                "kind": type(self.pool).__name__,
                "workers": self.pool.workers,
                "warm": self.pool.is_warm(),
                "generation": self.pool.generation,
                "init_seconds_total": self.pool.init_seconds_total,
            },
            "breaker": self.breaker.snapshot(),
            "cache": self.cache.stats.as_dict() if self.cache is not None else None,
        }

    # ------------------------------------------------------------------
    # Warm path (runs in a thread)
    # ------------------------------------------------------------------
    def _warm_lookup(
        self, key: str, model: str, config_label: str, precision: str
    ) -> dict | None:
        from repro.cache.batch import CompileOutcome
        from repro.fingerprint import result_reply

        start = time.perf_counter()
        result = self.cache.get(key)
        if result is None:
            return None
        reply = result_reply(result)
        return CompileOutcome(
            model=model,
            config=config_label,
            precision=precision,
            compile_key=key,
            cache_hit=True,
            seconds=time.perf_counter() - start,
            **reply,
        ).as_payload()

    # ------------------------------------------------------------------
    # Single-flight
    # ------------------------------------------------------------------
    async def _single_flight(
        self,
        key: str,
        deadline_epoch: float | None,
        thunk: Callable[[], Awaitable[dict]],
    ) -> dict:
        existing = self._inflight.get(key)
        if existing is not None:
            self._count("serve.coalesced")
            payload = dict(await self._await_shared(existing, deadline_epoch))
            payload["coalesced"] = True
            return payload
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        try:
            payload = await thunk()
        except BaseException as exc:
            if not future.done():
                future.set_exception(exc)
                future.exception()  # leader re-raises; mark retrieved here
            raise
        else:
            if not future.done():
                future.set_result(payload)
            return payload
        finally:
            self._inflight.pop(key, None)

    async def _await_shared(
        self, future: asyncio.Future, deadline_epoch: float | None
    ) -> dict:
        try:
            return await asyncio.wait_for(
                asyncio.shield(future), self._timeout_for(deadline_epoch)
            )
        except asyncio.TimeoutError:
            raise DeadlineExceeded(
                "deadline expired awaiting the coalesced leader",
                details={"checkpoint": "serve.coalesce"},
            ) from None

    # ------------------------------------------------------------------
    # Pool execution: breaker -> submit -> retry
    # ------------------------------------------------------------------
    async def _execute(
        self, fn: Callable, args: tuple, deadline_epoch: float | None
    ) -> dict:
        if not self.breaker.allow():
            retry_after = self.breaker.retry_after()
            raise OverloadedError(
                "compile pool circuit open",
                details={"reason": "breaker", "retry_after": round(retry_after, 3)},
            )
        attempt = 0
        while True:
            try:
                payload = await self._submit_once(fn, args, deadline_epoch)
            except DeadlineExceeded:
                raise  # breaker accounting already settled in _submit_once
            except WorkerError:
                self.breaker.record_failure()
                await asyncio.to_thread(self.pool.refresh)
                if attempt >= self.config.retries or self._expired(deadline_epoch):
                    raise
                delay = min(
                    self.config.retry_cap, self.config.retry_base * (2**attempt)
                ) * (0.5 + self._rng.random())
                attempt += 1
                self._count("serve.retries")
                await asyncio.sleep(delay)
            else:
                self.breaker.record_success()
                if payload.get("degradation_level"):
                    self._count("serve.degraded_results")
                return payload

    async def _submit_once(
        self, fn: Callable, args: tuple, deadline_epoch: float | None
    ) -> dict:
        try:
            executor, _ = await asyncio.to_thread(self.pool.ensure)
        except ReproError:
            raise
        except (OSError, RuntimeError) as exc:
            raise WorkerError(
                f"worker pool unavailable: {exc}", details={"phase": "ensure"}
            ) from exc
        future = executor.submit(fn, *args)
        try:
            return await asyncio.wait_for(
                asyncio.wrap_future(future), self._timeout_for(deadline_epoch)
            )
        except asyncio.TimeoutError:
            # The worker blew past its own cooperative deadline plus
            # grace: treat it as wedged.  Refreshing strands the stuck
            # job with the old executor instead of the slot.
            future.cancel()
            self.breaker.record_failure()
            await asyncio.to_thread(self.pool.refresh)
            raise DeadlineExceeded(
                "job ran past the request deadline",
                details={
                    "checkpoint": "serve.await",
                    "grace": self.config.deadline_grace,
                },
            ) from None
        except BrokenExecutor as exc:
            raise WorkerError(
                f"worker pool broke mid-job: {exc}", details={"phase": "run"}
            ) from exc
        except asyncio.CancelledError:
            if future.cancelled():
                # The concurrent future was cancelled under us (pool
                # shutdown mid-flight) — a pool failure, not a task
                # cancellation.
                raise WorkerError(
                    "job cancelled by pool shutdown", details={"phase": "run"}
                ) from None
            raise

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _timeout_for(self, deadline_epoch: float | None) -> float | None:
        if deadline_epoch is None:
            return None
        return max(0.0, deadline_epoch - time.time()) + self.config.deadline_grace

    @staticmethod
    def _expired(deadline_epoch: float | None) -> bool:
        return deadline_epoch is not None and time.time() >= deadline_epoch

    @staticmethod
    def _count(name: str, **labels: Any) -> None:
        registry().counter(name).inc(**labels)
