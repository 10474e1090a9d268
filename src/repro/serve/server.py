"""The ``lcmm serve`` daemon: asyncio front door over the compile service.

One process, one event loop, zero dependencies.  The server owns
*admission* — everything that decides whether a request deserves a
worker slot — and delegates execution to
:class:`~repro.serve.service.CompileService`.  A request passes, in
order:

1. **Drain gate** — a draining server sheds new work (503) while
   letting in-flight jobs finish.
2. **Tenant quota** — the per-tenant token bucket
   (:mod:`repro.serve.quota`); an empty bucket sheds with 429 and an
   honest ``Retry-After``.
3. **Bounded queue** — at most ``queue_depth`` requests may wait for
   the ``max_inflight`` execution slots; a full queue sheds with 429
   immediately rather than building an invisible backlog.
4. **Slot wait under deadline** — queue time burns the request's own
   budget; a deadline that expires while queued answers 504 without
   ever touching the pool.

Every response is JSON with a ``request_id``; the last 256 requests
keep a bounded per-request event trace downloadable from
``/v1/requests/{id}/trace``.  ``/metrics`` renders the process metrics
registry in Prometheus text format, ``/healthz`` is pure liveness, and
``/readyz`` goes unready while draining or while the pool's circuit is
open.

The ``serve.accept`` fault point fires once per parsed request, on a
thread (so an armed ``hang`` simulates a slow front door without
freezing the event loop for unrelated connections).
"""

from __future__ import annotations

import asyncio
import itertools
import math
import signal
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro.errors import (
    DeadlineExceeded,
    OverloadedError,
    ReproError,
    http_status,
)
from repro.obs.export import prometheus_text
from repro.obs.metrics import registry
from repro.robustness.inject import declare_fault_point, fault_point
from repro.serve.http import (
    HttpError,
    Request,
    json_response,
    read_request,
    response_bytes,
)
from repro.serve.quota import QuotaManager
from repro.serve.service import CompileService, ServiceConfig

__all__ = ["CompileServer", "ServerConfig", "ServerThread"]

declare_fault_point("serve.accept", "one parsed request entering the front door")

#: Requests whose traces are kept for /v1/requests/{id}/trace.
TRACE_HISTORY = 256


def _is_deadline(value: Any) -> bool:
    """Whether a JSON ``deadline_seconds`` is a positive finite number.

    Booleans are not numbers here, and NaN, infinities and integers
    beyond float range are refused rather than clamped.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value) and value > 0
    except OverflowError:
        return False


def _is_byte_budget(value: Any) -> bool:
    """Whether a JSON ``budget_mb`` is a number with a finite byte count.

    Booleans are not numbers here, and a value whose bytes overflow a
    float (``1e309``, ``10**400``) is refused; a negative budget passes,
    so the sweep rejects it as unsatisfiable (422) rather than malformed.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value * 2**20)
    except OverflowError:
        return False


@dataclass
class ServerConfig:
    """Front-door tunables (execution tunables live in ServiceConfig).

    Attributes:
        host: Bind address.
        port: Bind port (0 = ephemeral; :meth:`CompileServer.start`
            returns the real one).
        max_inflight: Concurrent compute requests actually executing.
        queue_depth: Compute requests allowed to wait for a slot beyond
            ``max_inflight``; the excess is shed with 429.
        quota_rate: Per-tenant requests/second (``None`` disables quotas).
        quota_burst: Per-tenant burst capacity.
        drain_seconds: Grace given to in-flight jobs on shutdown.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_inflight: int = 4
    queue_depth: int = 16
    quota_rate: float | None = None
    quota_burst: float | None = None
    drain_seconds: float = 10.0


@dataclass
class ServerCounts:
    """Lifetime request accounting for /v1/stats."""

    requests: int = 0
    errors: int = 0
    shed: int = 0
    draining: bool = False

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "errors": self.errors,
            "shed": self.shed,
            "draining": self.draining,
        }


@dataclass
class _RequestRecord:
    """Bounded per-request trace, downloadable after the fact."""

    id: str
    method: str
    path: str
    received: float
    tenant: str | None = None
    status: int | None = None
    seconds: float | None = None
    events: list[dict] = field(default_factory=list)

    def event(self, name: str, **attrs: Any) -> None:
        self.events.append(
            {"name": name, "at": time.perf_counter(), **attrs}
        )

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "method": self.method,
            "path": self.path,
            "received": self.received,
            "tenant": self.tenant,
            "status": self.status,
            "seconds": self.seconds,
            "events": self.events,
        }


class CompileServer:
    """HTTP front door over one :class:`CompileService`."""

    def __init__(
        self, service: CompileService, config: ServerConfig | None = None
    ) -> None:
        self.service = service
        self.config = config or ServerConfig()
        self.quota = QuotaManager(self.config.quota_rate, self.config.quota_burst)
        self.counts = ServerCounts()
        self._slots = asyncio.Semaphore(self.config.max_inflight)
        self._waiting = 0
        self._active = 0
        self._draining = False
        self._drained = asyncio.Event()
        self._drained.set()
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._handlers: set[asyncio.Task] = set()
        self._ids = itertools.count(1)
        self._recent: OrderedDict[str, _RequestRecord] = OrderedDict()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and begin accepting; returns the actual (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def drain(self) -> bool:
        """Stop accepting, let in-flight work finish, close the pool.

        Returns ``True`` when every in-flight request completed within
        ``drain_seconds`` (a clean drain), ``False`` on a forced exit.
        """
        self._draining = True
        self.counts.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        clean = True
        if self._active or self._waiting:
            try:
                await asyncio.wait_for(
                    self._drained.wait(), self.config.drain_seconds
                )
            except asyncio.TimeoutError:
                clean = False
        # Idle keep-alive connections are just parked in read_request;
        # closing their transports sends EOF and lets the handlers exit.
        for writer in list(self._connections):
            writer.close()
        if self._handlers:
            await asyncio.wait(list(self._handlers), timeout=1.0)
        await self.service.close()
        return clean

    async def run(self) -> bool:
        """Serve until SIGTERM/SIGINT, then drain.  Returns drain cleanliness."""
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await stop.wait()
        return await self.drain()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    writer.write(
                        json_response(
                            exc.status,
                            {"error": {"type": "HttpError", "message": exc.message}},
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                response = await self._respond(request)
                writer.write(response)
                await writer.drain()
                if not request.keep_alive or self._draining:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        finally:
            self._connections.discard(writer)
            if task is not None:
                self._handlers.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, request: Request) -> bytes:
        start = time.perf_counter()
        record = _RequestRecord(
            id=f"r{next(self._ids):06d}",
            method=request.method,
            path=request.path,
            received=time.time(),
        )
        self._remember(record)
        self.counts.requests += 1
        content_type = "application/json"
        headers: dict[str, str] = {}
        try:
            await asyncio.to_thread(fault_point, "serve.accept", path=request.path)
            status, payload, headers, content_type = await self._dispatch(
                request, record
            )
        except HttpError as exc:
            status = exc.status
            payload = {
                "error": {"type": "HttpError", "message": exc.message},
            }
        except ReproError as exc:
            status = http_status(exc)
            payload = {
                "error": {
                    "type": type(exc).__name__,
                    "message": exc.message,
                    "context": exc.context(),
                }
            }
            if isinstance(exc, OverloadedError):
                self.counts.shed += 1
                retry_after = exc.details.get("retry_after")
                headers["Retry-After"] = str(
                    max(1, math.ceil(retry_after)) if retry_after else 1
                )
                self._count("serve.shed", reason=exc.details.get("reason", "unknown"))
        except Exception as exc:  # a bug, still answered in-protocol
            status = 500
            payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        record.status = status
        record.seconds = time.perf_counter() - start
        if status >= 400:
            self.counts.errors += 1
        self._count("serve.requests", route=request.path, status=status)
        registry().histogram(
            "serve.request_seconds", "front-door request latency"
        ).observe(record.seconds, route=request.path)
        if content_type != "application/json":
            return response_bytes(
                status,
                payload,
                content_type=content_type,
                headers=headers,
                keep_alive=request.keep_alive and not self._draining,
            )
        if isinstance(payload, dict) and "request_id" not in payload:
            payload["request_id"] = record.id
        return json_response(
            status,
            payload,
            headers=headers,
            keep_alive=request.keep_alive and not self._draining,
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch(
        self, request: Request, record: _RequestRecord
    ) -> tuple[int, Any, dict, str]:
        path, method = request.path, request.method
        if method == "GET":
            if path == "/healthz":
                return 200, {"status": "ok"}, {}, "application/json"
            if path == "/readyz":
                return self._readyz()
            if path == "/metrics":
                return self._metrics()
            if path == "/v1/stats":
                return (
                    200,
                    {
                        "server": self.counts.as_dict(),
                        "quota": self.quota.snapshot(),
                        "service": self.service.snapshot(),
                    },
                    {},
                    "application/json",
                )
            if path.startswith("/v1/requests/") and path.endswith("/trace"):
                return self._trace(path)
            raise HttpError(404, f"no route {method} {path}")
        if method == "POST":
            if path == "/v1/compile":
                return await self._compute(request, record, "compile")
            if path == "/v1/dse":
                return await self._compute(request, record, "dse")
            raise HttpError(404, f"no route {method} {path}")
        raise HttpError(405, f"method {method} not allowed")

    def _readyz(self) -> tuple[int, Any, dict, str]:
        breaker = self.service.breaker.state
        ready = not self._draining and breaker != "open"
        payload = {"ready": ready, "draining": self._draining, "breaker": breaker}
        return (200 if ready else 503), payload, {}, "application/json"

    def _metrics(self) -> tuple[int, Any, dict, str]:
        reg = registry()
        reg.gauge("serve.inflight", "compute requests holding a slot").set(
            self._active
        )
        reg.gauge("serve.queued", "compute requests waiting for a slot").set(
            self._waiting
        )
        body = prometheus_text(reg.snapshot()).encode()
        return 200, body, {}, "text/plain; version=0.0.4"

    def _trace(self, path: str) -> tuple[int, Any, dict, str]:
        request_id = path[len("/v1/requests/") : -len("/trace")]
        record = self._recent.get(request_id)
        if record is None:
            raise HttpError(404, f"no trace for request {request_id!r}")
        return 200, {"trace": record.as_dict()}, {}, "application/json"

    # ------------------------------------------------------------------
    # Compute admission + execution
    # ------------------------------------------------------------------
    async def _compute(
        self, request: Request, record: _RequestRecord, kind: str
    ) -> tuple[int, Any, dict, str]:
        if self._draining:
            raise OverloadedError(
                "server is draining",
                details={"reason": "draining", "retry_after": 1.0},
            )
        body = request.json()
        if not isinstance(body, dict):
            raise HttpError(400, "request body must be a JSON object")
        model = body.get("model")
        if not isinstance(model, str) or not model:
            raise HttpError(400, "'model' (string) is required")
        tenant = str(body.get("tenant") or "default")
        record.tenant = tenant
        deadline_s = body.get(
            "deadline_seconds", self.service.config.default_deadline
        )
        if not _is_deadline(deadline_s):
            raise HttpError(
                400, "'deadline_seconds' must be a positive finite number"
            )
        deadline_s = min(float(deadline_s), self.service.config.max_deadline)
        precision = body.get("precision")
        if precision is not None and not isinstance(precision, str):
            raise HttpError(400, "'precision' must be a string")
        if kind == "dse":
            budget_mb = body.get("budget_mb", 2.0)
            top = body.get("top", 5)
            if not _is_byte_budget(budget_mb):
                raise HttpError(400, "'budget_mb' must be a finite number")
            if isinstance(top, bool) or not isinstance(top, int) or top < 1:
                raise HttpError(400, "'top' must be an integer >= 1")

        allowed, retry_after = self.quota.admit(tenant)
        if not allowed:
            raise OverloadedError(
                "tenant quota exhausted",
                details={
                    "reason": "quota",
                    "tenant": tenant,
                    "retry_after": round(retry_after, 3),
                },
            )
        backlog = self._active + self._waiting
        if backlog >= self.config.max_inflight + self.config.queue_depth:
            raise OverloadedError(
                "request queue full",
                details={
                    "reason": "queue",
                    "retry_after": 1.0,
                    "backlog": backlog,
                    "queue_depth": self.config.queue_depth,
                },
            )
        deadline_epoch = time.time() + deadline_s
        record.event("admitted", kind=kind, deadline_seconds=deadline_s)
        self._waiting += 1
        self._drained.clear()
        try:
            try:
                await asyncio.wait_for(
                    self._slots.acquire(), max(0.0, deadline_epoch - time.time())
                )
            except asyncio.TimeoutError:
                raise DeadlineExceeded(
                    "deadline expired waiting for a worker slot",
                    details={"checkpoint": "serve.queue"},
                ) from None
        finally:
            self._waiting -= 1
            self._maybe_drained()
        self._active += 1
        record.event("slot-acquired")
        try:
            if kind == "compile":
                payload = await self.service.submit_compile(
                    model,
                    str(body.get("config", "splitting")),
                    precision,
                    deadline_epoch,
                )
            else:
                payload = await self.service.submit_dse(
                    model, precision, float(budget_mb), top, deadline_epoch
                )
        finally:
            self._active -= 1
            self._slots.release()
            self._maybe_drained()
            record.event("finished")
        payload["request_id"] = record.id
        payload["deadline_seconds"] = deadline_s
        return 200, payload, {}, "application/json"

    def _maybe_drained(self) -> None:
        if self._active == 0 and self._waiting == 0:
            self._drained.set()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _remember(self, record: _RequestRecord) -> None:
        self._recent[record.id] = record
        while len(self._recent) > TRACE_HISTORY:
            self._recent.popitem(last=False)

    @staticmethod
    def _count(name: str, **labels: Any) -> None:
        registry().counter(name).inc(**labels)


class ServerThread:
    """A daemon running on a private event loop in a thread.

    The in-process harness for tests and benchmarks: start, hit
    ``http://127.0.0.1:{port}``, stop (which drains).  Startup errors
    surface from :meth:`start` rather than dying silently in the thread.
    """

    def __init__(
        self,
        service_config: ServiceConfig | None = None,
        server_config: ServerConfig | None = None,
    ) -> None:
        self.service_config = service_config or ServiceConfig(inline=True, workers=2)
        self.server_config = server_config or ServerConfig()
        self.host: str | None = None
        self.port: int | None = None
        self.clean_drain: bool | None = None
        self.server: CompileServer | None = None
        self.error: BaseException | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread = threading.Thread(
            target=self._run, name="lcmm-serve", daemon=True
        )

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self, timeout: float = 30.0) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("serve thread failed to start in time")
        if self.error is not None:
            raise RuntimeError(f"serve thread failed to start: {self.error}")
        return self

    def stop(self, timeout: float = 30.0) -> bool:
        """Trigger a drain and join; returns drain cleanliness."""
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout)
        return bool(self.clean_drain)

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        except BaseException as exc:  # startup failures -> start()
            self.error = exc
        finally:
            self._ready.set()
            loop.close()

    async def _main(self) -> None:
        service = CompileService(self.service_config)
        self.server = CompileServer(service, self.server_config)
        self._stop = asyncio.Event()
        try:
            self.host, self.port = await self.server.start()
        except OSError as exc:
            self.error = exc
            return
        self._ready.set()
        await self._stop.wait()
        self.clean_drain = await self.server.drain()
