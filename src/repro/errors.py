"""Unified exception taxonomy for the whole compiler stack.

Every failure the reproduction can raise on purpose derives from
:class:`ReproError`, so callers — the CLI, the fallback chain in
:func:`repro.lcmm.framework.run_lcmm`, services embedding the compiler —
can catch one root type and still see *structured* context: which pass
failed, which node or artifact was involved, and any supporting values.

Design rules:

* Subclasses keep a legacy built-in base (``ValueError``, ``KeyError``,
  ``RuntimeError``) where pre-taxonomy code raised one, so existing
  ``except ValueError`` handlers keep working during the migration.
* Nothing here subclasses ``AssertionError``: invariant violations
  (:class:`AllocationError`) must survive ``python -O``-style reasoning
  and must not be swallowed by broad ``except AssertionError`` handlers.
* All classes pickle cleanly (context travels via keyword defaults), so
  they can cross process-pool boundaries intact — the DSE workers rely
  on this.
"""

from __future__ import annotations

from typing import Any, Mapping


class ReproError(Exception):
    """Root of the taxonomy: a message plus optional structured context.

    Attributes:
        message: The human-readable description.
        pass_name: Compilation pass involved, when known.
        node: Graph node involved, when known.
        artifact: Context artifact involved, when known.
        details: Free-form supporting values (byte counts, chunk
            indices, ...).
    """

    def __init__(
        self,
        message: str,
        *,
        pass_name: str | None = None,
        node: str | None = None,
        artifact: str | None = None,
        details: Mapping[str, Any] | None = None,
    ) -> None:
        super().__init__(message)
        self.message = message
        self.pass_name = pass_name
        self.node = node
        self.artifact = artifact
        self.details: dict[str, Any] = dict(details or {})

    def context(self) -> dict[str, Any]:
        """The non-empty structured context, one flat dict."""
        ctx: dict[str, Any] = {}
        if self.pass_name is not None:
            ctx["pass"] = self.pass_name
        if self.node is not None:
            ctx["node"] = self.node
        if self.artifact is not None:
            ctx["artifact"] = self.artifact
        ctx.update(self.details)
        return ctx

    def __str__(self) -> str:
        ctx = self.context()
        if not ctx:
            return self.message
        rendered = ", ".join(f"{key}={value!r}" for key, value in ctx.items())
        return f"{self.message} [{rendered}]"

    def __reduce__(self):
        # Keyword-only context does not round-trip through the default
        # Exception pickling (which replays positional args); rebuild
        # explicitly so errors cross process-pool boundaries intact.
        return (
            _rebuild_error,
            (
                type(self),
                self.message,
                self.pass_name,
                self.node,
                self.artifact,
                self.details,
            ),
        )


def _rebuild_error(cls, message, pass_name, node, artifact, details):
    return cls(
        message, pass_name=pass_name, node=node, artifact=artifact, details=details
    )


class GraphValidationError(ReproError, ValueError):
    """A computation graph is malformed: cycles, dangling tensor refs,
    duplicate or unreachable layers, missing inputs."""


class ConfigError(ReproError, ValueError):
    """An accelerator/run configuration is invalid (bad worker count,
    unknown style, non-positive parameter...)."""


class ModelNotFoundError(ConfigError, KeyError):
    """A model name matches nothing in the zoo."""


class PrecisionNotFoundError(ConfigError, KeyError):
    """A precision name matches no known precision or alias."""


class CapacityError(ReproError, ValueError):
    """A memory budget cannot be satisfied: tile buffers exceed the SRAM
    budget, no tile configuration fits, non-positive budget."""


class PassError(ReproError, RuntimeError):
    """A compilation pass failed; carries the pass name and, via
    ``__cause__``, the original exception."""


class PipelineError(PassError):
    """A pipeline is malformed: unknown pass, or artifact contract broken."""


class AllocationError(ReproError):
    """An LCMM result violates a structural invariant.

    Historically subclassed ``AssertionError``; rebased onto the taxonomy
    so optimized runs and broad ``except AssertionError`` handlers can
    never swallow a real invariant violation.
    """


class WorkerError(ReproError, RuntimeError):
    """A parallel worker (DSE process pool) failed beyond recovery."""


class DeadlineExceeded(ReproError, TimeoutError):
    """A compilation ran past its caller-supplied deadline.

    Raised by :func:`repro.robustness.deadline.check_deadline` at pass
    boundaries (and by the serving front door when a request times out
    end to end).  Deliberately *not* absorbed by the degradation chain:
    once the budget is spent, falling back would only burn more of it,
    so :func:`repro.lcmm.framework.run_lcmm` re-raises instead of
    degrading.
    """


class InjectedFault(ReproError, RuntimeError):
    """Raised by the fault-injection harness at an armed fault point."""


class OverloadedError(ReproError, RuntimeError):
    """The serving front door shed this request (queue full, quota
    exhausted, circuit open, or draining).  Carries ``retry_after``
    seconds in ``details`` when a retry hint is known."""


# ----------------------------------------------------------------------
# Outcome mapping: exceptions -> CLI exit codes and HTTP statuses
# ----------------------------------------------------------------------

#: Exit status for internal failures (worker crashes, pass bugs,
#: injected faults with fallback disabled...).
EXIT_INTERNAL = 1

#: Exit status for user/configuration errors (unknown model, malformed
#: graph, infeasible budget, bad flag values).
EXIT_USER = 2


def _is_user_error(exc: BaseException) -> bool:
    """Whether the failure is the caller's input, not the compiler."""
    return isinstance(exc, (ConfigError, GraphValidationError, CapacityError))


def exit_code(exc: BaseException) -> int:
    """The CLI exit status for an exception (see README error table).

    User and configuration errors — the caller can fix the invocation —
    exit :data:`EXIT_USER` (2); internal and worker failures exit
    :data:`EXIT_INTERNAL` (1).
    """
    return EXIT_USER if _is_user_error(exc) else EXIT_INTERNAL


def http_status(exc: BaseException) -> int:
    """The HTTP status the compilation service maps an exception to.

    * 400 — malformed request: unknown model, bad options, invalid graph.
    * 422 — well-formed but unsatisfiable: a memory budget that cannot fit.
    * 429 — shed by admission control or a tenant quota.
    * 503 — transient internal trouble (worker pool down, circuit open).
    * 504 — the request's deadline expired before a result landed.
    * 500 — any other internal failure.
    """
    if isinstance(exc, CapacityError):
        return 422
    if isinstance(exc, (ConfigError, GraphValidationError)):
        return 400
    if isinstance(exc, OverloadedError):
        return 429
    if isinstance(exc, DeadlineExceeded):
        return 504
    if isinstance(exc, WorkerError):
        return 503
    return 500
