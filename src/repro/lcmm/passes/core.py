"""Pass infrastructure: Pass protocol, CompilationContext, PassManager.

The LCMM flow (Fig. 4 of the paper) is literally a compiler pipeline —
feature reuse, prefetching, knapsack allocation, splitting — so it is
organised as one: each technique is a :class:`Pass` over a shared
:class:`CompilationContext`, and a :class:`PassManager` executes a
declarative pass list with uniform per-pass wall-time accounting,
requires/produces validation and structured :class:`PassDiagnostic`
records.

Passes communicate exclusively through named context *artifacts*
(``"feature"``, ``"prefetch"``, ``"allocation"``, ``"score"``,
``"placement"``, ``"fractions"``).  An artifact is replaced, never
patched in place: a pass that refines an earlier result publishes a new
object under the same key, so every intermediate stays a consistent
value (see the buffer-splitting recolour, which used to mutate
``FeatureReuseResult.buffers`` after the fact).

A module-level registry maps pass names to classes; user-defined passes
register with :func:`register_pass` and slot into any pipeline without
touching the framework (``examples/custom_pipeline.py``).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.errors import CapacityError, PassError, PipelineError, ReproError
from repro.obs.spans import span, timed_span
from repro.hw.sram import BRAM36_BYTES, blocks_for
from repro.ir.graph import ComputationGraph
from repro.lcmm.options import LCMMOptions
from repro.perf.engine import AllocationEngine, EngineStats
from repro.perf.latency import LatencyModel
from repro.perf.systolic import AcceleratorConfig
from repro.robustness.deadline import check_deadline
from repro.robustness.inject import declare_fault_point, fault_point

__all__ = [
    "CompilationContext",
    "Pass",
    "PassDiagnostic",
    "PassExecution",
    "PassManager",
    "PipelineError",
    "PASS_REGISTRY",
    "make_pass",
    "pipeline_from_names",
    "register_pass",
    "registered_passes",
]


@dataclass(frozen=True)
class PassDiagnostic:
    """One structured observation emitted by a pass.

    Attributes:
        pass_name: The emitting pass.
        category: Machine-matchable kebab-case tag (e.g.
            ``"split-accepted"``, ``"fusion-rejected"``).
        message: Human-readable one-liner for ``lcmm run --explain``.
        data: Supporting values (byte counts, latency deltas, tensor
            names) for programmatic consumers.
    """

    pass_name: str
    category: str
    message: str
    data: Mapping[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        return f"[{self.pass_name}] {self.message}"


@dataclass(frozen=True)
class PassExecution:
    """Record of one executed pass: name, wall time, artifacts written."""

    name: str
    seconds: float
    produced: tuple[str, ...]


@dataclass
class CompilationContext:
    """Everything the passes share: inputs, evaluators, artifacts.

    Attributes:
        graph: The DNN computation graph under compilation.
        accel: The accelerator design point.
        options: Feature switches (passes read their knobs from here).
        model: Exact Eq. 1 latency model.
        engine: The incremental Eq. 1 evaluator every pass scores with.
        stats: The engine's counters/timing sink.
        budget: Total SRAM bytes available to LCMM (tile buffers
            included).
        capacity: Bytes left for tensor buffers after the block-rounded
            tile-buffer footprint.
        artifacts: Named pass outputs; replaced, never mutated.
        diagnostics: Structured records accumulated across all passes.
    """

    graph: ComputationGraph
    accel: AcceleratorConfig
    options: LCMMOptions
    model: LatencyModel
    engine: AllocationEngine
    stats: EngineStats
    budget: int
    capacity: int
    artifacts: dict[str, Any] = field(default_factory=dict)
    diagnostics: list[PassDiagnostic] = field(default_factory=list)

    @classmethod
    def create(
        cls,
        graph: ComputationGraph,
        accel: AcceleratorConfig,
        options: LCMMOptions | None = None,
        model: LatencyModel | None = None,
    ) -> "CompilationContext":
        """Build a context: latency model, engine, capacity accounting.

        Raises:
            repro.errors.CapacityError: When the tile buffers alone
                exceed the SRAM budget — no tensor allocation is
                possible (remains catchable as ``ValueError``).
        """
        options = options or LCMMOptions()
        model = model or LatencyModel(graph, accel)
        with span("engine.build", graph=graph.name, nodes=len(model.nodes())):
            engine = AllocationEngine(model)
        budget = options.sram_budget
        if budget is None:
            budget = accel.device.sram_bytes
        # Tile buffers consume whole BRAM blocks; subtract the block-rounded
        # footprint so block-level placement can never overflow.
        tile_bytes = blocks_for(accel.tile_buffer_bytes(), BRAM36_BYTES) * BRAM36_BYTES
        capacity = budget - tile_bytes
        if capacity < 0:
            raise CapacityError(
                f"tile buffers alone exceed the SRAM budget ({tile_bytes} > {budget} bytes)",
                details={"tile_bytes": tile_bytes, "budget": budget},
            )
        return cls(
            graph=graph,
            accel=accel,
            options=options,
            model=model,
            engine=engine,
            stats=engine.stats,
            budget=budget,
            capacity=capacity,
        )

    # -- artifact access ------------------------------------------------
    def has(self, key: str) -> bool:
        """Whether an artifact has been produced."""
        return key in self.artifacts

    def get(self, key: str, default: Any = None) -> Any:
        """An artifact, or ``default`` when no pass produced it."""
        return self.artifacts.get(key, default)

    def require(self, key: str) -> Any:
        """An artifact that must exist; raises :class:`PipelineError`."""
        try:
            return self.artifacts[key]
        except KeyError:
            raise PipelineError(
                f"artifact {key!r} required but no executed pass produced it"
            ) from None

    def put(self, key: str, value: Any) -> None:
        """Publish (or replace) an artifact."""
        self.artifacts[key] = value

    def diagnose(self, pass_name: str, category: str, message: str, **data: Any) -> None:
        """Append one structured diagnostic record."""
        self.diagnostics.append(
            PassDiagnostic(
                pass_name=pass_name, category=category, message=message, data=data
            )
        )


class Pass(abc.ABC):
    """One stage of the LCMM pipeline.

    Subclasses declare a unique ``name``, the artifacts they consume
    (``requires``) and publish (``produces``), and implement
    :meth:`run`.  Declared artifacts are contracts the PassManager
    enforces before and after each run; optional inputs a pass can
    default (e.g. the allocator treating a missing ``"prefetch"`` as
    empty) are read with ``ctx.get`` and deliberately left undeclared.
    """

    #: Registry identity; also the per-pass timing key.
    name: str = ""
    #: Artifacts that must exist before this pass runs.
    requires: tuple[str, ...] = ()
    #: Artifacts guaranteed to exist after this pass runs.
    produces: tuple[str, ...] = ()

    @abc.abstractmethod
    def run(self, ctx: CompilationContext) -> None:
        """Execute against the shared context."""

    @classmethod
    def describe(cls) -> str:
        """First docstring line — the ``lcmm passes`` summary."""
        doc = cls.__doc__ or ""
        return doc.strip().splitlines()[0] if doc.strip() else ""


#: All registered pass classes by name (populated by :func:`register_pass`).
PASS_REGISTRY: dict[str, type[Pass]] = {}


def register_pass(cls: type[Pass]) -> type[Pass]:
    """Class decorator adding a pass to the global registry.

    Raises:
        PipelineError: On a missing or already-registered name.
    """
    if not cls.name:
        raise PipelineError(f"pass class {cls.__name__} has no name")
    if cls.name in PASS_REGISTRY:
        raise PipelineError(f"pass name {cls.name!r} already registered")
    PASS_REGISTRY[cls.name] = cls
    declare_fault_point(f"pass.{cls.name}", cls.describe())
    return cls


def registered_passes() -> dict[str, type[Pass]]:
    """The registry, sorted by pass name."""
    return dict(sorted(PASS_REGISTRY.items()))


def make_pass(name: str) -> Pass:
    """Instantiate a registered pass by name.

    Raises:
        PipelineError: On an unknown name.
    """
    try:
        return PASS_REGISTRY[name]()
    except KeyError:
        known = ", ".join(sorted(PASS_REGISTRY))
        raise PipelineError(f"unknown pass {name!r}; registered: {known}") from None


def pipeline_from_names(names: Iterable[str]) -> list[Pass]:
    """Assemble a pipeline from registered pass names, in order."""
    return [make_pass(name) for name in names]


class PassManager:
    """Executes a pass list over a context with timing and validation.

    Every pass gets uniform wall-time accounting (mirrored into
    ``EngineStats.pass_seconds``, which is what ``lcmm run
    --profile-passes`` prints) and its requires/produces contract
    checked; violations raise :class:`PipelineError` naming the pass and
    the artifact.

    A failing pass aborts the pipeline: its wall time still lands in
    ``pass_seconds``, a ``pass-failed`` :class:`PassDiagnostic` names it,
    and the exception propagates (an ad-hoc exception wrapped in
    :class:`repro.errors.PassError`, taxonomy exceptions as-is).
    :func:`repro.lcmm.framework.run_lcmm` catches it and degrades along
    its chain — the one recovery mechanism.

    Args:
        passes: The pipeline, in execution order.
        observers: Optional callbacks ``(pass_, ctx, seconds)`` invoked
            after each pass — validation or tracing hooks for tests and
            tools.
    """

    def __init__(self, passes: Sequence[Pass], observers: Iterable[Any] = ()) -> None:
        self.passes: list[Pass] = list(passes)
        self.observers = tuple(observers)
        #: Per-pass execution records of the most recent :meth:`run`.
        self.executions: list[PassExecution] = []

    def run(self, ctx: CompilationContext) -> CompilationContext:
        """Execute the pipeline; returns the same context for chaining.

        Raises:
            PipelineError: On a broken requires/produces contract.
            repro.errors.ReproError: Whatever a failing pass raised.
        """
        self.executions = []
        for pass_ in self.passes:
            # Cooperative deadline: a budgeted caller (the serving front
            # door) gets control back at the next pass boundary instead
            # of paying for the rest of the pipeline.  Free when no
            # deadline is installed.
            check_deadline(f"pass.{pass_.name}")
            for key in pass_.requires:
                if not ctx.has(key):
                    raise PipelineError(
                        f"pass {pass_.name!r} requires artifact {key!r}, "
                        "which no earlier pass produced",
                        pass_name=pass_.name,
                        artifact=key,
                    )
            # One span per pass is the single timing measurement: its
            # wall time feeds timings(), EngineStats.pass_seconds and the
            # trace record alike, on the success and failure paths both.
            # The span also lands in the active trace with the pass name
            # and, on failure, the error type.
            pass_span = timed_span(f"pass.{pass_.name}", graph=ctx.graph.name)
            try:
                with pass_span:
                    fault_point(f"pass.{pass_.name}", pass_name=pass_.name)
                    pass_.run(ctx)
            except PipelineError:
                raise
            except Exception as exc:  # noqa: BLE001 — the attempt's failure boundary
                ctx.diagnose(
                    pass_.name,
                    "pass-failed",
                    f"pass {pass_.name!r} failed ({type(exc).__name__}: {exc})",
                    error=type(exc).__name__,
                )
                if isinstance(exc, ReproError):
                    raise
                raise PassError(
                    f"pass {pass_.name!r} failed: {exc}", pass_name=pass_.name
                ) from exc
            finally:
                elapsed = pass_span.seconds
                ctx.stats.pass_seconds[pass_.name] = (
                    ctx.stats.pass_seconds.get(pass_.name, 0.0) + elapsed
                )
            for key in pass_.produces:
                if not ctx.has(key):
                    raise PipelineError(
                        f"pass {pass_.name!r} declares it produces {key!r} "
                        "but did not publish it",
                        pass_name=pass_.name,
                        artifact=key,
                    )
            self.executions.append(
                PassExecution(
                    name=pass_.name, seconds=elapsed, produced=tuple(pass_.produces)
                )
            )
            for observer in self.observers:
                observer(pass_, ctx, elapsed)
        return ctx

    def description(self) -> str:
        """The pipeline as ``a -> b -> c`` (executed order when run)."""
        names = [e.name for e in self.executions] or [p.name for p in self.passes]
        return " -> ".join(names)

    def timings(self) -> tuple[tuple[str, float], ...]:
        """Per-pass wall seconds of the most recent run, in order."""
        return tuple((e.name, e.seconds) for e in self.executions)
