"""The DDR timeline simulator: one walk of the compute schedule against
three explicit DDR interface channels (see :mod:`repro.sim.simulator`)."""

from repro.sim.simulator import (
    EventKind, Timeline, TimelineEvent, TransferRecord, demand_bytes, simulate,
)

__all__ = [
    "EventKind", "Timeline", "TimelineEvent", "TransferRecord",
    "demand_bytes", "simulate",
]
