"""Deterministic fault injection: crash/straggler plans and retry policies.

See :mod:`repro.faults.plan` for the data model and
``docs/resilience.md`` for the fault model, determinism guarantee, and
retry/hedging semantics.
"""

from repro.faults.plan import (
    CrashWindow,
    FaultEvent,
    FaultPlan,
    FaultStats,
    NodeFaultSchedule,
    NodeHealth,
    NodeTimeline,
    RetryPolicy,
    StragglerEpisode,
)

__all__ = [
    "CrashWindow",
    "FaultEvent",
    "FaultPlan",
    "FaultStats",
    "NodeFaultSchedule",
    "NodeHealth",
    "NodeTimeline",
    "RetryPolicy",
    "StragglerEpisode",
]
