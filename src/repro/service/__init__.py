"""Digital-twin serving service: streaming windowed re-simulation.

Everything else in the repository answers capacity questions in batch — a
driver generates a trace, runs the simulator, prints a figure.  This package
turns the same simulator into a *digital twin* of a live fleet:

* :mod:`repro.service.ingest` accepts live query events (a TCP line
  protocol, stdin, or an in-process replay — the broker is deliberately
  trivial);
* :mod:`repro.service.windows` aggregates events into fixed event-time
  windows with a configurable watermark/lateness policy;
* :mod:`repro.service.twin` re-simulates each closed window *cumulatively*
  through the :class:`~repro.serving.cluster.ClusterSimulator` fast path and
  predicts fleet capacity via the memoised
  :class:`~repro.runtime.capacity.CapacitySearch`;
* :mod:`repro.service.shadow` maintains an operator-supplied "what-if" fleet
  configuration side by side with the real one, so a config change is
  evaluated in shadow mode — against live traffic — before rollout.

``python -m repro.service`` is the long-running entry point; see
``docs/architecture.md`` for how the service layer sits on the rest of the
stack.
"""

import importlib
from typing import Any

#: Public name -> defining module, imported on first access (PEP 562) so
#: ``python -m repro.service`` can install its signal handling before the
#: simulator stack loads.
_EXPORTS = {
    "ConfigVerdict": "repro.service.shadow",
    "DigitalTwin": "repro.service.twin",
    "FleetSpec": "repro.service.shadow",
    "IngestPipeline": "repro.service.ingest",
    "ShadowVerdict": "repro.service.shadow",
    "TwinWindowReport": "repro.service.twin",
    "Window": "repro.service.windows",
    "WindowManager": "repro.service.windows",
    "WindowRollup": "repro.service.windows",
    "compare_verdicts": "repro.service.shadow",
    "load_fleet_spec": "repro.service.shadow",
    "parse_event": "repro.service.ingest",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
