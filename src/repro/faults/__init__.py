"""repro.faults — deterministic, seed-driven fault injection (DESIGN.md §9).

A :class:`FaultPlan` declares *what* goes wrong (message drop/duplicate/
delay/reorder rates and windows, node pause/slowdown/crash schedules);
:func:`install_faults` wires it into a built machine so *when* it goes
wrong is a pure function of ``plan.seed``.  Chaos runs are therefore
bit-reproducible and regression-gated by the chaos rows of the golden
table in :mod:`repro.check`.
"""

from repro.faults.injectors import (
    FaultEvent,
    FaultInjector,
    FaultLog,
    FaultStats,
    MessageFaultInjector,
    NodeFaultModel,
    install_faults,
)
from repro.faults.plan import (
    DEFAULT_PROTECTED_TAGS,
    FaultPlan,
    MessageFaults,
    NodeFault,
)

__all__ = [
    "DEFAULT_PROTECTED_TAGS",
    "FaultEvent",
    "FaultInjector",
    "FaultLog",
    "FaultPlan",
    "FaultStats",
    "MessageFaultInjector",
    "MessageFaults",
    "NodeFault",
    "NodeFaultModel",
    "install_faults",
]
