"""Deterministic discrete-event simulation kernel.

All "parallel" execution in this reproduction runs on this kernel: each
simulated process is a Python generator that yields *requests*
(:class:`~repro.sim.process.Compute`, :class:`~repro.sim.process.WaitSignal`,
...) to the kernel, which resumes it when the requested condition is met.
Simulated time is completely decoupled from wall-clock time, which is what
makes latency-sensitive results reproducible in Python (see DESIGN.md §2).

Typical usage::

    from repro.sim import Kernel, Compute, Signal, WaitSignal

    kernel = Kernel(seed=42)

    def producer(sig):
        yield Compute(1.0)          # burn 1 simulated second
        sig.fire()

    def consumer(sig):
        yield WaitSignal(sig)       # blocks until producer fires
        return kernel.now           # -> 1.0

    sig = Signal("ready")
    kernel.spawn(producer(sig), name="producer")
    handle = kernel.spawn(consumer(sig), name="consumer")
    kernel.run()
    assert handle.result == 1.0

:meth:`Kernel.run` is the single event loop (``until`` / ``max_events`` /
``stop_when`` bound it per call; a budget is checked before the head is
popped, so a resumed run loses nothing).  Queue entries are plain
``(time, priority, seq, fn, args)`` tuples — scheduling returns nothing and
nothing can be cancelled.  The kernel has one instrumentation
slot, ``kernel.obs``: attach a :class:`repro.obs.bus.TraceBus` to record
``proc.*`` lifecycle events.  Host time is asked from outside the
program (``python -m cProfile``, ``perfbench/run.py --trace 1``); the
loop carries no hook for it.
"""

from repro.sim.errors import (
    SimError,
    DeadlockError,
    SimulationLimitError,
    ProcessFailure,
)
from repro.sim.events import EventQueue
from repro.sim.process import (
    Compute,
    Yield,
    WaitSignal,
    WaitAny,
    Join,
    Signal,
    ProcessHandle,
    ProcessState,
)
from repro.sim.kernel import CompletionCounter, Kernel
from repro.sim.rng import RngRegistry, stream_seed

__all__ = [
    "SimError",
    "DeadlockError",
    "SimulationLimitError",
    "ProcessFailure",
    "EventQueue",
    "Compute",
    "Yield",
    "WaitSignal",
    "WaitAny",
    "Join",
    "Signal",
    "ProcessHandle",
    "ProcessState",
    "Kernel",
    "CompletionCounter",
    "RngRegistry",
    "stream_seed",
]
