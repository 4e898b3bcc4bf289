"""Simulated processes and the request objects they yield to the kernel.

A simulated process is a Python generator.  It communicates with the kernel
exclusively by ``yield``-ing *request* objects:

``Compute(seconds)``
    Occupy the (virtual) CPU for ``seconds`` of simulated time, then resume.
    This is how calibrated computation costs are charged.
``Yield()``
    Resume at the current instant, but after all other events already
    scheduled for this instant (a cooperative reschedule).
``WaitSignal(signal)``
    Park until some other entity calls :meth:`Signal.fire`.  Wakeups may be
    spurious by design — services re-check their condition in a loop — which
    keeps signals payload-free and allocation-cheap.
``WaitAny([s1, s2, ...])``
    Park until *any* of the listed signals fires; resumes with the fired
    signal as the value of the ``yield`` expression.
``Join(handle)``
    Park until the target process terminates; resumes with its result.

Blocking service calls (message receive, ``Global_Read``) are generators
themselves and are invoked with ``yield from``, so application code reads
almost like the PVM/DSM programs in the paper.

All request objects and :class:`ProcessHandle` carry ``__slots__``: requests
are allocated once per yield on the kernel's hottest path, and the slotted
layout both shrinks them and speeds up the kernel's attribute reads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Generator, Iterable


class ProcessState(enum.Enum):
    """Lifecycle of a simulated process."""

    READY = "ready"  # spawned, first resumption scheduled
    RUNNING = "running"  # currently being stepped by the kernel
    COMPUTING = "computing"  # inside a Compute() delay
    BLOCKED = "blocked"  # parked on a signal or join
    DONE = "done"  # generator returned
    FAILED = "failed"  # generator raised


@dataclass(slots=True)
class Compute:
    """Charge ``seconds`` of simulated CPU time to the yielding process."""

    seconds: float

    def __post_init__(self) -> None:
        # built per yield on the event path: an inline check, not repro.inputs
        if self.seconds < 0 or self.seconds != self.seconds:
            raise ValueError(f"Compute duration must be >= 0, got {self.seconds!r}")


@dataclass(slots=True)
class Yield:
    """Resume at the same instant, after already-scheduled events."""


class Signal:
    """A payload-free wakeup channel.

    Entities (mailboxes, age buffers, barrier counters) own a ``Signal`` and
    ``fire()`` it whenever their state changes; parked processes re-check the
    state on resume.  ``fire()`` is cheap when nobody waits, so services can
    fire unconditionally on every state change.
    """

    __slots__ = ("name", "_waiters")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._waiters: list = []  # list[ProcessHandle], kept in arrival order

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Signal({self.name!r}, waiters={len(self._waiters)})"

    def fire(self) -> None:
        """Wake every process currently parked on this signal.

        The wakeups are scheduled through the kernel at the current instant
        in FIFO order, preserving determinism.  Requires the signal to have
        been waited on through a kernel (waiters carry their kernel ref).
        """
        if not self._waiters:
            return
        waiters, self._waiters = self._waiters, []
        for handle in waiters:
            handle._kernel._wake_from_signal(handle, self)


@dataclass(slots=True)
class WaitSignal:
    """Park the process until ``signal`` fires (possibly spuriously)."""

    signal: Signal


@dataclass(slots=True)
class WaitAny:
    """Park until any one of ``signals`` fires; resumes with that signal."""

    signals: tuple

    def __init__(self, signals: Iterable[Signal]):
        self.signals = tuple(signals)
        if not self.signals:
            raise ValueError("WaitAny requires at least one signal")


@dataclass(slots=True)
class Join:
    """Park until ``handle``'s process terminates; resumes with its result."""

    handle: "ProcessHandle"


@dataclass(slots=True)
class ProcessHandle:
    """Kernel-side bookkeeping for one simulated process.

    Application code treats handles as opaque except for :attr:`result`,
    :attr:`state` and use with :class:`Join`.
    """

    name: str
    gen: Generator
    pid: int
    _kernel: Any = field(repr=False, default=None)
    state: ProcessState = ProcessState.READY
    result: Any = None
    error: BaseException | None = None
    #: signals this process is currently parked on (for WaitAny cleanup)
    _parked_on: tuple = ()
    #: processes Join-ing on us
    _joiners: list = field(default_factory=list)
    #: zero-argument callbacks invoked exactly once when the process
    #: terminates (DONE or FAILED) — the O(1) completion counters behind
    #: ``Machine.run_to_completion`` and the GA/Bayes drivers hang off this
    _watchers: list = field(default_factory=list)
    #: cumulative simulated seconds spent in Compute() — busy-time accounting
    busy_time: float = 0.0

    @property
    def done(self) -> bool:
        """True once the process has finished (normally or by failure)."""
        return self.state in (ProcessState.DONE, ProcessState.FAILED)

    def describe_block(self) -> str:
        """Human-readable description of what the process is blocked on."""
        if self.state is not ProcessState.BLOCKED:
            return f"{self.name}: not blocked ({self.state.value})"
        names = ",".join(s.name or "<anon>" for s in self._parked_on) or "<join>"
        return f"{self.name} waiting on [{names}]"
