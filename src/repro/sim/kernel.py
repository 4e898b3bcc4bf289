"""The discrete-event kernel: clock, scheduler and process stepping.

One :class:`Kernel` instance owns the simulated clock, the event queue, the
process table and the root RNG registry.  Everything else in the repository
(network, PVM, DSM, applications) is built as plain objects that schedule
callbacks and park/wake processes through the kernel.

Design notes
------------
* **Determinism.**  The event queue is totally ordered (see
  :mod:`repro.sim.events`); signal wakeups preserve FIFO arrival order; all
  randomness flows through :class:`repro.sim.rng.RngRegistry` streams.  Two
  runs with identical seeds produce bit-identical traces.
* **Failure model.**  An exception inside any process aborts the run with
  :class:`~repro.sim.errors.ProcessFailure`; the paper's experiments assume
  dedicated, reliable nodes, so partial failure is out of scope.
* **Budgets.**  ``run()`` accepts simulated-time and event-count limits so
  that livelocked configurations (a flooding asynchronous GA on a saturated
  network) terminate with :class:`~repro.sim.errors.SimulationLimitError`
  instead of hanging the test suite.  A budget is checked against the
  queue's head *before* it is popped, so the event that trips the limit
  stays queued and a later ``run()`` with a larger budget executes it.
* **One loop, one slot.**  ``run()`` is the only event loop; budgets and
  the stop predicate are per-call locals, and the only instrumentation
  slot is ``kernel.obs`` (the trace bus).
  Queue entries are plain ``(time, priority, seq, fn, args)`` tuples and
  the loop merges the queue's heap and same-instant FIFO lane inline, so
  an event costs one C tuple compare and no object.  Yielded requests are
  routed through an exact-type dispatch table instead of an ``isinstance``
  chain.  None of this changes the pop order (the determinism regression
  suite in ``tests/sim/test_determinism.py`` pins it with golden digests).
"""

from __future__ import annotations

import itertools
from heapq import heappop
from typing import Any, Callable, Generator, Iterable

from repro.sim.errors import DeadlockError, ProcessFailure, SimulationLimitError
from repro.sim.events import EventQueue, PRIORITY_LATE
from repro.sim.process import (
    Compute,
    Join,
    ProcessHandle,
    ProcessState,
    Signal,
    WaitAny,
    WaitSignal,
    Yield,
)
from repro.sim.rng import RngRegistry


class CompletionCounter:
    """O(1) "are they all done?" check over a fixed set of process handles.

    Counts terminations via per-handle watcher callbacks instead of
    rescanning every handle after every event, turning the ubiquitous
    ``stop_when=lambda: all(h.done for h in handles)`` from O(processes)
    per event into a single integer comparison.
    """

    __slots__ = ("remaining",)

    def __init__(self, handles: Iterable[ProcessHandle]) -> None:
        self.remaining = 0
        for h in handles:
            if not h.done:
                self.remaining += 1
                h._watchers.append(self._one_done)

    def _one_done(self) -> None:
        self.remaining -= 1

    def all_done(self) -> bool:
        """True when every registered process has finished."""
        return self.remaining == 0


class Kernel:
    """Deterministic discrete-event simulation kernel.

    Parameters
    ----------
    seed:
        Root seed for the :class:`RngRegistry`; every named stream derives
        from it.
    """

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        self.queue = EventQueue()
        self.rng = RngRegistry(seed)
        #: optional repro.obs.bus.TraceBus; every subsystem's trace hook
        #: is guarded by ``kernel.obs is not None`` so the default costs
        #: one attribute check and changes nothing about the run
        self.obs = None
        self._pids = itertools.count()
        self.processes: list[ProcessHandle] = []
        self._events_executed = 0
        self._failure: ProcessFailure | None = None

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay == 0.0:
            # Same-instant fast lane: FIFO append, no heap sift.
            self.queue.push_immediate(self.now, fn, args)
            return
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay!r})")
        self.queue.push(self.now + delay, fn, args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute simulated ``time`` (>= now)."""
        if time < self.now:
            raise ValueError(f"cannot schedule at t={time!r} < now={self.now!r}")
        self.queue.push(time, fn, args)

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------
    def spawn(self, gen: Generator, name: str | None = None) -> ProcessHandle:
        """Register a generator as a simulated process; it starts when the
        simulation reaches the current instant's queue position."""
        handle = ProcessHandle(
            name=name or f"proc-{len(self.processes)}",
            gen=gen,
            pid=next(self._pids),
            _kernel=self,
        )
        self.processes.append(handle)
        self.queue.push_immediate(self.now, self._step, (handle, None))
        if self.obs is not None:
            self.obs.emit("proc.spawn", pid=handle.pid, name=handle.name)
        return handle

    def _wake_from_signal(self, handle: ProcessHandle, signal: Signal) -> None:
        """Internal: called by :meth:`Signal.fire` for each parked waiter."""
        if handle.state is not ProcessState.BLOCKED:
            return  # already woken by another signal in a WaitAny set
        # Detach from every signal in the (possibly WaitAny) parked set.
        for s in handle._parked_on:
            if s is not signal and handle in s._waiters:
                s._waiters.remove(handle)
        handle._parked_on = ()
        handle.state = ProcessState.READY
        self.queue.push_immediate(self.now, self._step, (handle, signal))

    def _notify_watchers(self, handle: ProcessHandle) -> None:
        if handle._watchers:
            watchers, handle._watchers = handle._watchers, []
            for w in watchers:
                w()

    def _finish(self, handle: ProcessHandle, result: Any) -> None:
        handle.state = ProcessState.DONE
        handle.result = result
        joiners, handle._joiners = handle._joiners, []
        for j in joiners:
            j.state = ProcessState.READY
            self.queue.push_immediate(self.now, self._step, (j, result))
        self._notify_watchers(handle)
        if self.obs is not None:
            self.obs.emit("proc.done", pid=handle.pid, name=handle.name)

    def _step(self, handle: ProcessHandle, send_value: Any) -> None:
        """Advance one process by one yield."""
        state = handle.state
        if state is _DONE or state is _FAILED:
            return
        handle.state = ProcessState.RUNNING
        try:
            request = handle.gen.send(send_value)
        except StopIteration as stop:
            self._finish(handle, stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - deliberately broad
            handle.state = ProcessState.FAILED
            handle.error = exc
            self._failure = ProcessFailure(handle.name, exc)
            self._notify_watchers(handle)
            if self.obs is not None:
                self.obs.emit(
                    "proc.fail", pid=handle.pid, name=handle.name,
                    error=type(exc).__name__,
                )
            return
        handler = _DISPATCH.get(request.__class__)
        if handler is None:
            raise TypeError(
                f"process {handle.name!r} yielded unsupported request {request!r}"
            )
        handler(self, handle, request)

    # -- request handlers (type-tag dispatch, see _DISPATCH below) ------
    def _do_compute(self, handle: ProcessHandle, request: Compute) -> None:
        seconds = request.seconds
        handle.state = ProcessState.COMPUTING
        handle.busy_time += seconds
        if seconds == 0.0:
            self.queue.push_immediate(self.now, self._step, (handle, seconds))
        else:
            self.queue.push(self.now + seconds, self._step, (handle, seconds))

    def _do_wait_signal(self, handle: ProcessHandle, request: WaitSignal) -> None:
        handle.state = ProcessState.BLOCKED
        handle._parked_on = (request.signal,)
        request.signal._waiters.append(handle)

    def _do_wait_any(self, handle: ProcessHandle, request: WaitAny) -> None:
        handle.state = ProcessState.BLOCKED
        handle._parked_on = request.signals
        for s in request.signals:
            s._waiters.append(handle)

    def _do_yield(self, handle: ProcessHandle, request: Yield) -> None:
        handle.state = ProcessState.READY
        self.queue.push(self.now, self._step, (handle, None), priority=PRIORITY_LATE)

    def _do_join(self, handle: ProcessHandle, request: Join) -> None:
        target = request.handle
        if target.done:
            self.queue.push_immediate(self.now, self._step, (handle, target.result))
        else:
            handle.state = ProcessState.BLOCKED
            handle._parked_on = ()
            target._joiners.append(handle)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
        stop_when: Callable[[], bool] | None = None,
    ) -> None:
        """Run until the queue drains or a limit/stop condition triggers.

        Parameters
        ----------
        until:
            Simulated-time budget; a queue head later than it raises
            :class:`SimulationLimitError` and stays queued, so a following
            ``run()`` with a larger budget resumes without losing it.
        max_events:
            Event-count budget; same failure mode.
        stop_when:
            Optional predicate checked after every event; a True return
            stops the run cleanly (used for "run until converged").

        Raises
        ------
        DeadlockError
            If the queue drains while processes are still blocked.
        ProcessFailure
            If any process raised; the original exception is chained.
        RuntimeError
            If the queue yields an event earlier than the current clock
            (a corrupted queue — e.g. events pushed into the past through
            the raw :class:`EventQueue` API).
        """
        heap = self.queue.heap
        lane = self.queue.lane
        lane_pop = lane.popleft
        while True:
            if self._failure is not None:
                failure, self._failure = self._failure, None
                raise failure from failure.original
            if stop_when is not None and stop_when():
                return
            # Head of the merged queue.  Lane entries sit at the current
            # instant with PRIORITY_NORMAL; a heap entry beats the lane
            # head only with a smaller (time, priority, seq) — a C tuple
            # compare that unique seqs stop before it reaches fn.
            if lane:
                entry = lane[0]
                from_heap = False
                if heap and heap[0] < entry:
                    entry = heap[0]
                    from_heap = True
            elif heap:
                entry = heap[0]
                from_heap = True
            else:
                self._check_deadlock()
                return
            time = entry[0]
            # Budgets are checked before the pop: the entry that trips
            # one stays queued for a later run() with a larger budget.
            if until is not None and time > until:
                raise SimulationLimitError(
                    "simulated-time", until, self.now, self._events_executed
                )
            if max_events is not None and self._events_executed >= max_events:
                raise SimulationLimitError(
                    "event-count", max_events, self.now, self._events_executed
                )
            if time < self.now:
                raise RuntimeError(
                    f"event queue violated time order: head at t={time!r} "
                    f"is behind the clock at t={self.now!r}"
                )
            if from_heap:
                heappop(heap)
            else:
                lane_pop()
            self.now = time
            self._events_executed += 1
            entry[3](*entry[4])

    def _check_deadlock(self) -> None:
        parked = [
            p.describe_block()
            for p in self.processes
            if p.state is ProcessState.BLOCKED
        ]
        if parked:
            raise DeadlockError(parked)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def events_executed(self) -> int:
        """Number of events executed so far."""
        return self._events_executed

    def stats(self) -> dict:
        """Summary counters, handy for benchmark output."""
        return {
            "now": self.now,
            "events_executed": self._events_executed,
            "processes": len(self.processes),
            "pending_events": len(self.queue),
        }


_DONE = ProcessState.DONE
_FAILED = ProcessState.FAILED

#: Exact-type dispatch for yielded requests: ``request.__class__`` lookup
#: instead of an isinstance chain.  Anything else a process yields —
#: including a subclass of a request type — is a ``TypeError``.
_DISPATCH: dict[type, Callable[[Kernel, ProcessHandle, Any], None]] = {
    Compute: Kernel._do_compute,
    WaitSignal: Kernel._do_wait_signal,
    WaitAny: Kernel._do_wait_any,
    Yield: Kernel._do_yield,
    Join: Kernel._do_join,
}
