"""The kernel's one run loop, seen through its one slot (``kernel.obs``).

Ported from the seed-era per-event recorder tests and the fast-loop ≡
general-loop tests: there is a single loop now, so these pin that every
way of calling ``run()`` executes the same schedule, honours the same
limits and fails the same way.
"""

import pytest

from repro.bench.micro import build_kernel_workload
from repro.obs.bus import TraceBus
from repro.sim import (
    CompletionCounter,
    Compute,
    Kernel,
    ProcessFailure,
    Signal,
    SimulationLimitError,
    WaitSignal,
)


def _traced_kernel(seed=0):
    kernel = Kernel(seed=seed)
    kernel.obs = TraceBus(clock=lambda: kernel.now)
    return kernel


def _workload(kernel):
    sig = Signal("ready")

    def producer():
        for _ in range(5):
            yield Compute(0.25)
            sig.fire()

    def consumer():
        for _ in range(5):
            yield WaitSignal(sig)

    kernel.spawn(producer(), name="p")
    kernel.spawn(consumer(), name="c")


def test_bus_records_process_lifecycle():
    k = _traced_kernel()
    _workload(k)
    k.run()
    # blocking is read from gr.* records; the kernel logs no park/wake
    assert k.obs.kind_counts() == {"proc.done": 2, "proc.spawn": 2}
    times = [e.time for e in k.obs.events]
    assert times == sorted(times) and times[-1] == k.now == 1.25


def test_identical_seeds_produce_identical_traces():
    traces = []
    for _ in range(2):
        k = _traced_kernel(seed=123)
        _workload(k)
        k.run()
        traces.append([e.as_dict() for e in k.obs.events])
    assert traces[0] == traces[1]


def test_every_call_shape_executes_the_same_schedule():
    """Bare ``run()``, the applications' ``stop_when=all_done`` and a run
    under (unreached) budgets are one loop: same trace, clock and count."""

    def outcome(run):
        kernel = build_kernel_workload(n_workers=6, n_steps=24)
        bus = kernel.obs = TraceBus(clock=lambda: kernel.now)
        run(kernel)
        return bus.digest(), kernel.now, kernel.events_executed

    def all_done(kernel):
        return CompletionCounter(kernel.processes).all_done

    bare = outcome(lambda k: k.run())
    assert outcome(lambda k: k.run(stop_when=all_done(k))) == bare
    assert outcome(lambda k: k.run(until=1e9, max_events=10**9)) == bare
    assert outcome(
        lambda k: k.run(until=1e9, max_events=10**9, stop_when=all_done(k))
    ) == bare


def test_budgets_hold_alongside_a_stop_predicate():
    kernel = build_kernel_workload(n_workers=4, n_steps=16)
    with pytest.raises(SimulationLimitError, match="simulated-time"):
        kernel.run(until=0.01, stop_when=lambda: False)
    assert kernel.now <= 0.01

    kernel = build_kernel_workload(n_workers=4, n_steps=16)
    with pytest.raises(SimulationLimitError, match="event-count"):
        kernel.run(max_events=7, stop_when=lambda: False)
    assert kernel.events_executed == 7


def test_time_order_violation_raises_under_stop_predicate_and_budgets():
    kernel = Kernel()
    kernel.queue.push(1.0, lambda: None, ())
    kernel.now = 5.0  # simulate a corrupted clock
    with pytest.raises(RuntimeError, match="behind the clock"):
        kernel.run(until=10.0, max_events=10, stop_when=lambda: False)
    assert kernel.events_executed == 0


def test_process_failure_beats_the_stop_predicate():
    """A failed process counts as terminated, so ``all_done`` turns true in
    the same instant: the run must raise, not stop cleanly."""
    kernel = _traced_kernel()

    def doomed():
        yield Compute(0.5)
        raise ValueError("boom")

    handle = kernel.spawn(doomed(), name="doomed")
    counter = CompletionCounter([handle])
    with pytest.raises(ProcessFailure) as info:
        kernel.run(stop_when=counter.all_done)
    assert counter.all_done()
    assert isinstance(info.value.original, ValueError)
    assert kernel.obs.kind_counts()["proc.fail"] == 1
