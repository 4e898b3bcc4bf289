"""Kernel behaviour: process stepping, blocking, joins, budgets, deadlock."""

import pytest

from repro.sim import (
    CompletionCounter,
    Compute,
    DeadlockError,
    Join,
    Kernel,
    ProcessFailure,
    ProcessState,
    Signal,
    SimulationLimitError,
    WaitAny,
    WaitSignal,
    Yield,
)


def test_compute_advances_clock():
    k = Kernel()

    def proc():
        yield Compute(2.5)
        yield Compute(0.5)
        return k.now

    h = k.spawn(proc())
    k.run()
    assert h.result == pytest.approx(3.0)
    assert k.now == pytest.approx(3.0)


def test_compute_accumulates_busy_time():
    k = Kernel()

    def proc():
        yield Compute(1.0)
        yield Compute(2.0)

    h = k.spawn(proc())
    k.run()
    assert h.busy_time == pytest.approx(3.0)


def test_zero_compute_is_legal():
    k = Kernel()

    def proc():
        yield Compute(0.0)
        return "done"

    h = k.spawn(proc())
    k.run()
    assert h.result == "done"


def test_negative_compute_rejected():
    with pytest.raises(ValueError):
        Compute(-1.0)


def test_signal_wakes_waiter_at_fire_time():
    k = Kernel()
    sig = Signal("s")
    times = {}

    def waiter():
        yield WaitSignal(sig)
        times["woke"] = k.now

    def firer():
        yield Compute(4.0)
        sig.fire()

    k.spawn(waiter())
    k.spawn(firer())
    k.run()
    assert times["woke"] == pytest.approx(4.0)


def test_signal_fire_with_no_waiters_is_noop():
    sig = Signal("s")
    sig.fire()  # must not raise


def test_signal_wakes_waiters_fifo():
    k = Kernel()
    sig = Signal("s")
    order = []

    def waiter(i):
        yield WaitSignal(sig)
        order.append(i)

    for i in range(5):
        k.spawn(waiter(i))

    def firer():
        yield Compute(1.0)
        sig.fire()

    k.spawn(firer())
    k.run()
    assert order == [0, 1, 2, 3, 4]


def test_wait_any_resumes_with_fired_signal():
    k = Kernel()
    a, b = Signal("a"), Signal("b")
    got = {}

    def waiter():
        fired = yield WaitAny([a, b])
        got["sig"] = fired

    def firer():
        yield Compute(1.0)
        b.fire()

    k.spawn(waiter())
    k.spawn(firer())
    k.run()
    assert got["sig"] is b
    # waiter must have been detached from the signal it did NOT receive
    assert not a._waiters


def test_wait_any_requires_signals():
    with pytest.raises(ValueError):
        WaitAny([])


def test_join_returns_target_result():
    k = Kernel()

    def worker():
        yield Compute(2.0)
        return 99

    def joiner(h):
        result = yield Join(h)
        return (k.now, result)

    hw = k.spawn(worker())
    hj = k.spawn(joiner(hw))
    k.run()
    assert hj.result == (pytest.approx(2.0), 99)


def test_join_on_already_done_process():
    k = Kernel()

    def worker():
        return 7
        yield  # pragma: no cover - makes it a generator

    def joiner(h):
        yield Compute(5.0)
        result = yield Join(h)
        return result

    hw = k.spawn(worker())
    hj = k.spawn(joiner(hw))
    k.run()
    assert hj.result == 7


def test_yield_defers_within_same_instant():
    k = Kernel()
    order = []

    def early():
        yield Yield()
        order.append("early-after-yield")

    def other():
        order.append("other")
        yield Compute(0.0)

    k.spawn(early())
    k.spawn(other())
    k.run()
    assert order.index("other") < order.index("early-after-yield")


def test_deadlock_detected_and_names_process():
    k = Kernel()
    sig = Signal("never")

    def stuck():
        yield WaitSignal(sig)

    k.spawn(stuck(), name="reader-3")
    with pytest.raises(DeadlockError) as exc:
        k.run()
    assert "reader-3" in str(exc.value)


def test_process_exception_wrapped_and_chained():
    k = Kernel()

    def bad():
        yield Compute(1.0)
        raise RuntimeError("boom")

    k.spawn(bad(), name="bad")
    with pytest.raises(ProcessFailure) as exc:
        k.run()
    assert isinstance(exc.value.original, RuntimeError)
    assert exc.value.proc_name == "bad"


def test_time_budget_enforced():
    k = Kernel()

    def forever():
        while True:
            yield Compute(1.0)

    k.spawn(forever())
    with pytest.raises(SimulationLimitError) as exc:
        k.run(until=10.0)
    assert exc.value.kind == "simulated-time"
    assert k.now <= 10.0


def test_event_budget_enforced():
    k = Kernel()

    def forever():
        while True:
            yield Compute(1.0)

    k.spawn(forever())
    with pytest.raises(SimulationLimitError) as exc:
        k.run(max_events=50)
    assert exc.value.kind == "event-count"


def test_budget_does_not_eat_the_event_that_trips_it():
    """The head is checked before it is popped: it stays queued, is
    reported as pending, and a resumed run executes it exactly once."""
    k = Kernel()
    fired = []
    k.schedule(0.5, fired.append, "early")
    k.schedule(2.0, fired.append, "late")
    with pytest.raises(SimulationLimitError) as exc:
        k.run(until=1.0)
    assert exc.value.kind == "simulated-time"
    assert fired == ["early"]
    assert k.stats()["pending_events"] == 1
    k.run()
    assert fired == ["early", "late"]
    assert k.events_executed == 2

    k = Kernel()
    for i in range(3):
        k.schedule(float(i), fired.append, i)
    with pytest.raises(SimulationLimitError) as exc:
        k.run(max_events=2)
    assert exc.value.kind == "event-count"
    assert k.stats()["pending_events"] == 1
    k.run()
    assert fired[-3:] == [0, 1, 2]
    assert k.events_executed == 3


def test_stop_when_predicate_stops_cleanly():
    k = Kernel()
    ticks = []

    def ticker():
        while True:
            yield Compute(1.0)
            ticks.append(k.now)

    k.spawn(ticker())
    k.run(stop_when=lambda: len(ticks) >= 3)
    assert len(ticks) == 3


def test_run_until_done_waits_for_all():
    k = Kernel()

    def worker(d):
        yield Compute(d)
        return d

    hs = [k.spawn(worker(float(i + 1))) for i in range(3)]

    def background():
        while True:
            yield Compute(0.5)

    k.spawn(background())
    k.run(stop_when=CompletionCounter(hs).all_done, until=100.0)
    assert all(h.done for h in hs)
    assert k.now == pytest.approx(3.0)


def test_schedule_in_past_rejected():
    k = Kernel()
    with pytest.raises(ValueError):
        k.schedule(-1.0, lambda: None)
    k.schedule(1.0, lambda: None)
    k.run()
    with pytest.raises(ValueError):
        k.schedule_at(0.5, lambda: None)


def test_unsupported_request_raises_typeerror():
    k = Kernel()

    def bad():
        yield "not-a-request"

    k.spawn(bad())
    with pytest.raises(TypeError):
        k.run()


def test_request_dispatch_is_by_exact_type():
    """No MRO fallback: a bare object and a subclass of a request type are
    both refused, naming the process and what it yielded."""

    class SlowCompute(Compute):
        pass

    for request in (object(), SlowCompute(1.0)):
        k = Kernel()

        def bad(request=request):
            yield request

        k.spawn(bad(), name="bad")
        with pytest.raises(TypeError, match="'bad' yielded unsupported request"):
            k.run()


def test_process_states_progression():
    k = Kernel()
    sig = Signal("s")

    def proc():
        yield Compute(1.0)
        yield WaitSignal(sig)
        return "ok"

    h = k.spawn(proc())
    assert h.state is ProcessState.READY
    k.run(stop_when=lambda: h.state is ProcessState.BLOCKED)
    assert h.state is ProcessState.BLOCKED

    def firer():
        sig.fire()
        return
        yield  # pragma: no cover

    k.spawn(firer())
    k.run()
    assert h.state is ProcessState.DONE
    assert h.result == "ok"


def test_spawned_generator_return_value_captured():
    k = Kernel()

    def proc():
        yield Compute(0.1)
        return {"answer": 42}

    h = k.spawn(proc())
    k.run()
    assert h.result == {"answer": 42}


def test_stats_shape():
    k = Kernel()
    s = k.stats()
    assert set(s) == {"now", "events_executed", "processes", "pending_events"}


def test_completion_counter_tracks_terminations():
    from repro.sim import CompletionCounter

    k = Kernel()

    def worker(d):
        yield Compute(d)

    hs = [k.spawn(worker(float(i + 1))) for i in range(3)]
    counter = CompletionCounter(hs)
    assert counter.remaining == 3
    k.run(stop_when=lambda: counter.remaining == 2)
    assert counter.remaining == 2
    k.run()
    assert counter.all_done()


def test_completion_counter_counts_failures_and_skips_done():
    from repro.sim import CompletionCounter

    k = Kernel()

    def ok():
        yield Compute(1.0)

    def bad():
        yield Compute(2.0)
        raise RuntimeError("boom")

    h_ok = k.spawn(ok())
    h_bad = k.spawn(bad())
    k.run(stop_when=lambda: h_ok.done)  # h_ok DONE before the counter attaches
    counter = CompletionCounter([h_ok, h_bad])
    assert counter.remaining == 1
    with pytest.raises(ProcessFailure):
        k.run()
    assert counter.all_done()


def test_run_until_done_empty_handles_is_noop():
    k = Kernel()
    k.schedule(1.0, lambda: None)
    k.run(stop_when=CompletionCounter([]).all_done)
    assert k.now == 0.0  # nothing to wait for: no event runs
