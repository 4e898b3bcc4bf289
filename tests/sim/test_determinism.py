"""Determinism regression suite for the kernel's scheduling order.

The fast lane and type-tag dispatch must be *bit-identical* to the
straightforward implementation: same-seed runs produce the same trace
digest, and the digest matches a checked-in golden value so silent
reorderings can't creep in.
"""

import math
from collections import Counter

import pytest

from repro.check import GOLDEN, kernel_trace_digest
from repro.bench.micro import build_kernel_workload
from repro.obs.bus import ObsEvent, TraceBus
from repro.sim import (
    Compute,
    Kernel,
    Signal,
    WaitSignal,
    Yield,
)
from repro.sim.events import PRIORITY_LATE


def _traced_workload(n_workers: int, n_steps: int):
    kernel = build_kernel_workload(n_workers=n_workers, n_steps=n_steps)
    kernel.obs = TraceBus(clock=lambda: kernel.now)
    kernel.run()
    return kernel


def test_same_seed_runs_have_identical_trace_digests():
    digests = [_traced_workload(8, 40).obs.digest() for _ in range(2)]
    assert digests[0] == digests[1]


def test_kernel_trace_digest_matches_golden():
    assert kernel_trace_digest() == GOLDEN["kernel_trace"]


def test_kernel_trace_records_every_event_exactly():
    """What makes the digest a schedule pin: one record per executed event
    (the process's mark before its next yield, or ``proc.done`` for its
    last resumption) and a hash that moves on any swap or one-ulp shift."""
    kernel = _traced_workload(6, 24)
    events = kernel.obs.events
    counts = Counter(e.kind for e in kernel.obs.events)
    assert counts["bench.step"] + counts["proc.done"] == kernel.events_executed

    def digest_of(evs):
        bus = TraceBus(clock=lambda: 0.0)
        bus.events = list(evs)
        return bus.digest()

    base = digest_of(events)
    assert base == kernel.obs.digest()
    for i in range(len(events) - 1):
        if events[i] != events[i + 1]:
            swapped = events[:i] + [events[i + 1], events[i]] + events[i + 2:]
            assert digest_of(swapped) != base
    e = events[len(events) // 2]
    nudged = ObsEvent(math.nextafter(e.time, math.inf), e.kind, e.node, e.fields)
    assert digest_of([nudged if x is e else x for x in events]) != base


def test_traced_and_untraced_runs_agree():
    """Attaching the bus must not move the schedule."""
    traced = _traced_workload(6, 24)
    untraced = build_kernel_workload(n_workers=6, n_steps=24)
    untraced.run()
    assert untraced.now == traced.now
    assert untraced.events_executed == traced.events_executed


def test_fast_lane_preserves_fifo_among_immediates():
    kernel = Kernel()
    order = []
    for i in range(5):
        kernel.schedule(0.0, order.append, i)
    kernel.run()
    assert order == [0, 1, 2, 3, 4]


def test_fast_lane_respects_priority_against_heap():
    """A PRIORITY_LATE heap event at t=now runs after same-time immediates."""
    kernel = Kernel()
    order = []
    kernel.queue.push(0.0, order.append, ("late",), priority=PRIORITY_LATE)
    kernel.schedule(0.0, order.append, "immediate")
    kernel.run()
    assert order == ["immediate", "late"]


def test_fast_lane_drains_before_clock_advances():
    kernel = Kernel()
    order = []

    def at_t1():
        order.append("t1")

    def immediate_spawner():
        kernel.schedule(0.0, order.append, "child")
        order.append("parent")

    kernel.queue.push(1.0, at_t1, ())
    kernel.schedule(0.0, immediate_spawner)
    kernel.run()
    assert order == ["parent", "child", "t1"]


def test_same_instant_process_interleaving_is_seeded_only():
    """Two same-seed GA-ish process soups step identically."""

    def soup(seed: int) -> list[str]:
        kernel = Kernel(seed=seed)
        log: list[str] = []
        sig = Signal("s")
        jitter = kernel.rng.get("jitter")

        def chatty(name: str):
            for k in range(6):
                yield Compute(0.0 if k % 2 else 0.001 * jitter.random())
                log.append(f"{name}:{k}")
                if k == 2:
                    yield Yield()

        def waiter():
            yield WaitSignal(sig)
            log.append("woke")

        kernel.spawn(waiter(), name="w")
        for n in ("a", "b", "c"):
            kernel.spawn(chatty(n), name=n)
        kernel.schedule(0.01, sig.fire)
        kernel.run()
        return log

    assert soup(3) == soup(3)
    assert soup(3) != soup(4)  # the jitter actually reaches the schedule


def test_time_order_violation_raises_runtime_error():
    """Satellite: the bare assert became an explicit RuntimeError."""
    kernel = Kernel()
    kernel.queue.push(1.0, lambda: None, ())
    kernel.now = 5.0  # simulate a corrupted clock
    with pytest.raises(RuntimeError, match="behind the clock"):
        kernel.run()
