"""Property-based verification of non-strict coherence.

Hypothesis generates random multi-producer/multi-consumer workloads
(random compute times, ages, iteration counts); the trace of every
execution must satisfy all four :mod:`repro.core.consistency`
invariants.  This is the strongest correctness evidence for the
Global_Read implementation: the staleness bound must hold under
arbitrary interleavings, backlogs and contention patterns.  The unit
tests below feed the fold hand-built traces.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Machine, MachineConfig
from repro.core import Dsm, SharedLocationSpec, consistency_violations
from repro.core.consistency import Violation, report
from repro.obs.bus import ObsEvent, TraceBus
from repro.sim import CompletionCounter, Compute


def _write(locn, age, t, writer=0):
    return ObsEvent(t, "dsm.write", writer, {"locn": locn, "iter": age})


def _read(reader, locn, ret, t, curr_iter=None, age_bound=None):
    """A ``read_local`` return, or a ``Global_Read`` hit when bounded."""
    if age_bound is None:
        return ObsEvent(t, "dsm.read", reader, {"locn": locn, "ret": ret})
    return ObsEvent(t, "gr.hit", reader, {
        "locn": locn, "curr_iter": curr_iter, "age": age_bound,
        "staleness": max(0, curr_iter - ret), "ret": ret,
    })


@st.composite
def workloads(draw):
    n_nodes = draw(st.integers(min_value=2, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    n_iters = draw(st.integers(min_value=1, max_value=15))
    # per-node: (compute_dt, age)
    params = [
        (
            draw(st.floats(min_value=1e-4, max_value=5e-2)),
            draw(st.integers(min_value=0, max_value=8)),
        )
        for _ in range(n_nodes)
    ]
    return n_nodes, seed, n_iters, params


@settings(max_examples=25, deadline=None)
@given(workloads())
def test_random_all_to_all_workloads_are_consistent(wl):
    """All-to-all: every node writes its own location and global_reads all
    others each iteration, with random paces and staleness bounds."""
    n_nodes, seed, n_iters, params = wl
    m = Machine(MachineConfig(n_nodes=n_nodes, seed=seed, trace=True))
    dsm = Dsm(m.vm)
    for w in range(n_nodes):
        readers = tuple(r for r in range(n_nodes) if r != w)
        dsm.register(SharedLocationSpec(f"loc.{w}", writer=w, readers=readers, value_nbytes=40))

    def peer(tid):
        dt, age = params[tid]

        def proc(node, task):
            dnode = dsm.node(tid)
            for i in range(n_iters):
                yield Compute(node.cost(dt))
                yield from dnode.write(f"loc.{tid}", value=(tid, i), iter_no=i)
                for other in range(n_nodes):
                    if other != tid:
                        copy = yield from dnode.global_read(f"loc.{other}", i, age)
                        assert copy.age >= i - age

        return proc

    handles = [m.spawn_on(tid, peer(tid)) for tid in range(n_nodes)]
    m.kernel.run(until=10_000.0, stop_when=CompletionCounter(handles).all_done)
    violations = consistency_violations(m.obs.events, dropped=m.obs.dropped)
    assert violations == [], report(violations)
    # every write and every (bounded) read is on the trace the fold read
    counts = Counter(e.kind for e in m.obs.events)
    assert counts["dsm.write"] == n_nodes * n_iters
    assert counts.get("gr.hit", 0) + counts.get("gr.unblock", 0) == (
        n_nodes * (n_nodes - 1) * n_iters
    )


def test_checker_flags_staleness_violation_directly():
    violations = consistency_violations(
        [_write("x", 1, 0.0), _read(1, "x", 1, 1.0, curr_iter=10, age_bound=2)]
    )
    assert {v.invariant for v in violations} == {"staleness-bound"}


def test_checker_flags_phantom_and_nonmonotone_reads():
    kinds = [v.invariant for v in consistency_violations([
        _write("x", 5, 0.0),
        _read(1, "x", 4, 1.0),  # never written
        _write("x", 6, 2.0),
        _read(1, "x", 6, 3.0),
        _read(1, "x", 5, 4.0),  # went backwards
    ])]
    assert "no-phantom-values" in kinds
    assert "monotone-reads" in kinds


def test_checker_flags_nonmonotone_writes():
    violations = consistency_violations([_write("x", 3, 0.0), _write("x", 3, 1.0)])
    assert [v.invariant for v in violations] == ["producer-monotonicity"]


def test_checker_report_formats():
    assert report([]).startswith("0 violation(s)")
    violations = consistency_violations(
        [_write("x", 5, 0.0), _read(1, "x", 4, 1.0)]  # phantom
    )
    assert "no-phantom-values" in report(violations)


def test_violation_carries_reader_id():
    violations = consistency_violations([
        _write("x", 5, 0.0),
        _read(3, "x", 4, 1.0),  # phantom
        _write("x", 5, 2.0),  # write-side invariants have no reader
    ])
    phantom, monotone = violations
    assert phantom.reader == 3
    assert "reader=3" in report(violations)
    assert monotone.invariant == "producer-monotonicity"
    assert monotone.reader is None
    # positional construction still works
    v = Violation("staleness-bound", "x", "detail", 1.0)
    assert v.reader is None


def test_every_violation_occurrence_is_returned():
    events = [_write("x", 5, 0.0)]
    n = 50
    events += [_read(1, "x", 4 - i, float(i)) for i in range(n)]
    violations = consistency_violations(events)
    # phantom fires every read; monotone-reads from the second on
    kinds = [v.invariant for v in violations]
    assert kinds.count("no-phantom-values") == n
    assert kinds.count("monotone-reads") == n - 1
    assert f"'no-phantom-values': {n}" in report(violations)


def test_truncated_trace_is_refused():
    # the bus's capacity bounds trace memory; a fold over an overflowed
    # bus would see writes missing and report phantom values, so it
    # refuses, naming the count
    bus = TraceBus(clock=lambda: 0.0, max_events=1)
    bus.emit("dsm.write", node=0, locn="x", iter=1)
    bus.emit("dsm.read", node=1, locn="x", ret=1)
    bus.emit("dsm.read", node=1, locn="x", ret=1)
    assert bus.dropped == 2
    with pytest.raises(ValueError, match="2 event"):
        consistency_violations(bus.events, dropped=bus.dropped)


def test_report_says_it_truncates():
    events = [_write("x", 100, 0.0)]
    events += [_read(reader, "x", 0, 1.0) for reader in range(30)]
    violations = consistency_violations(events)
    text = report(violations)
    assert "showing first 20" in text
    assert "omitted" in text
    # the truncation message is accurate about the totals
    assert f"{len(violations)} violation(s)" in text
