"""Fault-injected races stay *tolerated*: the satellite-3 regression.

A dropped update makes the reader observe an older copy than it would
have on a healthy network — but as long as Global_Read's age bound held,
that is a tolerated data race by the paper's definition, and neither the
happens-before fold nor the consistency fold may escalate it to
``unbounded`` (or a violation) just because faults were active.

The injector puts every fault on the trace bus as ``fault.<kind>``, so
the race fold's summary counts them from the same trace it classifies.
"""

import pytest

from repro.analysis.races import classify_races
from repro.cluster import Machine, MachineConfig
from repro.core import Dsm, SharedLocationSpec, consistency_violations
from repro.core.consistency import report
from repro.faults import FaultPlan, MessageFaults
from repro.sim import Compute

AGE = 4
READER_ITERS = 25
WRITER_ITERS = 3 * READER_ITERS


@pytest.fixture(scope="module")
def faulted_run():
    """Writer/reader over a drop-heavy network, traced."""
    plan = FaultPlan(seed=2, messages=MessageFaults(drop=0.35))
    m = Machine(MachineConfig(n_nodes=2, seed=1, faults=plan, trace=True))
    dsm = Dsm(m.vm)
    dsm.register(SharedLocationSpec("x", writer=0, readers=(1,), value_nbytes=64))
    log = []

    def writer(node, task):
        dnode = dsm.node(0)
        for i in range(WRITER_ITERS):
            yield Compute(node.cost(0.001))
            yield from dnode.write("x", value=i, iter_no=i)

    def reader(node, task):
        dnode = dsm.node(1)
        for i in range(READER_ITERS):
            copy = yield from dnode.global_read("x", curr_iter=i, age=AGE)
            log.append((i, copy.age))
            yield Compute(node.cost(0.001))

    m.spawn_on(0, writer)
    m.spawn_on(1, reader)
    m.run_to_completion()
    _, summary = classify_races(m.obs.events, dropped=m.obs.dropped)
    return m, summary, log


def test_drops_were_actually_injected(faulted_run):
    m, s, _ = faulted_run
    assert m.faults.stats.dropped > 0
    assert s["faults_injected"]["drop"] == m.faults.stats.dropped


def test_age_bound_held_despite_drops(faulted_run):
    m, _, log = faulted_run
    assert len(log) == READER_ITERS
    for curr, got in log:
        assert got >= curr - AGE
    violations = consistency_violations(m.obs.events)
    assert violations == [], report(violations)


def test_drop_induced_staleness_classifies_tolerated_not_unbounded(faulted_run):
    _, s, _ = faulted_run
    assert s["unbounded_races"] == 0, s
    assert s["tolerated_races"] > 0, s
    assert s["max_observed_staleness"] <= AGE


def test_summary_carries_fault_context(faulted_run):
    m, s, _ = faulted_run
    assert s["faults_injected"].get("drop", 0) > 0
    assert s["unbounded_races"] == 0
    assert s["consistency_violations"] == 0
    # the summary's counts are the bus's fault records
    assert m.kernel.obs.kind_counts()["fault.drop"] == s["faults_injected"]["drop"]
