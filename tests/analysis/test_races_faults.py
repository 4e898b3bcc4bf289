"""Fault-injected races stay *tolerated*: the satellite-3 regression.

A dropped update makes the reader observe an older copy than it would
have on a healthy network — but as long as Global_Read's age bound held,
that is a tolerated data race by the paper's definition, and neither the
happens-before classifier nor the ConsistencyChecker may escalate it to
``unbounded`` (or a violation) just because faults were active.

The classifier is wired to the injector by ``attach_race_classifier``
(it discovers ``network.fault_injector`` on its own), so fault events
land in its summary; the injector itself puts them on the trace bus.
"""

import pytest

from repro.analysis.races import attach_race_classifier
from repro.cluster import Machine, MachineConfig
from repro.core import ConsistencyChecker, Dsm, SharedLocationSpec
from repro.faults import FaultPlan, MessageFaults
from repro.sim import Compute

AGE = 4
READER_ITERS = 25
WRITER_ITERS = 3 * READER_ITERS


@pytest.fixture(scope="module")
def faulted_run():
    """Writer/reader over a drop-heavy network, classifier attached."""
    plan = FaultPlan(seed=2, messages=MessageFaults(drop=0.35))
    m = Machine(MachineConfig(n_nodes=2, seed=1, faults=plan, trace=True))
    dsm = Dsm(m.vm)
    dsm.checker = ConsistencyChecker()
    rc = attach_race_classifier(dsm)
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
    return m, dsm, rc, log


def test_drops_were_actually_injected(faulted_run):
    m, _, rc, _ = faulted_run
    assert m.faults.stats.dropped > 0
    assert rc.fault_counts.get("drop", 0) > 0
    assert rc.fault_counts["drop"] == m.faults.stats.dropped


def test_age_bound_held_despite_drops(faulted_run):
    _, dsm, _, log = faulted_run
    assert len(log) == READER_ITERS
    for curr, got in log:
        assert got >= curr - AGE
    assert dsm.checker.ok, dsm.checker.report()
    assert dsm.checker.total_violations == 0


def test_drop_induced_staleness_classifies_tolerated_not_unbounded(faulted_run):
    _, _, rc, _ = faulted_run
    assert rc.unbounded_races == 0, rc.report()
    assert rc.tolerated_races > 0, rc.report()
    assert rc.max_observed_staleness() <= AGE


def test_summary_carries_fault_context(faulted_run):
    m, _, rc, _ = faulted_run
    s = rc.summary()
    assert s["faults_injected"].get("drop", 0) > 0
    assert s["unbounded_races"] == 0
    # the same drops are on the bus, where a trace reader finds them
    assert m.kernel.obs.kind_counts()["fault.drop"] == rc.fault_counts["drop"]
