"""Property (b): Global_Read never violates its age bound under faults.

The paper's §2 contract — a Global_Read(curr_iter, age) may only return
a copy with ``copy.age >= curr_iter - age`` — must hold not just on a
healthy network but under message drop, duplication, delay and reorder.
The DSM enforces it by construction (the blocking loop re-checks the
bound after every drain), so faults may slow readers down but can never
surface an over-stale value.

The producer writes ~3x more iterations than the reader consumes so a
dropped update is always followed by fresher ones and no plan here can
starve the reader into deadlock.
"""

import pytest

from repro.cluster import Machine, MachineConfig
from repro.core import Dsm, SharedLocationSpec, consistency_violations
from repro.core.consistency import report
from repro.faults import FaultPlan, MessageFaults, NodeFault
from repro.sim import Compute

READER_ITERS = 30
WRITER_ITERS = 3 * READER_ITERS
AGE = 5

PLANS = {
    "drop": MessageFaults(drop=0.3),
    "duplicate": MessageFaults(duplicate=0.3),
    "delay": MessageFaults(delay=0.4, delay_s=(0.5e-3, 4e-3)),
    "reorder": MessageFaults(reorder=0.4),
    "mixed": MessageFaults(drop=0.1, duplicate=0.1, delay=0.1, reorder=0.1),
    "drop-window": MessageFaults(drop=0.8, start=0.005, stop=0.03),
}


def run_faulted(plan, seed=0, age=AGE, node_faults=()):
    m = Machine(
        MachineConfig(
            n_nodes=2,
            seed=seed,
            faults=FaultPlan(seed=seed, messages=plan, node_faults=node_faults),
            trace=True,
        )
    )
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
            copy = yield from dnode.global_read("x", curr_iter=i, age=age)
            log.append((i, copy.age))
            yield Compute(node.cost(0.001))

    m.spawn_on(0, writer)
    m.spawn_on(1, reader)
    m.run_to_completion()
    return m, dsm, log


def assert_consistent(m):
    """The run's trace breaks none of the consistency invariants."""
    violations = consistency_violations(m.obs.events, dropped=m.obs.dropped)
    assert violations == [], report(violations)


@pytest.mark.parametrize("name", sorted(PLANS))
def test_age_bound_holds_under_message_faults(name):
    m, _, log = run_faulted(PLANS[name])
    assert len(log) == READER_ITERS
    for curr, got in log:
        assert got >= curr - AGE, f"{name}: read age {got} at iter {curr}"
    assert_consistent(m)


@pytest.mark.parametrize("name", ["drop", "mixed", "drop-window"])
def test_lossy_plans_really_lose_updates(name):
    # the property above is vacuous if nothing was actually dropped
    m, _, _ = run_faulted(PLANS[name])
    assert m.faults is not None
    assert m.faults.stats.dropped > 0


def test_age_bound_holds_under_node_faults():
    faults = (
        NodeFault(node=0, kind="pause", start=0.01, duration=0.01),
        NodeFault(node=1, kind="slowdown", start=0.03, duration=0.02, factor=2.0),
    )
    m, _, log = run_faulted(MessageFaults(), node_faults=faults)
    assert len(log) == READER_ITERS
    for curr, got in log:
        assert got >= curr - AGE
    assert_consistent(m)
    # the pause really stalled the writer
    assert m.faults.node_models[0].stall_time > 0


def test_faulted_run_is_deterministic():
    r1 = run_faulted(PLANS["mixed"], seed=4)
    r2 = run_faulted(PLANS["mixed"], seed=4)
    assert r1[2] == r2[2]
    assert r1[0].faults.stats.as_dict() == r2[0].faults.stats.as_dict()
    assert r1[0].kernel.now == r2[0].kernel.now


def test_tighter_age_still_respected_under_drops():
    m, _, log = run_faulted(PLANS["drop"], age=1)
    for curr, got in log:
        assert got >= curr - 1
    assert_consistent(m)
