"""Integration tests for the DSM runtime and Global_Read.

These drive real producer/consumer processes over the simulated Ethernet
and check the paper's §2 semantics end to end.
"""

import pytest

from repro.cluster import Machine, MachineConfig
from repro.core import (
    Dsm,
    GlobalReadMode,
    SharedLocationSpec,
    UpdatePolicy,
    consistency_violations,
)
from repro.core.consistency import report
from repro.sim import CompletionCounter, Compute, DeadlockError, ProcessFailure


def build(n_nodes=2, seed=0, mode=GlobalReadMode.WAIT, policy=UpdatePolicy.EAGER,
          check=True, **machine_kw):
    """A machine (traced when ``check``, for :func:`assert_consistent`) and its DSM."""
    m = Machine(MachineConfig(n_nodes=n_nodes, seed=seed, trace=check, **machine_kw))
    return m, Dsm(m.vm, mode=mode, update_policy=policy)


def assert_consistent(m):
    """The run's trace breaks none of the consistency invariants."""
    violations = consistency_violations(m.obs.events, dropped=m.obs.dropped)
    assert violations == [], report(violations)


def producer(dsm, tid, locn, n_iters, dt):
    """Writes its iteration number each iteration."""

    def proc(node, task):
        dnode = dsm.node(tid)
        for i in range(n_iters):
            yield Compute(node.cost(dt))
            yield from dnode.write(locn, value=i, iter_no=i)

    return proc


def gr_consumer(dsm, tid, locn, n_iters, age, dt, log):
    def proc(node, task):
        dnode = dsm.node(tid)
        for i in range(n_iters):
            copy = yield from dnode.global_read(locn, curr_iter=i, age=age)
            log.append((i, copy.age))
            yield Compute(node.cost(dt))

    return proc


def test_global_read_returns_within_bound_fast_producer():
    m, dsm = build()
    dsm.register(SharedLocationSpec("x", writer=0, readers=(1,), value_nbytes=64))
    log = []
    m.spawn_on(0, producer(dsm, 0, "x", n_iters=30, dt=0.001))
    m.spawn_on(1, gr_consumer(dsm, 1, "x", n_iters=30, age=5, dt=0.001, log=log))
    m.run_to_completion()
    assert len(log) == 30
    for curr, got in log:
        assert got >= curr - 5
    assert_consistent(m)


def test_global_read_blocks_when_producer_slow():
    """Consumer 10x faster than producer: Global_Read must throttle it."""
    m, dsm = build()
    dsm.register(SharedLocationSpec("x", writer=0, readers=(1,), value_nbytes=64))
    log = []
    m.spawn_on(0, producer(dsm, 0, "x", n_iters=20, dt=0.05))
    m.spawn_on(1, gr_consumer(dsm, 1, "x", n_iters=20, age=3, dt=0.005, log=log))
    t = m.run_to_completion()
    stats = dsm.node(1).gr_stats
    assert stats.blocked > 0
    assert stats.block_time > 0
    # throttled to roughly the producer's pace
    assert t == pytest.approx(20 * 0.05, rel=0.2)
    assert_consistent(m)


def test_age_zero_lockstep_without_barrier():
    m, dsm = build()
    dsm.register(SharedLocationSpec("x", writer=0, readers=(1,), value_nbytes=64))
    log = []
    m.spawn_on(0, producer(dsm, 0, "x", n_iters=10, dt=0.01))
    m.spawn_on(1, gr_consumer(dsm, 1, "x", n_iters=10, age=0, dt=0.001, log=log))
    m.run_to_completion()
    # age=0: every read sees at least the current iteration's value
    assert all(got >= curr for curr, got in log)


def test_larger_age_blocks_less():
    def blocks_for(age):
        m, dsm = build(seed=7)
        dsm.register(SharedLocationSpec("x", writer=0, readers=(1,), value_nbytes=64))
        log = []
        m.spawn_on(0, producer(dsm, 0, "x", n_iters=40, dt=0.01))
        m.spawn_on(1, gr_consumer(dsm, 1, "x", n_iters=40, age=age, dt=0.002, log=log))
        m.run_to_completion()
        return dsm.node(1).gr_stats.blocked

    assert blocks_for(0) >= blocks_for(5) >= blocks_for(20)
    assert blocks_for(0) > blocks_for(20)


def test_read_local_never_blocks_and_tolerates_missing():
    m, dsm = build()
    dsm.register(SharedLocationSpec("x", writer=0, readers=(1,), value_nbytes=64))
    got = []

    def consumer(node, task):
        dnode = dsm.node(1)
        copy = yield from dnode.read_local("x")  # nothing written yet
        got.append(copy)
        yield Compute(0.5)  # let some updates arrive
        copy = yield from dnode.read_local("x")
        got.append(copy)

    m.spawn_on(0, producer(dsm, 0, "x", n_iters=5, dt=0.01))
    m.spawn_on(1, consumer)
    m.run_to_completion()
    assert got[0] is None
    assert got[1] is not None and got[1].age >= 0


def test_only_writer_may_write():
    m, dsm = build()
    dsm.register(SharedLocationSpec("x", writer=0, readers=(1,)))

    def bad(node, task):
        yield from dsm.node(1).write("x", 1, 0)

    m.spawn_on(1, bad)
    with pytest.raises(ProcessFailure) as exc:
        m.run_to_completion()
    assert isinstance(exc.value.original, PermissionError)


def test_only_declared_reader_may_read():
    m, dsm = build(n_nodes=3)
    dsm.register(SharedLocationSpec("x", writer=0, readers=(1,)))

    def bad(node, task):
        yield from dsm.node(2).global_read("x", 0, 0)

    m.spawn_on(2, bad)
    with pytest.raises(ProcessFailure) as exc:
        m.run_to_completion()
    assert isinstance(exc.value.original, PermissionError)


def test_write_ages_must_increase():
    m, dsm = build()
    dsm.register(SharedLocationSpec("x", writer=0, readers=(1,)))

    def bad(node, task):
        dnode = dsm.node(0)
        yield from dnode.write("x", 1, 5)
        yield from dnode.write("x", 2, 5)

    m.spawn_on(0, bad)
    with pytest.raises(ProcessFailure, match="increase") as exc:
        m.run_to_completion()
    assert isinstance(exc.value.original, ValueError)


def test_unknown_location_and_duplicate_registration():
    m, dsm = build()
    spec = SharedLocationSpec("x", writer=0, readers=(1,))
    dsm.register(spec)
    with pytest.raises(ValueError):
        dsm.register(spec)
    with pytest.raises(KeyError):
        dsm.spec("y")
    with pytest.raises(KeyError):
        dsm.register(SharedLocationSpec("z", writer=0, readers=(9,)))


def test_reader_with_no_producer_deadlocks_cleanly():
    m, dsm = build()
    dsm.register(SharedLocationSpec("x", writer=0, readers=(1,)))

    def consumer(node, task):
        yield from dsm.node(1).global_read("x", 10, 0)

    def idle_writer(node, task):
        yield Compute(0.1)  # never writes

    m.spawn_on(0, idle_writer)
    m.spawn_on(1, consumer, name="blocked-reader")
    with pytest.raises(DeadlockError):
        m.run_to_completion()


def test_request_mode_daemon_defers_until_satisfying_write():
    m, dsm = build(mode=GlobalReadMode.REQUEST)
    dsm.register(SharedLocationSpec("x", writer=0, readers=(1,), value_nbytes=64))
    dsm.spawn_daemons()
    log = []

    def slow_producer(node, task):
        dnode = dsm.node(0)
        for i in range(5):
            yield Compute(0.1)
            yield from dnode.write("x", i, i)

    m.spawn_on(0, slow_producer)
    m.spawn_on(1, gr_consumer(dsm, 1, "x", n_iters=5, age=0, dt=0.001, log=log))
    m.run_to_completion()
    assert all(got >= curr for curr, got in log)
    stats = dsm.node(1).gr_stats
    assert stats.requests_sent > 0
    node0 = dsm.node(0)
    assert node0.stats.requests_served + node0.stats.requests_deferred > 0
    assert_consistent(m)


def test_request_mode_immediate_reply_when_value_exists():
    m, dsm = build(mode=GlobalReadMode.REQUEST, n_nodes=3)
    # node 2 is a late joiner: producer wrote before it ever read, and the
    # update propagation happened before it attached -> it must request.
    dsm.register(SharedLocationSpec("x", writer=0, readers=(1, 2), value_nbytes=64))
    dsm.spawn_daemons()
    got = []

    def prod(node, task):
        yield from dsm.node(0).write("x", "v", 7)

    def late_reader(node, task):
        yield Compute(1.0)
        # drop our copy to force the request path
        dsm.node(2).agebuf._copies.clear()
        copy = yield from dsm.node(2).global_read("x", 7, 0)
        got.append(copy.age)

    def other_reader(node, task):
        copy = yield from dsm.node(1).global_read("x", 7, 0)

    m.spawn_on(0, prod)
    m.spawn_on(1, other_reader)
    m.spawn_on(2, late_reader)
    m.run_to_completion()
    assert got == [7]


def test_coalesce_policy_reduces_updates_under_congestion():
    def updates_sent(policy):
        m, dsm = build(seed=3, policy=policy, check=False, loader_bps=(9e6,))
        dsm.register(SharedLocationSpec("x", writer=0, readers=(1,), value_nbytes=1400))

        def flushing_producer(node, task):
            dnode = dsm.node(0)
            for i in range(200):
                yield Compute(node.cost(0.0002))
                yield from dnode.write("x", value=i, iter_no=i)
            yield from dnode.flush()

        handles = [m.spawn_on(0, flushing_producer)]

        def consumer(node, task):
            dnode = dsm.node(1)
            last = -1
            while last < 199:
                # age=0 at curr_iter=last+1 waits for a strictly newer value
                copy = yield from dnode.global_read("x", last + 1, 0)
                last = copy.age

        handles.append(m.spawn_on(1, consumer))
        # The loader keeps the queue non-empty, so a consumer that never
        # sees the last value would spin forever without a time bound.
        m.kernel.run(until=1000.0, stop_when=CompletionCounter(handles).all_done)
        return dsm.node(0).stats

    eager = updates_sent(UpdatePolicy.EAGER)
    coal = updates_sent(UpdatePolicy.COALESCE)
    assert coal.updates_sent < eager.updates_sent
    assert coal.updates_coalesced > 0


def test_blocked_reader_sends_nothing_flow_control():
    """§1: the receiver process is throttled and cannot send its own
    messages while blocked -> program-level flow control."""
    m, dsm = build(n_nodes=2)
    dsm.register(SharedLocationSpec("a", writer=0, readers=(1,), value_nbytes=64))
    dsm.register(SharedLocationSpec("b", writer=1, readers=(0,), value_nbytes=64))

    def slow_peer(node, task):
        d = dsm.node(0)
        for i in range(10):
            yield Compute(0.1)
            yield from d.write("a", i, i)
            yield from d.global_read("b", i, 2)

    def fast_peer(node, task):
        d = dsm.node(1)
        for i in range(10):
            yield Compute(0.001)
            yield from d.write("b", i, i)
            yield from d.global_read("a", i, 2)

    m.spawn_on(0, slow_peer)
    m.spawn_on(1, fast_peer)
    m.run_to_completion()
    # The fast peer can run at most `age+1` iterations ahead, so its writes
    # are paced by the slow peer: total sends stay equal, but it spent most
    # of the run blocked rather than flooding.
    assert dsm.node(1).gr_stats.block_time > 0.5
    assert_consistent(m)


def test_merged_stats_across_nodes():
    m, dsm = build(n_nodes=3)
    dsm.register(SharedLocationSpec("x", writer=0, readers=(1, 2), value_nbytes=64))
    logs = [[], []]
    m.spawn_on(0, producer(dsm, 0, "x", n_iters=10, dt=0.01))
    m.spawn_on(1, gr_consumer(dsm, 1, "x", 10, age=2, dt=0.001, log=logs[0]))
    m.spawn_on(2, gr_consumer(dsm, 2, "x", 10, age=2, dt=0.001, log=logs[1]))
    m.run_to_completion()
    merged = dsm.merged_gr_stats()
    assert merged.calls == 20
    assert merged.calls == dsm.node(1).gr_stats.calls + dsm.node(2).gr_stats.calls
