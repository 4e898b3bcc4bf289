"""Ethernet model: serialization, contention, broadcast, statistics."""

import pytest

from repro.network import BROADCAST, EthernetNetwork, Frame, ethernet
from repro.sim import Kernel


def make_net(n_nodes=4, seed=0):
    kernel = Kernel(seed=seed)
    net = EthernetNetwork(kernel)
    inboxes = {i: [] for i in range(n_nodes)}
    for i in range(n_nodes):
        net.attach(i, inboxes[i].append)
    return kernel, net, inboxes


def test_single_frame_latency_matches_model():
    kernel, net, inboxes = make_net()
    frame = Frame(src=0, dst=1, size_bytes=1000)
    net.adapters[0].send(frame)
    kernel.run()
    assert inboxes[1] == [frame]
    expected = ethernet.IFG + ethernet.tx_time(1000) + ethernet.PROP_DELAY
    assert frame.deliver_time == pytest.approx(expected)


def test_tx_time_min_frame_padding():
    # payloads below the 46-byte minimum are padded on the wire
    assert ethernet.tx_time(1) == ethernet.tx_time(46)
    assert ethernet.tx_time(47) > ethernet.tx_time(46)


def test_tx_time_10mbps_scale():
    # 1000 B payload + 26 B overhead = 8208 bits / 10 Mbps = 820.8 us
    assert ethernet.tx_time(1000) == pytest.approx(8208e-7)


def test_backoff_draw_is_bit_identical_to_uniform():
    """``window * random()`` replaces ``uniform(0.0, window)`` on the
    ``eth.backoff`` stream: same draws consumed, same bits out."""
    kernel, net, _ = make_net(seed=11)
    draws = net._rng
    clone = Kernel(seed=11).rng.get("eth.backoff")
    for window in (2, 3, 5, 8) * 50:
        assert window * draws.random() == float(clone.uniform(0.0, window))
    assert draws.bit_generator.state == clone.bit_generator.state


def test_mtu_enforced():
    kernel, net, _ = make_net()
    with pytest.raises(ValueError):
        net.adapters[0].send(Frame(src=0, dst=1, size_bytes=2000))
    with pytest.raises(ValueError):
        ethernet.tx_time(1501)


def test_frames_serialize_on_shared_medium():
    """Two frames from different senders must not overlap in time."""
    kernel, net, inboxes = make_net()
    f1 = Frame(src=0, dst=2, size_bytes=1500)
    f2 = Frame(src=1, dst=3, size_bytes=1500)
    net.adapters[0].send(f1)
    net.adapters[1].send(f2)
    kernel.run()
    first, second = sorted([f1, f2], key=lambda f: f.tx_start_time)
    tx = ethernet.tx_time(1500)
    assert second.tx_start_time >= first.tx_start_time + tx
    assert net.stats.contended_acquisitions >= 1


def test_queueing_delay_grows_with_backlog():
    kernel, net, _ = make_net()
    frames = [Frame(src=0, dst=1, size_bytes=1500) for _ in range(10)]
    for f in frames:
        net.adapters[0].send(f)
    kernel.run()
    delays = [f.queueing_delay for f in frames]
    assert delays == sorted(delays)
    assert delays[-1] > delays[0]


def test_broadcast_delivered_to_all_others_single_transmission():
    kernel, net, inboxes = make_net(n_nodes=5)
    frame = Frame(src=2, dst=BROADCAST, size_bytes=100)
    net.adapters[2].send(frame)
    kernel.run()
    for i in range(5):
        if i == 2:
            assert inboxes[i] == []
        else:
            assert inboxes[i] == [frame]
    assert net.stats.frames_sent == 1
    assert net.stats.broadcasts == 1


def test_round_robin_fairness_under_contention():
    """With all nodes continuously backlogged, each node gets medium turns."""
    kernel, net, inboxes = make_net(n_nodes=4, seed=1)
    order = []
    net.observe_deliveries(lambda f: order.append(f.src))
    for node in range(4):
        for _ in range(5):
            if node != 3:
                net.adapters[node].send(Frame(src=node, dst=3, size_bytes=1500))
            else:
                net.adapters[node].send(Frame(src=3, dst=0, size_bytes=1500))
    kernel.run()
    # every sender transmitted all its frames
    assert sorted(set(order)) == [0, 1, 2, 3]
    # no sender monopolised the first 8 slots
    assert len(set(order[:8])) >= 3


def test_utilization_and_counters():
    kernel, net, _ = make_net()
    for _ in range(3):
        net.adapters[0].send(Frame(src=0, dst=1, size_bytes=1000))
    kernel.run()
    s = net.stats
    assert s.frames_sent == 3
    assert s.bytes_sent == 3000
    assert s.wire_bytes_sent == 3 * 1026
    assert 0 < s.utilization(kernel.now) <= 1.0


def test_deterministic_across_runs():
    def run_once():
        kernel, net, _ = make_net(n_nodes=4, seed=99)
        times = []
        net.observe_deliveries(lambda f: times.append((f.frame_id, f.deliver_time)))
        for node in range(3):
            for _ in range(4):
                net.adapters[node].send(Frame(src=node, dst=3, size_bytes=700))
        kernel.run()
        return [t for _, t in times]

    assert run_once() == run_once()


def test_frame_to_self_rejected():
    with pytest.raises(ValueError):
        Frame(src=1, dst=1, size_bytes=10)


def test_send_through_wrong_adapter_rejected():
    kernel, net, _ = make_net()
    with pytest.raises(ValueError):
        net.adapters[0].send(Frame(src=1, dst=2, size_bytes=10))


def test_unknown_destination_raises():
    kernel, net, _ = make_net(n_nodes=2)
    net.adapters[0].send(Frame(src=0, dst=77, size_bytes=10))
    with pytest.raises(Exception):
        kernel.run()


def test_duplicate_attach_rejected():
    kernel, net, _ = make_net(n_nodes=2)
    with pytest.raises(ValueError):
        net.attach(0, lambda f: None)


def test_backlog_tracks_queue_occupancy():
    kernel, net, _ = make_net(n_nodes=4)
    net.adapters[0].send(Frame(src=0, dst=1, size_bytes=100))
    net.adapters[2].send(Frame(src=2, dst=1, size_bytes=100))
    assert net._backlog == {0, 2}
    kernel.run()
    # every queue drained -> the incrementally maintained set is empty
    assert net._backlog == set()
    assert all(not a.queue for a in net.adapters.values())


def test_flush_queue_keeps_backlog_consistent():
    kernel, net, _ = make_net(n_nodes=4)
    for _ in range(3):
        net.adapters[0].send(Frame(src=0, dst=1, size_bytes=100))
    assert 0 in net._backlog
    lost = net.flush_queue(0)
    # the frame mid-transmission already left the queue; the rest flush
    assert lost >= 1
    assert 0 not in net._backlog
    kernel.run()
    assert net._backlog == set()


def test_crash_injector_flush_leaves_arbitration_consistent():
    """A crash flush must not leave a stale backlog entry behind (the
    injector used to clear the adapter queue directly, which would
    desynchronise the incremental contender set)."""
    from repro.cluster.machine import Machine, MachineConfig
    from repro.faults.plan import FaultPlan, NodeFault
    from repro.sim import Compute

    plan = FaultPlan(
        node_faults=(NodeFault(node=1, kind="crash", start=0.001, duration=0.01),)
    )
    machine = Machine(MachineConfig(n_nodes=3, seed=5, faults=plan))

    def make_proc(node, task):
        def proc():
            for _ in range(20):
                yield from task.send(
                    (node.node_id + 1) % 3, 1, ("ping",), nbytes=400
                )
                yield Compute(0.0002)

        return proc()

    for i in range(3):
        machine.spawn_on(i, make_proc)
    machine.kernel.run(until=0.05)
    assert machine.network._backlog == {
        nid for nid, a in machine.network.adapters.items() if a.queue
    }


def test_flush_between_arbitration_win_and_tx_start():
    """PR-7 regression: a crash flush can land after a node *won* the
    medium but before its ``_start_tx`` fires.  The defensive empty-queue
    branch must release the medium, drop the stale backlog entry and
    re-arbitrate — otherwise the next sender is starved forever."""
    kernel, net, inboxes = make_net()
    f0 = Frame(src=0, dst=2, size_bytes=400)
    f1 = Frame(src=1, dst=2, size_bytes=400)
    net.adapters[0].send(f0)  # sole contender: wins, _start_tx in one IFG

    def mid_gap():
        assert net._transmitting  # the win already happened
        lost = net.flush_queue(0)
        assert lost == 1
        net.adapters[1].send(f1)

    kernel.schedule(ethernet.IFG / 2, mid_gap)
    kernel.run()
    assert inboxes[2] == [f1]  # the waiting sender was re-acquired, not starved
    assert net._backlog == set()
    assert not net._transmitting


def test_backlog_exact_after_crash_recovery_traffic():
    """After a crash window ends, the recovered node's sends flow again
    and the incremental backlog set equals the true queue occupancy at
    every quiescent point (here: end of run)."""
    from repro.cluster.machine import Machine, MachineConfig
    from repro.faults.plan import FaultPlan, NodeFault
    from repro.sim import Compute

    plan = FaultPlan(
        node_faults=(NodeFault(node=0, kind="crash", start=0.002, duration=0.004),)
    )
    machine = Machine(MachineConfig(n_nodes=2, seed=9, faults=plan))
    seen = []
    orig_deliver = machine.network._deliver

    def observing_deliver(frame, dst):
        seen.append(frame)
        orig_deliver(frame, dst)

    machine.network._deliver = observing_deliver

    def make_proc(node, task):
        def proc():
            for k in range(30):
                yield from task.send(1 - node.node_id, 1, ("seq", k), nbytes=300)
                yield Compute(0.0004)

        return proc()

    for i in range(2):
        machine.spawn_on(i, make_proc)
    machine.kernel.run(until=0.1)
    assert machine.network._backlog == {
        nid for nid, a in machine.network.adapters.items() if a.queue
    }
    # frames enqueued after the crash window still flowed
    assert any(f.enqueue_time > 0.006 for f in seen)
