"""VirtualMachine/Task: send/recv semantics, fragmentation, barrier, mcast."""

import numpy as np
import pytest

from repro.network import SP2_SWITCH, EthernetNetwork, SwitchedNetwork
from repro.pvm import ANY_SOURCE, ANY_TAG, PvmOverheads, VirtualMachine
from repro.pvm.vm import HEADER_BYTES
from repro.sim import DeadlockError, Kernel


def make_vm(n=4, seed=0, network_cls=EthernetNetwork, overheads=None):
    kernel = Kernel(seed=seed)
    net = network_cls(kernel)
    vm = VirtualMachine(kernel, net, overheads=overheads)
    tasks = [vm.add_task(i) for i in range(n)]
    return kernel, vm, tasks


def test_send_recv_roundtrip():
    kernel, vm, (t0, t1, *_) = make_vm()
    got = {}

    def sender():
        yield from t0.send(1, tag=7, payload=3.14, nbytes=8)

    def receiver():
        msg = yield from t1.recv(src=0, tag=7)
        got["value"] = msg.payload
        got["latency"] = msg.latency

    kernel.spawn(sender())
    kernel.spawn(receiver())
    kernel.run()
    assert got["value"] == 3.14
    assert got["latency"] > 0


def test_recv_blocks_until_message_arrives():
    kernel, vm, (t0, t1, *_) = make_vm()
    times = {}

    def sender():
        from repro.sim import Compute

        yield Compute(2.0)
        yield from t0.send(1, tag=1, payload=1, nbytes=4)

    def receiver():
        yield from t1.recv()
        times["recv_done"] = kernel.now

    kernel.spawn(sender())
    kernel.spawn(receiver())
    kernel.run()
    assert times["recv_done"] > 2.0


def test_pairwise_fifo_order():
    kernel, vm, (t0, t1, *_) = make_vm()
    got = []

    def sender():
        for i in range(10):
            yield from t0.send(1, tag=5, payload=i, nbytes=4)

    def receiver():
        for _ in range(10):
            msg = yield from t1.recv(src=0, tag=5)
            got.append(msg.payload)

    kernel.spawn(sender())
    kernel.spawn(receiver())
    kernel.run()
    assert got == list(range(10))


def test_tag_and_source_filtering():
    kernel, vm, (t0, t1, t2, _) = make_vm()
    got = []

    def s0():
        yield from t0.send(2, tag=1, payload=10, nbytes=4)

    def s1():
        yield from t1.send(2, tag=2, payload=20, nbytes=4)

    def receiver():
        m = yield from t2.recv(src=1, tag=ANY_TAG)
        got.append(m.payload)
        m = yield from t2.recv(src=ANY_SOURCE, tag=1)
        got.append(m.payload)

    kernel.spawn(s0())
    kernel.spawn(s1())
    kernel.spawn(receiver())
    kernel.run()
    assert got == [20, 10]


def test_nrecv_nonblocking():
    kernel, vm, (t0, t1, *_) = make_vm()
    results = []

    def receiver():
        results.append(t1.nrecv_all(tag=3))  # nothing yet
        msg = yield from t1.recv()
        results.append(msg)

    def sender():
        yield from t0.send(1, tag=3, payload=5, nbytes=4)

    kernel.spawn(receiver())
    kernel.spawn(sender())
    kernel.run()
    assert results[0] == []
    assert results[1].payload == 5


def test_probe_and_pending():
    kernel, vm, (t0, t1, *_) = make_vm()
    seen = {}

    def sender():
        for _ in range(3):
            yield from t0.send(1, tag=9, payload=0, nbytes=4)

    def checker():
        from repro.sim import Compute

        yield Compute(1.0)  # let everything arrive
        seen["probe"] = t1.probe(tag=9)
        seen["pending"] = len(t1.mailbox)
        seen["probe_other"] = t1.probe(tag=99)

    kernel.spawn(sender())
    kernel.spawn(checker())
    kernel.run()
    assert seen["probe"] is True
    assert seen["pending"] == 3
    assert seen["probe_other"] is False


def test_large_message_fragments_and_reassembles():
    kernel, vm, (t0, t1, *_) = make_vm()
    payload = np.arange(1000.0)  # 8000 B > 1500 MTU
    got = {}

    def sender():
        yield from t0.send(1, tag=1, payload=payload, nbytes=payload.nbytes)

    def receiver():
        msg = yield from t1.recv()
        got["data"] = msg.payload

    frames_before = vm.network.stats.frames_sent
    kernel.spawn(sender())
    kernel.spawn(receiver())
    kernel.run()
    assert np.array_equal(got["data"], np.arange(1000.0))
    n_frames = vm.network.stats.frames_sent - frames_before
    assert n_frames == -(-(8000 + HEADER_BYTES) // 1500)


def test_send_overhead_charged_as_compute():
    ov = PvmOverheads(send_fixed=1e-3, send_per_byte=0.0)
    kernel, vm, (t0, t1, *_) = make_vm(overheads=ov)

    def sender():
        yield from t0.send(1, tag=1, payload=1, nbytes=4)

    h = kernel.spawn(sender())
    kernel.spawn(iter_recv(t1))
    kernel.run()
    assert h.busy_time == pytest.approx(1e-3)


def iter_recv(task, n=1):
    def proc():
        for _ in range(n):
            yield from task.recv()

    return proc()


def test_negative_recv_cost_is_refused_at_construction():
    """Left to the run, ``recv_fixed=-1.0`` lets it finish with every
    receive charge silently dropped (the DSM drain charges positive
    costs only)."""
    with pytest.raises(ValueError, match="recv_fixed"):
        PvmOverheads(recv_fixed=-1.0)


@pytest.mark.parametrize("field", [
    "send_fixed", "send_per_byte", "mcast_per_dest", "recv_per_byte",
])
@pytest.mark.parametrize("value", [-1, float("nan")])
def test_every_overhead_field_is_validated(field, value):
    with pytest.raises(ValueError, match=field):
        PvmOverheads(**{field: value})


def test_mcast_reaches_all_destinations_not_self():
    kernel, vm, tasks = make_vm(n=4)
    got = {i: [] for i in range(4)}

    def sender():
        yield from tasks[0].mcast([0, 1, 2, 3], tag=4, payload=1, nbytes=4)

    def receiver(i):
        msg = yield from tasks[i].recv(tag=4)
        got[i].append(msg.src)

    kernel.spawn(sender())
    for i in (1, 2, 3):
        kernel.spawn(receiver(i))
    kernel.run()
    assert got[0] == [] and all(got[i] == [0] for i in (1, 2, 3))


def test_barrier_synchronizes_entry_times():
    kernel, vm, tasks = make_vm(n=4)
    release_times = {}

    def member(i):
        from repro.sim import Compute

        yield Compute(float(i))  # staggered arrival: 0,1,2,3 s
        yield from tasks[i].barrier(range(4))
        release_times[i] = kernel.now

    for i in range(4):
        kernel.spawn(member(i))
    kernel.run()
    # nobody may leave before the last member (t=3.0) arrived
    assert min(release_times.values()) >= 3.0
    # and release is prompt (well under one second after)
    assert max(release_times.values()) < 3.2


def test_barrier_single_member_is_noop():
    kernel, vm, tasks = make_vm(n=1)

    def member():
        yield from tasks[0].barrier([0])
        return "out"

    h = kernel.spawn(member())
    kernel.run()
    assert h.result == "out"


def test_barrier_nonmember_rejected():
    kernel, vm, tasks = make_vm(n=2)

    def member():
        yield from tasks[0].barrier([1])

    kernel.spawn(member())
    with pytest.raises(Exception):
        kernel.run()


def test_recv_deadlock_detected_when_no_sender():
    kernel, vm, (t0, *_) = make_vm()

    def receiver():
        yield from t0.recv()

    kernel.spawn(receiver(), name="lonely")
    with pytest.raises(DeadlockError):
        kernel.run()


def test_send_to_unknown_task_raises():
    kernel, vm, (t0, *_) = make_vm(n=2)

    def sender():
        yield from t0.send(42, tag=0, payload=1, nbytes=4)

    kernel.spawn(sender())
    with pytest.raises(Exception):
        kernel.run()


def test_works_over_switch_network_too():
    kernel, vm, (t0, t1, *_) = make_vm(
        network_cls=lambda kernel: SwitchedNetwork(kernel, SP2_SWITCH)
    )
    got = {}

    def sender():
        yield from t0.send(1, tag=1, payload=np.arange(3000.0), nbytes=24000)

    def receiver():
        msg = yield from t1.recv()
        got["n"] = msg.payload.size

    kernel.spawn(sender())
    kernel.spawn(receiver())
    kernel.run()
    assert got["n"] == 3000


def test_duplicate_task_rejected():
    kernel, vm, _ = make_vm(n=2)
    with pytest.raises(ValueError):
        vm.add_task(0)


def test_message_counters():
    kernel, vm, (t0, t1, *_) = make_vm()

    def sender():
        for _ in range(4):
            yield from t0.send(1, tag=1, payload=1, nbytes=4)

    def receiver():
        for _ in range(4):
            yield from t1.recv()

    kernel.spawn(sender())
    kernel.spawn(receiver())
    kernel.run()
    assert t0.messages_sent == 4
    assert t1.messages_received == 4
    assert vm.total_messages() == 4
    assert t0.bytes_sent == 16


# ---------------------------------------------------------------------------
# hardware multicast (switched fabrics with a tree, DESIGN.md §14)
# ---------------------------------------------------------------------------


def make_switched_vm(n=4, seed=0, hw_multicast=True):
    from repro.network.switched import SwitchedConfig, SwitchedNetwork

    kernel = Kernel(seed=seed)
    net = SwitchedNetwork(kernel, SwitchedConfig(radix=4))
    vm = VirtualMachine(kernel, net, hw_multicast=hw_multicast)
    tasks = [vm.add_task(i) for i in range(n)]
    return kernel, vm, tasks


def test_hw_multicast_full_fanout_uses_one_wire_broadcast():
    kernel, vm, tasks = make_switched_vm()
    got = {i: [] for i in range(4)}

    def sender():
        yield from tasks[0].mcast([1, 2, 3], tag=4, payload=(1, 2), nbytes=64)

    def receiver(i):
        msg = yield from tasks[i].recv(tag=4)
        got[i].append((msg.src, msg.dst, msg.payload))

    kernel.spawn(sender())
    for i in (1, 2, 3):
        kernel.spawn(receiver(i))
    kernel.run()
    # every receiver sees the message addressed to itself (not BROADCAST)
    assert all(got[i] == [(0, i, (1, 2))] for i in (1, 2, 3))
    # one frame climbed the tree; accounting stays logical
    assert vm.network.stats.broadcasts == 1
    assert tasks[0].messages_sent == 3
    assert tasks[0].bytes_sent == 3 * 64


def test_hw_multicast_partial_fanout_falls_back_to_unicast():
    """A broadcast reaches every adapter; a partial destination set must
    therefore go out as unicasts or it would leak to non-destinations."""
    kernel, vm, tasks = make_switched_vm()

    def sender():
        yield from tasks[0].mcast([1, 2], tag=4, payload=(1,), nbytes=32)

    def receiver(i):
        yield from tasks[i].recv(tag=4)

    kernel.spawn(sender())
    for i in (1, 2):
        kernel.spawn(receiver(i))
    kernel.run()
    assert vm.network.stats.broadcasts == 0


def test_hw_multicast_barrier_release_falls_back_to_unicast():
    """A barrier's release is a unicast fan-out of 4-byte messages even
    when one BROADCAST frame could reach every member, so its wire time
    is the same with and without hardware multicast."""
    kernel, vm, tasks = make_switched_vm()

    def member(i):
        yield from tasks[i].barrier(range(4))

    for i in range(4):
        kernel.spawn(member(i))
    kernel.run()
    assert vm.network.stats.broadcasts == 0
    assert vm.network.stats.frames_sent == 6  # 3 arrivals + 3 releases
    assert vm.network.stats.bytes_sent == 6 * (4 + HEADER_BYTES)


def test_hw_multicast_off_by_default():
    kernel, vm, tasks = make_switched_vm(hw_multicast=False)

    def sender():
        yield from tasks[0].mcast([1, 2, 3], tag=4, payload=(1,), nbytes=16)

    def receiver(i):
        yield from tasks[i].recv(tag=4)

    kernel.spawn(sender())
    for i in (1, 2, 3):
        kernel.spawn(receiver(i))
    kernel.run()
    assert vm.network.stats.broadcasts == 0


# ---------------------------------------------------------------------------
# frame-level receive path: single-fragment fast path vs reassembly
# ---------------------------------------------------------------------------


def _last_frame_times(net):
    """(msg_id, dst) -> deliver time of the message's last unicast frame."""
    done = {}
    net.observe_deliveries(
        lambda f: done.__setitem__((f.payload[0], f.dst), f.deliver_time)
    )
    return done


def test_mixed_single_and_multi_fragment_messages_stay_fifo_per_pair():
    """Small messages bypass the reassembly table, large ones go through
    it; per sender/receiver pair the mailbox still fills in send order and
    ``arrival_time`` is the delivery time of each message's last frame."""
    kernel, vm, (t0, t1, *_) = make_vm()
    done = _last_frame_times(vm.network)
    sizes = [4000, 8, 1468, 1469, 16, 9000, 0]  # 1468 + 32 B header == MTU

    def sender():
        for i, nbytes in enumerate(sizes):
            yield from t0.send(1, tag=i, payload=i, nbytes=nbytes)

    kernel.spawn(sender())
    kernel.run()
    assert [m.tag for m in t1.mailbox] == list(range(len(sizes)))
    assert [m.nbytes for m in t1.mailbox] == sizes
    for m in t1.mailbox:
        assert m.arrival_time == done[(m.msg_id, 1)]
    assert t1._partial == {}
    n_frames = sum(-(-(n + HEADER_BYTES) // 1500) for n in sizes)
    assert vm.network.stats.frames_sent == n_frames


def test_reassembly_table_holds_only_fragmented_messages_in_flight():
    kernel, vm, (t0, t1, *_) = make_vm()
    seen = []
    vm.network.observe_deliveries(lambda f: seen.append(dict(t1._partial)))

    def sender():
        yield from t0.send(1, tag=1, payload="x", nbytes=100)
        yield from t0.send(1, tag=2, payload="y", nbytes=4000)

    kernel.spawn(sender())
    kernel.run()
    # observers run before the frame is handed up: the table is empty when
    # the small message lands and holds the large one between its fragments
    assert seen[0] == {} and seen[1] == {}
    assert all(len(s) == 1 for s in seen[2:])
    assert [m.payload for m in t1.mailbox] == ["x", "y"]


@pytest.mark.parametrize("nbytes", [64, 4000], ids=["one-frame", "fragmented"])
def test_hw_multicast_rebinds_a_private_copy_per_receiver(nbytes):
    """A BROADCAST message is rebound to each receiver on both receive
    paths, so ``dst`` and ``arrival_time`` are never shared across tasks."""
    kernel, vm, tasks = make_switched_vm()

    def sender():
        yield from tasks[0].mcast([1, 2, 3], tag=4, payload=(1, 2), nbytes=nbytes)
        yield from tasks[0].mcast([1, 2, 3], tag=5, payload=(3, 4), nbytes=nbytes)

    kernel.spawn(sender())
    kernel.run()
    assert tasks[0].mailbox == []  # the sender never hears its own broadcast
    firsts = [tasks[i].mailbox[0] for i in (1, 2, 3)]
    assert len({id(m) for m in firsts}) == 3
    for i in (1, 2, 3):
        assert [(m.tag, m.dst, m.src) for m in tasks[i].mailbox] == [(4, i, 0), (5, i, 0)]
        assert tasks[i]._partial == {}
        for m in tasks[i].mailbox:
            assert m.send_time < m.arrival_time <= kernel.now
