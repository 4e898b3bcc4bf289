"""Property-based tests for the link models: conservation and sanity.

Two generations of link model are covered: the shared Ethernet and the
SP2 switch preset (``traffic`` strategy, below), and the switched
store-and-forward fabrics of :mod:`repro.network.switched`
(``switched_traffic``), whose properties are parametrized over every
fabric kind — single switch, oversubscribed hierarchical tree,
full-bisection fat-tree — and additionally checked under seeded
drop/duplicate fault plans.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.injectors import MessageFaultInjector
from repro.faults.plan import FaultPlan, MessageFaults
from repro.network import BROADCAST, EthernetNetwork, Frame
from repro.network.switched import FABRICS, SP2_SWITCH, SwitchedConfig, SwitchedNetwork
from repro.sim import Kernel
from tests.network.oracles import min_frame_latency


@st.composite
def traffic(draw):
    n_nodes = draw(st.integers(min_value=2, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=1000))
    frames = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n_nodes - 1),  # src
                st.integers(min_value=-1, max_value=n_nodes - 1),  # dst or -1
                st.integers(min_value=1, max_value=1500),  # size
            ),
            min_size=1,
            max_size=40,
        )
    )
    return n_nodes, seed, frames


@settings(max_examples=40, deadline=None)
@given(traffic(), st.booleans())
def test_property_every_frame_delivered_exactly_right(t, use_switch):
    """Conservation: each unicast frame arrives exactly once at its
    destination; each broadcast arrives exactly once at every other node;
    nothing is duplicated, dropped, or delivered to the sender."""
    n_nodes, seed, frames = t
    kernel = Kernel(seed=seed)
    net = SwitchedNetwork(kernel, SP2_SWITCH) if use_switch else EthernetNetwork(kernel)
    received = {i: [] for i in range(n_nodes)}
    for i in range(n_nodes):
        net.attach(i, (lambda i: lambda f: received[i].append(f))(i))

    expected = {i: 0 for i in range(n_nodes)}
    sent = 0
    for src, dst, size in frames:
        if dst == src:
            continue
        target = BROADCAST if dst < 0 else dst
        net.adapters[src].send(Frame(src=src, dst=target, size_bytes=size))
        sent += 1
        if target == BROADCAST:
            for j in range(n_nodes):
                if j != src:
                    expected[j] += 1
        else:
            expected[dst] += 1
    kernel.run()
    for i in range(n_nodes):
        assert len(received[i]) == expected[i]
        assert all(f.src != i for f in received[i])
    if sent:
        util = net.stats.utilization(kernel.now)
        assert util > 0.0
        if not use_switch:
            # the shared medium serialises everything: utilization <= 1;
            # the switch's busy_time sums over parallel links, so its
            # aggregate "utilization" may legitimately exceed 1
            assert util <= 1.0


@settings(max_examples=30, deadline=None)
@given(traffic())
def test_property_delays_are_causal(t):
    """Timestamps are ordered: enqueue <= tx start <= delivery, and the
    medium never spends more busy time than elapsed time."""
    n_nodes, seed, frames = t
    kernel = Kernel(seed=seed)
    net = EthernetNetwork(kernel)
    delivered = []
    for i in range(n_nodes):
        net.attach(i, delivered.append)
    for src, dst, size in frames:
        if dst == src or dst < 0:
            continue
        net.adapters[src].send(Frame(src=src, dst=dst, size_bytes=size))
    kernel.run()
    for f in delivered:
        assert 0.0 <= f.enqueue_time <= f.tx_start_time <= f.deliver_time
        assert f.queueing_delay >= 0.0
        assert f.latency > 0.0
    assert net.stats.busy_time <= kernel.now + 1e-12


# ---------------------------------------------------------------------------
# switched fabrics (repro.network.switched), parametrized over fabric kind
# ---------------------------------------------------------------------------


@st.composite
def switched_traffic(draw):
    """Random (n_nodes, radix, frames) with staggered send times."""
    n_nodes = draw(st.integers(min_value=2, max_value=18))
    radix = draw(st.integers(min_value=2, max_value=5))
    frames = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n_nodes - 1),  # src
                st.integers(min_value=-1, max_value=n_nodes - 1),  # dst or -1
                st.integers(min_value=1, max_value=1500),  # size
                st.integers(min_value=0, max_value=1000),  # send time, µs
            ),
            min_size=1,
            max_size=40,
        )
    )
    return n_nodes, radix, frames


def _drive(fabric, t, plan=None):
    """Build a fabric, send ``t``'s frames at their times, run to empty.

    Returns ``(net, sent, delivered)`` where ``sent`` is the list of
    Frame objects actually submitted (self-sends skipped) and
    ``delivered`` the list of ``(recv_time, node, frame)`` in delivery
    order.
    """
    n_nodes, radix, frames = t
    kernel = Kernel(seed=0)
    net = SwitchedNetwork(kernel, SwitchedConfig(fabric=fabric, radix=radix))
    delivered = []
    for i in range(n_nodes):
        net.attach(i, (lambda i: lambda f: delivered.append((kernel.now, i, f)))(i))
    if plan is not None:
        MessageFaultInjector(kernel, net, plan)

    sent = []
    for src, dst, size, at in frames:
        if dst == src:
            continue
        f = Frame(src=src, dst=BROADCAST if dst < 0 else dst, size_bytes=size)
        sent.append(f)
        kernel.schedule_at(at * 1e-6, net.adapters[src].send, f)
    kernel.run()
    return net, sent, delivered


@pytest.mark.parametrize("fabric", FABRICS)
@settings(max_examples=30, deadline=None)
@given(switched_traffic())
def test_property_switched_exactly_once(fabric, t):
    """Fault-free conservation: every unicast frame arrives exactly once
    at its destination, every broadcast exactly once at every other
    node; nothing is lost, duplicated, or echoed to the sender."""
    n_nodes = t[0]
    net, sent, delivered = _drive(fabric, t)
    got = {}
    for _, node, f in delivered:
        got[(id(f), node)] = got.get((id(f), node), 0) + 1
        assert f.src != node
    for f in sent:
        if f.dst == BROADCAST:
            targets = [n for n in range(n_nodes) if n != f.src]
        else:
            targets = [f.dst]
        for n in targets:
            assert got.pop((id(f), n), 0) == 1
    assert not got  # no deliveries beyond the expected ones


@pytest.mark.parametrize("fabric", FABRICS)
@settings(max_examples=30, deadline=None)
@given(switched_traffic())
def test_property_switched_fifo_per_src_dst(fabric, t):
    """Frames between one (src, dst) pair arrive in send order — the
    busy-until clocks never let a later frame overtake on the same path."""
    _, sent, delivered = _drive(fabric, t)
    order = {id(f): k for k, f in enumerate(sent)}
    per_pair: dict = {}
    for _, node, f in delivered:
        per_pair.setdefault((f.src, node), []).append(f)
    for seq in per_pair.values():
        expect = sorted(seq, key=lambda f: (f.enqueue_time, order[id(f)]))
        assert [id(f) for f in seq] == [id(f) for f in expect]


@pytest.mark.parametrize("fabric", FABRICS)
@settings(max_examples=30, deadline=None)
@given(switched_traffic())
def test_property_switched_latency_lower_bound(fabric, t):
    """No frame beats the analytic zero-contention latency of its path."""
    net, _, delivered = _drive(fabric, t)
    for recv_t, node, f in delivered:
        lower = min_frame_latency(net, f.src, node, f.size_bytes)
        assert recv_t - f.enqueue_time >= lower * (1 - 1e-9)
        assert recv_t - f.enqueue_time >= net.config.min_latency() * (1 - 1e-9)


@pytest.mark.parametrize("fabric", FABRICS)
@settings(max_examples=30, deadline=None)
@given(switched_traffic())
def test_property_switched_timestamps_causal(fabric, t):
    """enqueue <= tx start < delivery, and every busy clock stops at or
    before the last event the kernel ran."""
    net, _, delivered = _drive(fabric, t)
    for recv_t, _, f in delivered:
        assert f.enqueue_time <= f.tx_start_time < recv_t
    if delivered:
        horizon = max(rt for rt, _, _ in delivered)
        assert all(done <= horizon + 1e-12 for done in net._busy.values())


@pytest.mark.parametrize("fabric", FABRICS)
@settings(max_examples=20, deadline=None)
@given(switched_traffic())
def test_property_switched_deterministic(fabric, t):
    """Two identical runs produce the identical delivery sequence."""
    def signature():
        _, sent, delivered = _drive(fabric, t)
        order = {id(f): k for k, f in enumerate(sent)}
        return [(rt, node, order[id(f)]) for rt, node, f in delivered]

    assert signature() == signature()


@pytest.mark.parametrize("fabric", FABRICS)
@settings(max_examples=20, deadline=None)
@given(switched_traffic())
def test_property_switched_accounting_conserved(fabric, t):
    """Stats count one frame per delivery, bytes match, busy_time > 0
    whenever something was sent."""
    net, sent, delivered = _drive(fabric, t)
    assert net.stats.frames_sent == len(delivered)
    assert net.stats.bytes_sent == sum(f.size_bytes for _, _, f in delivered)
    if sent:
        assert net.stats.busy_time > 0.0


@pytest.mark.parametrize("fabric", FABRICS)
@settings(max_examples=20, deadline=None)
@given(switched_traffic(), st.integers(min_value=0, max_value=1000))
def test_property_switched_drop_plan_loses_only(fabric, t, seed):
    """Under a drop plan: delivered is a subset of sent, and per
    (src, dst) the delivery order is a subsequence of the send order."""
    plan = FaultPlan(seed=seed, messages=MessageFaults(drop=0.3))
    _, sent, delivered = _drive(fabric, t, plan=plan)
    sent_ids = {id(f) for f in sent}
    order = {id(f): k for k, f in enumerate(sent)}
    per_pair: dict = {}
    for _, node, f in delivered:
        assert id(f) in sent_ids
        per_pair.setdefault((f.src, node), []).append(f)
    for seq in per_pair.values():
        # drops only remove deliveries: the survivors stay in send order
        expect = sorted(seq, key=lambda f: (f.enqueue_time, order[id(f)]))
        assert [id(f) for f in seq] == [id(f) for f in expect]


@pytest.mark.parametrize("fabric", FABRICS)
@settings(max_examples=20, deadline=None)
@given(switched_traffic(), st.integers(min_value=0, max_value=1000))
def test_property_switched_duplicate_plan_adds_only(fabric, t, seed):
    """Under a duplication plan: every expected delivery still happens
    (dup is lossless), every extra copy is of a frame really sent, and
    dedupe by frame identity recovers exactly the fault-free set."""
    n_nodes = t[0]
    plan = FaultPlan(seed=seed, messages=MessageFaults(duplicate=0.4))
    _, sent, delivered = _drive(fabric, t, plan=plan)
    expected = set()
    for f in sent:
        targets = (
            [n for n in range(n_nodes) if n != f.src]
            if f.dst == BROADCAST else [f.dst]
        )
        expected.update((id(f), n) for n in targets)
    got = [(id(f), node) for _, node, f in delivered]
    assert set(got) == expected  # dedupe recovers the exact fault-free set
    assert len(got) >= len(expected)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(FABRICS),
    st.integers(min_value=2, max_value=6),  # radix
    st.integers(min_value=2, max_value=64),  # n_nodes
    st.integers(min_value=0, max_value=1500),  # size
)
def test_property_switched_path_oracle_well_formed(fabric, radix, n_nodes, size):
    """For every pair: paths start/end on the right host links, the
    analytic latency is symmetric in path length and never beats the
    fabric-wide minimum."""
    kernel = Kernel(seed=0)
    net = SwitchedNetwork(kernel, SwitchedConfig(fabric=fabric, radix=radix))
    for i in range(n_nodes):
        net.attach(i, lambda f: None)
    pairs = [(0, n_nodes - 1), (0, 1), (n_nodes // 2, 0)]
    for src, dst in pairs:
        if src == dst:
            continue
        hops = net.path_hops(src, dst)
        assert hops[0][0] == ("h", src, "u")
        assert hops[-1][0] == ("h", dst, "d")
        assert len(hops) == len(net.path_hops(dst, src))
        assert len(hops) % 2 == 0  # climb and descend are symmetric
        lat = min_frame_latency(net, src, dst, size)
        assert lat >= net.config.min_latency() * (1 - 1e-9)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(FABRICS),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=2, max_value=40),
)
def test_property_switched_broadcast_uses_each_link_once(fabric, radix, n_nodes):
    """Tree multicast: the sender's up-link is serialised exactly once
    per broadcast, so its busy clock advances by one wire time — not by
    (n-1) sender transmissions as per-destination replication would."""
    kernel = Kernel(seed=0)
    net = SwitchedNetwork(kernel, SwitchedConfig(fabric=fabric, radix=radix))
    count = [0]
    for i in range(n_nodes):
        net.attach(i, lambda f: count.__setitem__(0, count[0] + 1))
    net.adapters[0].send(Frame(src=0, dst=BROADCAST, size_bytes=700))
    kernel.run()
    assert count[0] == n_nodes - 1
    assert net._busy[("h", 0, "u")] == pytest.approx(net.config.tx_time(700))
