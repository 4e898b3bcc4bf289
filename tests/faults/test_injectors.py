"""Unit tests for the message and node fault injectors."""

from dataclasses import replace

import pytest

from repro.faults import FaultPlan, MessageFaults, NodeFault, NodeFaultModel, install_faults
from repro.network.ethernet import EthernetNetwork
from repro.network.frame import Frame
from repro.sim import Kernel


class StubNode:
    def __init__(self, node_id):
        self.node_id = node_id
        self.fault_model = None


def traffic(plan, n_frames=40, n_nodes=3, interval=0.5e-3, size=400):
    """Run a small frame mill under ``plan``; returns (delivered, injector)."""
    kernel = Kernel(seed=5)
    net = EthernetNetwork(kernel)
    delivered = []
    for i in range(n_nodes):
        net.attach(i, (lambda dst: lambda f: delivered.append((kernel.now, f.src, dst)))(i))
    injector = install_faults(
        kernel, net, [StubNode(i) for i in range(n_nodes)], plan
    )

    def send(k):
        src = k % n_nodes
        net.adapters[src].send(
            Frame(src=src, dst=(src + 1) % n_nodes, size_bytes=size)
        )
        if k + 1 < n_frames:
            kernel.schedule(interval, send, k + 1)

    kernel.schedule(0.0, send, 0)
    kernel.run()
    return delivered, injector


def plan_of(**rates):
    return FaultPlan(seed=3, messages=MessageFaults(**rates))


def test_noop_plan_changes_nothing():
    baseline, _ = traffic(plan_of())
    again, inj = traffic(plan_of())
    assert baseline == again
    assert inj.stats.eligible == 0  # no rates -> dice never rolled


def test_drop_all_loses_everything_inside_window():
    delivered, inj = traffic(plan_of(drop=1.0, stop=0.01), n_frames=40)
    assert inj.stats.dropped > 0
    # frames sent after the window close still arrive
    assert delivered
    assert all(t >= 0.01 for (t, _, _) in delivered)
    assert len(delivered) + inj.stats.dropped == 40


def test_duplicate_all_delivers_exactly_twice():
    from collections import Counter

    baseline, _ = traffic(plan_of())
    delivered, inj = traffic(plan_of(duplicate=1.0))
    assert inj.stats.duplicated == len(baseline)
    assert len(delivered) == 2 * len(baseline)
    # every stream carries exactly twice its fault-free frame count
    base_pairs = Counter((s, d) for (_, s, d) in baseline)
    dup_pairs = Counter((s, d) for (_, s, d) in delivered)
    assert dup_pairs == {pair: 2 * n for pair, n in base_pairs.items()}


def test_delay_preserves_count_and_adds_latency():
    from collections import Counter

    baseline, _ = traffic(plan_of())
    delivered, inj = traffic(plan_of(delay=1.0, delay_s=(0.01, 0.02)))
    assert inj.stats.delayed == len(baseline)
    assert len(delivered) == len(baseline)
    assert Counter((s, d) for (_, s, d) in delivered) == Counter(
        (s, d) for (_, s, d) in baseline
    )
    # every frame was held at least the minimum extra latency
    assert min(t for (t, _, _) in delivered) >= (
        min(t for (t, _, _) in baseline) + 0.01 - 1e-12
    )


def test_reorder_is_lossless():
    baseline, _ = traffic(plan_of())
    delivered, inj = traffic(plan_of(reorder=0.5))
    assert inj.stats.reordered > 0
    # lossless: the safety flush released every held frame
    assert sorted((s, d) for (_, s, d) in delivered) == sorted(
        (s, d) for (_, s, d) in baseline
    )


def test_same_plan_seed_is_bit_identical():
    plan = plan_of(drop=0.1, duplicate=0.1, delay=0.1, reorder=0.1)
    d1, i1 = traffic(plan)
    d2, i2 = traffic(plan)
    assert d1 == d2
    assert i1.log.digest_fields() == i2.log.digest_fields()
    assert i1.stats.as_dict() == i2.stats.as_dict()


def test_different_plan_seed_rerolls_decisions():
    plan = plan_of(drop=0.3)
    _, i1 = traffic(plan)
    _, i2 = traffic(replace(plan, seed=99))
    assert i1.log.rows() != i2.log.rows()


def test_kinds_filter_restricts_faults():
    plan = FaultPlan(seed=3, messages=MessageFaults(drop=1.0, kinds=("pvm",)))
    delivered, inj = traffic(plan)  # traffic frames are kind="data"
    assert inj.stats.eligible == 0
    assert len(delivered) == 40


def test_barrier_tagged_pvm_frames_are_protected():
    class Msg:
        tag = -1000

    kernel = Kernel(seed=0)
    net = EthernetNetwork(kernel)
    net.attach(0, lambda f: None)
    net.attach(1, lambda f: None)
    inj = install_faults(kernel, net, [], plan_of(drop=1.0))
    barrier = Frame(src=0, dst=1, size_bytes=10, kind="pvm", payload=(7, 0, 1, Msg()))
    assert not inj.messages._eligible(barrier)

    class Data(Msg):
        tag = 42

    plain = Frame(src=0, dst=1, size_bytes=10, kind="pvm", payload=(8, 0, 1, Data()))
    assert inj.messages._eligible(plain)


def test_fault_log_is_bounded():
    from repro.faults.injectors import FaultEvent, FaultLog

    log = FaultLog(max_events=2)
    for i in range(5):
        log.add(FaultEvent(time=float(i), kind="drop", src=0, dst=1,
                           frame_kind="data", frame_id=i))
    assert len(log) == 2
    assert log.dropped_records == 3
    assert log.digest_fields()[-1] == 3  # the overflow count is digested


def test_observer_sees_every_fault():
    """The trace bus records every logged fault as ``fault.<kind>``."""
    from repro.obs.bus import TraceBus

    plan = plan_of(drop=0.2, duplicate=0.2, delay=0.2, reorder=0.2)
    kernel = Kernel(seed=5)
    kernel.obs = TraceBus(clock=lambda: kernel.now)
    net = EthernetNetwork(kernel)
    for i in range(2):
        net.attach(i, lambda f: None)
    inj = install_faults(kernel, net, [], plan)

    def send(k):
        net.adapters[0].send(Frame(src=0, dst=1, size_bytes=100))
        if k + 1 < 60:
            kernel.schedule(0.3e-3, send, k + 1)

    kernel.schedule(0.0, send, 0)
    kernel.run()
    events = [e.kind[6:] for e in kernel.obs.events if e.kind.startswith("fault.")]
    assert len(events) == len(inj.log)
    assert {"drop", "duplicate", "delay", "reorder"} <= set(events)


# ---------------------------------------------------------------------------
# Node fault model
# ---------------------------------------------------------------------------

def test_pause_window_stalls_overlapping_work():
    model = NodeFaultModel((NodeFault(node=0, kind="pause", start=1.0, duration=1.0),))
    assert model.perturb(0.0, 0.5) == 0.5          # finishes before the window
    assert model.perturb(2.5, 1.0) == 1.0          # starts after the window
    assert model.perturb(0.5, 1.0) == pytest.approx(2.0)   # 0.5 work, 1.0 stall, 0.5 work
    assert model.perturb(1.2, 0.3) == pytest.approx(1.1)   # starts mid-pause
    assert model.stall_time > 0


def test_slowdown_stretches_overlap_by_factor():
    model = NodeFaultModel(
        (NodeFault(node=0, kind="slowdown", start=1.0, duration=1.0, factor=3.0),)
    )
    assert model.perturb(1.0, 0.5) == pytest.approx(1.5)   # fully inside: 3x
    assert model.perturb(0.0, 0.5) == 0.5                  # fully outside
    # half in, half out: 0.5 normal + 0.5 stretched to 1.5
    assert model.perturb(0.5, 1.0) == pytest.approx(2.0)


def test_cascading_pause_windows_accumulate():
    model = NodeFaultModel(
        (
            NodeFault(node=0, kind="pause", start=1.0, duration=1.0),
            NodeFault(node=0, kind="pause", start=2.5, duration=0.5),
        )
    )
    # 0.1 work by t=1, paused to 2, 0.6 more crosses 2.5, paused to 3 -> 3.1
    assert model.perturb(0.9, 0.7) == pytest.approx(2.2)


def test_crash_flushes_queued_egress_frames():
    # saturate the shared medium so node 0's adapter has queued frames at
    # the crash instant, then verify they are counted lost, not delivered
    kernel = Kernel(seed=1)
    net = EthernetNetwork(kernel)
    delivered = []
    net.attach(0, lambda f: None)
    net.attach(1, lambda f: delivered.append(f.frame_id))
    plan = FaultPlan(
        seed=0,
        node_faults=(NodeFault(node=0, kind="crash", start=0.5e-3, duration=1e-3),),
    )
    nodes = [StubNode(0), StubNode(1)]
    inj = install_faults(kernel, net, nodes, plan)

    def burst():
        for _ in range(20):
            net.adapters[0].send(Frame(src=0, dst=1, size_bytes=1400))

    kernel.schedule(0.0, burst)
    kernel.run()
    assert inj.stats.crash_frames_lost > 0
    assert len(delivered) == 20 - inj.stats.crash_frames_lost
    assert nodes[0].fault_model is not None  # pause semantics also installed


def test_machine_config_wires_faults_end_to_end():
    from repro.cluster import Machine, MachineConfig

    plan = FaultPlan.parse("drop=0.1,seed=2")
    m = Machine(MachineConfig(n_nodes=2, seed=0, faults=plan))
    assert m.faults is not None
    assert getattr(m.network, "fault_injector", None) is m.faults.messages
    healthy = Machine(MachineConfig(n_nodes=2, seed=0))
    assert healthy.faults is None
    noop = Machine(MachineConfig(n_nodes=2, seed=0, faults=FaultPlan.none()))
    assert noop.faults is None
