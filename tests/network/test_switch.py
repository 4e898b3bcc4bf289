"""Switch model: parallel links, per-link serialization, broadcast replication."""

import pytest

from repro.network import BROADCAST, Frame, SwitchConfig, SwitchNetwork
from repro.sim import Kernel


def make_net(n_nodes=4, seed=0, config=None):
    kernel = Kernel(seed=seed)
    net = SwitchNetwork(kernel, config=config)
    inboxes = {i: [] for i in range(n_nodes)}
    for i in range(n_nodes):
        net.attach(i, inboxes[i].append)
    return kernel, net, inboxes


@pytest.mark.parametrize("field, value", [
    ("link_bandwidth_bps", 0),
    ("link_bandwidth_bps", -1.0),
    ("link_bandwidth_bps", float("nan")),
    ("switch_latency", -1),
    ("switch_latency", float("nan")),
    ("switch_latency", float("inf")),
    ("overhead_bytes", -1),
    ("max_payload", 0),
])
def test_config_refuses_a_field_no_run_survives(field, value):
    """Left to the run, each of these surfaces mid-run as a
    ZeroDivisionError inside a process or an event scheduled before now."""
    with pytest.raises(ValueError, match=field):
        SwitchConfig(**{field: value})


def test_point_to_point_latency():
    kernel, net, inboxes = make_net()
    cfg = net.config
    f = Frame(src=0, dst=1, size_bytes=4096)
    net.adapters[0].send(f)
    kernel.run()
    assert inboxes[1] == [f]
    expected = 2 * cfg.tx_time(4096) + cfg.switch_latency
    assert f.deliver_time == pytest.approx(expected)


def test_disjoint_pairs_transfer_concurrently():
    """0->1 and 2->3 share no links; both must finish in one transfer time."""
    kernel, net, _ = make_net()
    cfg = net.config
    f1 = Frame(src=0, dst=1, size_bytes=4096)
    f2 = Frame(src=2, dst=3, size_bytes=4096)
    net.adapters[0].send(f1)
    net.adapters[2].send(f2)
    kernel.run()
    one_transfer = 2 * cfg.tx_time(4096) + cfg.switch_latency
    assert f1.deliver_time == pytest.approx(one_transfer)
    assert f2.deliver_time == pytest.approx(one_transfer)


def test_same_egress_serializes():
    kernel, net, _ = make_net()
    cfg = net.config
    f1 = Frame(src=0, dst=1, size_bytes=4096)
    f2 = Frame(src=0, dst=2, size_bytes=4096)
    net.adapters[0].send(f1)
    net.adapters[0].send(f2)
    kernel.run()
    assert f2.deliver_time >= f1.deliver_time + cfg.tx_time(4096) * 0.99


def test_same_ingress_serializes():
    kernel, net, _ = make_net()
    cfg = net.config
    f1 = Frame(src=0, dst=2, size_bytes=4096)
    f2 = Frame(src=1, dst=2, size_bytes=4096)
    net.adapters[0].send(f1)
    net.adapters[1].send(f2)
    kernel.run()
    ends = sorted([f1.deliver_time, f2.deliver_time])
    assert ends[1] >= ends[0] + cfg.tx_time(4096) * 0.99


def test_broadcast_replicates_per_destination():
    kernel, net, inboxes = make_net(n_nodes=4)
    f = Frame(src=0, dst=BROADCAST, size_bytes=100)
    net.adapters[0].send(f)
    kernel.run()
    assert all(inboxes[i] == [f] for i in (1, 2, 3))
    assert net.stats.frames_sent == 3  # one copy per destination


def test_switch_is_much_faster_than_ethernet():
    from repro.network import EthernetConfig

    eth = EthernetConfig()
    sw = SwitchConfig()
    assert sw.tx_time(1000) < eth.tx_time(1000) / 10


def test_switch_mtu_enforced():
    with pytest.raises(ValueError):
        SwitchConfig().tx_time(100000)
