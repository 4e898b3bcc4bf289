"""Switched fabrics: tree topology arithmetic, busy clocks, multicast."""

import pytest

from repro.network import BROADCAST, Frame
from repro.network.switched import FABRICS, SwitchedConfig, SwitchedNetwork
from repro.sim import Kernel
from tests.network.oracles import min_frame_latency


def make_net(n_nodes=8, fabric="hierarchical", radix=4, seed=0, **kw):
    kernel = Kernel(seed=seed)
    net = SwitchedNetwork(kernel, SwitchedConfig(fabric=fabric, radix=radix, **kw))
    inboxes = {i: [] for i in range(n_nodes)}
    for i in range(n_nodes):
        net.attach(i, inboxes[i].append)
    return kernel, net, inboxes


class TestConfig:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError, match="fabric"):
            SwitchedConfig(fabric="torus")
        with pytest.raises(ValueError, match="radix"):
            SwitchedConfig(radix=1)
        with pytest.raises(ValueError, match="bandwidth"):
            SwitchedConfig(link_bandwidth_bps=0)

    @pytest.mark.parametrize("field, value", [
        ("link_bandwidth_bps", -1.0),
        ("link_bandwidth_bps", float("nan")),
        ("link_latency", -1),
        ("link_latency", float("inf")),
        ("switch_latency", -1),
        ("switch_latency", float("nan")),
        ("overhead_bytes", -1),
        ("max_payload", 0),
    ])
    def test_config_refuses_a_field_no_run_survives(self, field, value):
        """Left to the run, a negative or non-finite latency dies mid-run
        with an event before now or a NaN event time, and
        ``max_payload=0`` with a ZeroDivisionError in PVM fragmentation."""
        with pytest.raises(ValueError, match=field):
            SwitchedConfig(**{field: value})

    def test_mtu_enforced_in_config_and_network(self):
        with pytest.raises(ValueError, match="MTU"):
            SwitchedConfig().tx_time(100000)
        kernel, net, _ = make_net()
        with pytest.raises(ValueError, match="MTU"):
            net.adapters[0].send(Frame(src=0, dst=1, size_bytes=100000))

    def test_hierarchical_trunks_stay_at_host_rate(self):
        cfg = SwitchedConfig(fabric="hierarchical", radix=4)
        assert cfg.trunk_bandwidth(0) == cfg.link_bandwidth_bps
        assert cfg.trunk_bandwidth(3) == cfg.link_bandwidth_bps

    def test_fat_tree_trunks_carry_their_subtree(self):
        cfg = SwitchedConfig(fabric="fat-tree", radix=4)
        # a level-l trunk serves radix**(l+1) hosts at full rate
        assert cfg.trunk_bandwidth(0) == 4 * cfg.link_bandwidth_bps
        assert cfg.trunk_bandwidth(2) == 64 * cfg.link_bandwidth_bps

    @pytest.mark.parametrize("fabric", FABRICS)
    def test_min_latency_independent_of_fabric_and_size(self, fabric):
        cfg = SwitchedConfig(fabric=fabric, radix=4)
        # the closest pair shares an edge switch in every fabric kind
        base = 2 * (cfg.tx_time(0) + cfg.link_latency) + cfg.switch_latency
        assert cfg.min_latency() == pytest.approx(base)
        assert cfg.min_latency(n_nodes=4096) == pytest.approx(base)


class TestUnicast:
    def test_same_edge_latency_matches_analytic(self):
        kernel, net, inboxes = make_net()
        f = Frame(src=0, dst=1, size_bytes=1000)
        net.adapters[0].send(f)
        kernel.run()
        assert inboxes[1] == [f]
        assert f.deliver_time == pytest.approx(min_frame_latency(net, 0, 1, 1000))

    def test_cross_tree_path_is_longer(self):
        kernel, net, _ = make_net(n_nodes=8, radix=4)
        # 0 and 1 share an edge switch; 0 and 4 cross the root
        assert len(net.path_hops(0, 4)) > len(net.path_hops(0, 1)) == 2
        assert min_frame_latency(net, 0, 4, 100) > min_frame_latency(net, 0, 1, 100)

    def test_single_fabric_every_path_is_two_hops(self):
        _, net, _ = make_net(n_nodes=9, fabric="single")
        assert all(
            len(net.path_hops(s, d)) == 2
            for s in range(9) for d in range(9) if s != d
        )

    def test_path_endpoints_are_host_links(self):
        _, net, _ = make_net(n_nodes=32, radix=4)
        hops = net.path_hops(3, 29)
        assert hops[0][0] == ("h", 3, "u")
        assert hops[-1][0] == ("h", 29, "d")
        assert len(net.path_hops(29, 3)) == len(hops)

    def test_disjoint_pairs_transfer_concurrently(self):
        kernel, net, _ = make_net()
        f1 = Frame(src=0, dst=1, size_bytes=1000)
        f2 = Frame(src=2, dst=3, size_bytes=1000)
        net.adapters[0].send(f1)
        net.adapters[2].send(f2)
        kernel.run()
        one = min_frame_latency(net, 0, 1, 1000)
        assert f1.deliver_time == pytest.approx(one)
        assert f2.deliver_time == pytest.approx(one)

    def test_shared_source_link_serialises(self):
        kernel, net, _ = make_net()
        cfg = net.config
        f1 = Frame(src=0, dst=1, size_bytes=1000)
        f2 = Frame(src=0, dst=2, size_bytes=1000)
        net.adapters[0].send(f1)
        net.adapters[0].send(f2)
        kernel.run()
        assert f2.deliver_time >= f1.deliver_time + cfg.tx_time(1000) * 0.99

    def test_fat_tree_beats_oversubscribed_tree_under_cross_traffic(self):
        """Many flows crossing the root: the hierarchical trunk is the
        bottleneck; the fat-tree's fattened trunk absorbs them."""
        def worst_delivery(fabric):
            kernel, net, _ = make_net(n_nodes=8, fabric=fabric, radix=4)
            frames = [Frame(src=s, dst=s + 4, size_bytes=1500) for s in range(4)]
            for f in frames:
                net.adapters[f.src].send(f)
            kernel.run()
            return max(f.deliver_time for f in frames)

        assert worst_delivery("fat-tree") < worst_delivery("hierarchical")

    def test_pending_frames_returns_to_zero(self):
        kernel, net, inboxes = make_net()
        f = Frame(src=0, dst=5, size_bytes=64)
        net.adapters[0].send(f)
        assert len(kernel.queue) == 1  # the frame's delivery, in flight
        kernel.run()
        assert len(kernel.queue) == 0
        assert inboxes[5] == [f]


class TestMulticast:
    @pytest.mark.parametrize("fabric", FABRICS)
    def test_broadcast_reaches_everyone_else_exactly_once(self, fabric):
        kernel, net, inboxes = make_net(n_nodes=13, fabric=fabric, radix=4)
        f = Frame(src=5, dst=BROADCAST, size_bytes=200)
        net.adapters[5].send(f)
        kernel.run()
        assert inboxes[5] == []
        assert all(inboxes[i] == [f] for i in range(13) if i != 5)

    def test_each_link_carries_the_frame_once(self):
        """Tree replication: the sender's host link is serialised once,
        so the last receiver is NOT n-2 sender transmissions behind the
        first — the per-destination cost of the crossbar model."""
        kernel, net, _ = make_net(n_nodes=16, radix=4)
        cfg = net.config
        f = Frame(src=0, dst=BROADCAST, size_bytes=1500)
        net.adapters[0].send(f)
        kernel.run()
        # up-link busy exactly one transmission, not 15
        assert net._busy[("h", 0, "u")] == pytest.approx(cfg.tx_time(1500))

    def test_broadcast_accounts_one_frame_per_delivery(self):
        kernel, net, _ = make_net(n_nodes=6, fabric="single")
        net.adapters[0].send(Frame(src=0, dst=BROADCAST, size_bytes=100))
        kernel.run()
        assert net.stats.frames_sent == 5
        assert net.stats.broadcasts == 1

    def test_partial_edge_switches_are_skipped(self):
        """Node count not a multiple of radix: empty subtrees terminate
        the flood without scheduling anything."""
        kernel, net, inboxes = make_net(n_nodes=10, radix=4)
        net.adapters[9].send(Frame(src=9, dst=BROADCAST, size_bytes=64))
        kernel.run()
        assert sum(len(v) for v in inboxes.values()) == 9


class TestMachineIntegration:
    def test_machine_builds_switched_network(self):
        from repro.cluster import Machine, MachineConfig

        m = Machine(MachineConfig(n_nodes=4, interconnect="switched"))
        assert isinstance(m.network, SwitchedNetwork)

    def test_hw_multicast_requires_switched_fabric(self):
        from repro.cluster import MachineConfig

        with pytest.raises(ValueError, match="hw_multicast"):
            MachineConfig(n_nodes=4, interconnect="ethernet", hw_multicast=True)

    def test_lookahead_is_the_fabric_min_latency(self):
        from repro.cluster import MachineConfig
        from repro.sim.parallel import lookahead_of

        mcfg = MachineConfig(n_nodes=4, interconnect="switched")
        assert lookahead_of(mcfg) == pytest.approx(mcfg.switched.min_latency())
        assert lookahead_of(mcfg) > 0
