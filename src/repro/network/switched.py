"""Switched fabrics: store-and-forward trees with per-link bandwidth.

The paper stops at 8 SP2 nodes on a shared 10 Mbps Ethernet; scaling the
island workloads to thousands of demes (ROADMAP item 2) needs an
interconnect whose aggregate bandwidth grows with the node count.  This
module models that family:

``single``
    every node hangs off one store-and-forward switch (a leaf of the
    other two fabrics; with zero link latency it is the SP2's
    non-blocking crossbar, :data:`SP2_SWITCH`);
``hierarchical``
    a radix-ary tree of switches — edge switches serve ``radix`` nodes
    each, aggregation switches serve ``radix`` edge switches, up to a
    single root.  Every link runs at ``link_bandwidth_bps``, so trunks
    are oversubscribed ``radix``:1 per level — the classic cheap
    datacenter tree;
``fat-tree``
    the same topology with Leiserson-style *fattened* trunks: the link
    from a level-``l`` switch to its parent carries ``radix**(l+1)``
    times the host bandwidth, preserving full bisection.  (We model the
    fat links directly rather than as a Clos of parallel thin links —
    the delivered behaviour is the same without per-path routing state.)

Model
-----
Store-and-forward: a frame is fully serialised onto each link of its
path in turn.  Every link direction keeps a *busy-until* clock; hop
``k``'s transmission starts at ``max(arrival_k, busy_until[link_k])``,
advances the clock by the frame's wire time at that link's bandwidth,
and the frame reaches the next switch one ``link_latency`` (plus a
``switch_latency`` forwarding decision) later.  All of it is pure
arithmetic on the busy clocks — no arbitration randomness, exactly one
kernel event per delivery, O(path length) work per frame with the path
length fixed by the fabric depth (not the node count): the O(1)-per-
message hot path the 64 → 4096 deme sweep requires (``fabric.*`` keys
in the bench trajectory).

Broadcast frames are replicated *in the tree*, not at the sender: the
frame climbs to the root once, then each switch forwards one copy down
every child link.  Each link carries the frame exactly once, so an
all-to-all migrant broadcast costs O(links) instead of O(destinations)
serialised on the sender's egress.  The SP2 switch had no hardware
multicast, so runs on :data:`SP2_SWITCH` keep ``hw_multicast`` off and
PVM sends one unicast per destination.

Determinism: no RNG anywhere; children are flooded in index order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.inputs import at_least, check_fields, nonnegative, one_of, positive
from repro.network.base import Adapter, Network
from repro.network.frame import BROADCAST, Frame
from repro.sim.kernel import Kernel

FABRICS = ("single", "hierarchical", "fat-tree")


@dataclass(frozen=True)
class SwitchedConfig:
    """Parameters of a switched fabric (defaults: 1 Gbps edge links)."""

    fabric: str = one_of(FABRICS, default="hierarchical")
    #: hosts per edge switch and child switches per aggregation switch
    radix: int = at_least(2, default=16)
    link_bandwidth_bps: float = positive(default=1e9)
    #: one-way propagation per link
    link_latency: float = nonnegative(default=2e-6)
    #: store-and-forward decision time charged per switch traversed
    switch_latency: float = nonnegative(default=1e-6)
    #: per-frame packetisation overhead on every link
    overhead_bytes: int = at_least(0, default=18)
    max_payload: int = at_least(1, default=1500)

    def __post_init__(self) -> None:
        check_fields(self)

    def trunk_bandwidth(self, level: int) -> float:
        """Bandwidth of a trunk from a level-``level`` switch to its parent.

        ``hierarchical`` keeps every link at the host rate (oversubscribed
        trunks); ``fat-tree`` fattens the trunk to carry its whole subtree
        (``radix**(level+1)`` hosts) at full rate.
        """
        if self.fabric == "fat-tree":
            return self.link_bandwidth_bps * float(self.radix ** (level + 1))
        return self.link_bandwidth_bps

    def tx_time(self, payload_bytes: int, bandwidth_bps: float | None = None) -> float:
        """Wire time of one frame at ``bandwidth_bps`` (default: host rate)."""
        if payload_bytes > self.max_payload:
            raise ValueError(
                f"payload {payload_bytes} exceeds fabric MTU {self.max_payload}"
            )
        bw = self.link_bandwidth_bps if bandwidth_bps is None else bandwidth_bps
        return (self.overhead_bytes + payload_bytes) * 8.0 / bw

    def min_latency(self, n_nodes: int = 2) -> float:
        """Minimum cross-node frame latency on an idle fabric.

        The closest pair of distinct nodes shares an edge switch (radix
        >= 2), so the minimum path is host-up, one switch, host-down —
        independent of fabric kind and node count.  This is the
        conservative-PDES lookahead :func:`repro.sim.parallel.plan.
        lookahead_of` feeds the bounded-lag kernel: unlike the shared
        Ethernet (whose arbitration gives zero frame-level lookahead
        past the minimum frame), it is a *real* per-link latency floor.
        """
        tx = self.tx_time(0)
        return 2.0 * (tx + self.link_latency) + self.switch_latency


#: the SP2's high-performance switch (ablation A4): a non-blocking crossbar
#: with full-duplex 40 MB/s (TB2-class) links and 0.5 us through the switch
SP2_SWITCH = SwitchedConfig(
    fabric="single", link_bandwidth_bps=320e6, link_latency=0.0, switch_latency=5e-7,
    overhead_bytes=16, max_payload=65536,
)


class SwitchedNetwork(Network):
    """Store-and-forward switch tree (see module docstring)."""

    def __init__(
        self,
        kernel: Kernel,
        config: SwitchedConfig | None = None,
        name: str = "fabric",
    ) -> None:
        super().__init__(kernel, name)
        self.config = config or SwitchedConfig()
        #: busy-until clock per directed link, keyed by
        #: ("h", node, dir) for host links and ("t", level, index, dir)
        #: for trunk links (dir is "u"/"d"); absent = idle since t=0
        self._busy: dict[tuple, float] = {}

    # -- topology arithmetic -------------------------------------------
    def _edge_of(self, node_id: int) -> int:
        if self.config.fabric == "single":
            return 0
        return node_id // self.config.radix

    def _n_edges(self) -> int:
        if self.config.fabric == "single" or not self.adapters:
            return 1
        return max(self.adapters) // self.config.radix + 1

    def _levels(self) -> int:
        """Trunk levels above the edge switches (0 = edge switches only)."""
        n_edges = self._n_edges()
        levels = 0
        span = 1
        while span < n_edges:
            span *= self.config.radix
            levels += 1
        return levels

    def path_hops(self, src: int, dst: int) -> list[tuple[tuple, float]]:
        """The (link_key, bandwidth) sequence a unicast frame traverses."""
        cfg = self.config
        hops: list[tuple[tuple, float]] = [(("h", src, "u"), cfg.link_bandwidth_bps)]
        up, down = self._edge_of(src), self._edge_of(dst)
        climb: list[tuple[tuple, float]] = []
        descend: list[tuple[tuple, float]] = []
        level = 0
        while up != down:
            climb.append((("t", level, up, "u"), cfg.trunk_bandwidth(level)))
            descend.append((("t", level, down, "d"), cfg.trunk_bandwidth(level)))
            up //= cfg.radix
            down //= cfg.radix
            level += 1
        hops += climb + list(reversed(descend))
        hops.append((("h", dst, "d"), cfg.link_bandwidth_bps))
        return hops

    def _obs_fields(self, frame: Frame, dst: int) -> dict:
        """Annotate traced deliveries with fabric name, hop count and
        broadcast membership (only computed when a bus is attached;
        ``path_hops`` is O(fabric depth), same as the delivery itself)."""
        return {
            "fabric": self.config.fabric,
            "hops": len(self.path_hops(frame.src, dst)),
            "bcast": frame.dst == BROADCAST,
        }

    # -- scheduling -----------------------------------------------------
    def _hop(
        self, key: tuple, bw: float, arrival: float, bits: float
    ) -> tuple[float, float]:
        """Serialise ``bits`` wire bits onto ``key``; returns (start, end)."""
        start = max(arrival, self._busy.get(key, 0.0))
        done = start + bits / bw
        self._busy[key] = done
        return start, done

    def _enqueue(self, adapter: Adapter, frame: Frame) -> None:
        cfg = self.config
        if frame.size_bytes > cfg.max_payload:
            raise ValueError(
                f"frame payload {frame.size_bytes} B exceeds fabric MTU "
                f"{cfg.max_payload} B — fragment at the PVM layer"
            )
        frame.enqueue_time = self.kernel.now
        bits = (cfg.overhead_bytes + frame.size_bytes) * 8.0  # as tx_time counts
        destinations = self._destinations(frame)
        if len(destinations) > 1:
            self.stats.broadcasts += 1
            self._multicast(frame, bits)
            return
        dst = destinations[0]
        t = self.kernel.now
        first = True
        for key, bw in self.path_hops(frame.src, dst):
            start, done = self._hop(key, bw, t, bits)
            if first:
                frame.tx_start_time = start
                self.stats.queueing_delay.add(frame.queueing_delay)
                first = False
            t = done + cfg.link_latency + cfg.switch_latency
        t -= cfg.switch_latency  # the last hop ends at a host, not a switch
        self._account(frame.size_bytes, bits)
        self.kernel.schedule_at(t, self._deliver, frame, dst)

    def _multicast(self, frame: Frame, bits: float) -> None:
        """Tree replication: once up to the root, then down every branch."""
        cfg = self.config
        start, t = self._hop(
            ("h", frame.src, "u"), cfg.link_bandwidth_bps, self.kernel.now, bits
        )
        frame.tx_start_time = start
        self.stats.queueing_delay.add(frame.queueing_delay)
        t += cfg.link_latency + cfg.switch_latency
        idx = self._edge_of(frame.src)
        for level in range(self._levels()):
            _, t = self._hop(("t", level, idx, "u"), cfg.trunk_bandwidth(level), t, bits)
            t += cfg.link_latency + cfg.switch_latency
            idx //= cfg.radix
        self._flood_down(self._levels(), idx, t, frame, bits)

    def _flood_down(self, level: int, idx: int, t: float, frame: Frame, bits: float) -> None:
        cfg = self.config
        if level == 0:
            # edge switch: one copy per attached host on this switch
            if cfg.fabric == "single":
                hosts = sorted(self.adapters)
            else:
                lo = idx * cfg.radix
                hosts = [
                    n for n in range(lo, lo + cfg.radix) if n in self.adapters
                ]
            for node in hosts:
                if node == frame.src:
                    continue
                _, done = self._hop(("h", node, "d"), cfg.link_bandwidth_bps, t, bits)
                self._account(frame.size_bytes, bits)
                self.kernel.schedule_at(done + cfg.link_latency, self._deliver, frame, node)
            return
        child_span = cfg.radix ** (level - 1)  # edge switches per child subtree
        n_edges = self._n_edges()
        for child in range(idx * cfg.radix, (idx + 1) * cfg.radix):
            if child * child_span >= n_edges:
                break  # no edge switches (hence no hosts) in this subtree
            _, done = self._hop(
                ("t", level - 1, child, "d"), cfg.trunk_bandwidth(level - 1), t, bits
            )
            t_child = done + cfg.link_latency + cfg.switch_latency
            self._flood_down(level - 1, child, t_child, frame, bits)

    def _account(self, size: int, bits: float) -> None:
        self.stats.frames_sent += 1
        self.stats.bytes_sent += size
        self.stats.wire_bytes_sent += self.config.overhead_bytes + size
        self.stats.busy_time += bits / self.config.link_bandwidth_bps
