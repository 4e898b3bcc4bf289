"""High-performance switch model (the SP2's other interconnect).

The paper reports all results on the Ethernet, but §4.1 notes the SP2 also
had its high-speed switch and predicts similar benefits for applications
with higher communication demands.  We model the switch so that prediction
can be tested (see the ablation benchmarks).

Model: full-duplex point-to-point links into a non-blocking crossbar.
Each node has an *egress* link server and an *ingress* link server, both
serialising at ``link_bandwidth_bps``; a fixed ``switch_latency`` separates
them.  Distinct node pairs therefore transfer concurrently — the defining
contrast with the shared Ethernet.  Broadcast is replicated per
destination on the sender's egress link (the SP2 switch had no hardware
multicast).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.network.base import Adapter, Network, check_link_config
from repro.network.frame import Frame
from repro.sim.kernel import Kernel


@dataclass(frozen=True)
class SwitchConfig:
    """Parameters of the switch model (defaults: SP2-class TB2 switch)."""

    link_bandwidth_bps: float = 320e6  # 40 MB/s per link
    switch_latency: float = 5e-7  # hardware crossbar latency
    #: per-frame fixed overhead (packetisation headers)
    overhead_bytes: int = 16
    max_payload: int = 65536

    def __post_init__(self) -> None:
        check_link_config(self, ("switch_latency",))

    def tx_time(self, payload_bytes: int) -> float:
        """Wire time for one frame of ``payload_bytes`` at the link rate."""
        if payload_bytes > self.max_payload:
            raise ValueError(
                f"payload {payload_bytes} exceeds switch MTU {self.max_payload}"
            )
        return (self.overhead_bytes + payload_bytes) * 8.0 / self.link_bandwidth_bps


class SwitchNetwork(Network):
    """Non-blocking crossbar with per-node full-duplex links."""

    def __init__(
        self,
        kernel: Kernel,
        config: SwitchConfig | None = None,
        name: str = "switch",
    ) -> None:
        super().__init__(kernel, name)
        self.config = config or SwitchConfig()
        self._egress_busy_until: dict[int, float] = {}
        self._ingress_busy_until: dict[int, float] = {}

    def attach(self, node_id, deliver):  # type: ignore[override]
        """Attach a node and initialise its per-port busy clocks."""
        adapter = super().attach(node_id, deliver)
        self._egress_busy_until[node_id] = 0.0
        self._ingress_busy_until[node_id] = 0.0
        return adapter

    def _enqueue(self, adapter: Adapter, frame: Frame) -> None:
        frame.enqueue_time = self.kernel.now
        destinations = self._destinations(frame)
        if len(destinations) > 1:
            self.stats.broadcasts += 1
        tx = self.config.tx_time(frame.size_bytes)
        now = self.kernel.now
        first_leg = True
        for dst in destinations:
            # Egress serialisation (replicated copies go out back-to-back).
            start = max(now, self._egress_busy_until[frame.src])
            egress_done = start + tx
            self._egress_busy_until[frame.src] = egress_done
            if first_leg:
                frame.tx_start_time = start
                self.stats.queueing_delay.add(frame.queueing_delay)
                first_leg = False
            # Crossbar + ingress serialisation at the destination.
            arrive = egress_done + self.config.switch_latency
            in_start = max(arrive, self._ingress_busy_until[dst])
            in_done = in_start + tx
            self._ingress_busy_until[dst] = in_done
            self.stats.frames_sent += 1
            self.stats.bytes_sent += frame.size_bytes
            self.stats.wire_bytes_sent += self.config.overhead_bytes + frame.size_bytes
            self.stats.busy_time += tx
            self.kernel.schedule_at(in_done, self._deliver, frame, dst)
