"""Background-traffic generator ("network loader program", §4.3 / §5.2).

The paper generated 0.5, 1 and 2 Mbps of background load with a loader
program running on two extra SP2 nodes.  This module reproduces it: a
loader drives a Poisson stream of fixed-size frames from one attached node
to another, at a configurable offered load.  Poisson arrivals are the
standard model for uncoordinated background traffic and give the queueing
behaviour (bursts, contention spikes) that makes the loaded-network
results interesting.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.inputs import at_least, check_fields, positive
from repro.network.base import Network
from repro.network.frame import Frame
from repro.sim.kernel import Kernel


@dataclass(frozen=True)
class LoaderConfig:
    """Offered load and framing of the background traffic."""

    offered_load_bps: float = positive(default=1e6)
    frame_payload_bytes: int = at_least(1, default=1024)

    def __post_init__(self) -> None:
        check_fields(self)

    def mean_interarrival(self) -> float:
        """Mean gap between frame injections for the offered load."""
        return self.frame_payload_bytes * 8.0 / self.offered_load_bps


class NetworkLoader:
    """Injects Poisson background traffic between two attached nodes.

    The loader owns its two node attachments (they model the paper's two
    dedicated loader nodes) and simply discards everything delivered to
    them.
    """

    def __init__(
        self,
        kernel: Kernel,
        network: Network,
        config: LoaderConfig,
        src_node: int,
        dst_node: int,
        name: str = "loader",
    ) -> None:
        self.kernel = kernel
        self.network = network
        self.config = config
        self.src_node = src_node
        self.dst_node = dst_node
        self.name = name
        self.frames_injected = 0
        self.frames_delivered = 0
        self._rng = kernel.rng.get(f"{name}.arrivals")
        network.attach(src_node, self._sink)
        network.attach(dst_node, self._sink)
        self._running = False

    def _sink(self, frame: Frame) -> None:
        self.frames_delivered += 1

    def start(self, delay: float = 0.0) -> None:
        """Begin injecting after ``delay`` simulated seconds."""
        if self._running:
            raise RuntimeError(f"{self.name} already started")
        self._running = True
        self.kernel.schedule(delay + self._next_gap(), self._inject)

    def _next_gap(self) -> float:
        return float(self._rng.exponential(self.config.mean_interarrival()))

    def _inject(self) -> None:
        frame = Frame(
            src=self.src_node,
            dst=self.dst_node,
            size_bytes=self.config.frame_payload_bytes,
            kind="load",
        )
        self.network.adapters[self.src_node].send(frame)
        self.frames_injected += 1
        self.kernel.schedule(self._next_gap(), self._inject)
