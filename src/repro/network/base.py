"""Common adapter/network plumbing shared by the link models.

A :class:`Network` owns the set of attached :class:`Adapter` objects.  The
layer above (PVM) obtains an adapter per node via :meth:`Network.attach`,
sends frames through it, and receives frames through the deliver callback
it registered.  Concrete networks implement only the scheduling logic
(:meth:`Network._enqueue`).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable

from repro.network.frame import BROADCAST, Frame
from repro.network.stats import LinkStats
from repro.sim.kernel import Kernel
from repro.sim.process import Signal


def check_link_config(cfg: Any, latencies: tuple[str, ...]) -> None:
    """Refuse a switch-link config no run could survive, naming the field.

    ``link_bandwidth_bps`` must be positive, every field in ``latencies``
    finite and non-negative, ``overhead_bytes`` non-negative and
    ``max_payload`` at least one byte.  Left unchecked, these surface
    mid-run as a division by zero, an event scheduled in the past or a
    NaN event time.
    """
    if not cfg.link_bandwidth_bps > 0:
        raise ValueError(f"link_bandwidth_bps must be > 0, got {cfg.link_bandwidth_bps!r}")
    for name in latencies:
        value = getattr(cfg, name)
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    if not cfg.overhead_bytes >= 0:
        raise ValueError(f"overhead_bytes must be >= 0, got {cfg.overhead_bytes!r}")
    if not cfg.max_payload >= 1:
        raise ValueError(f"max_payload must be >= 1, got {cfg.max_payload!r}")


class Adapter:
    """One node's attachment point to a network.

    ``drain_signal`` fires whenever a queued frame starts transmitting;
    senders implementing backpressure (PVM's blocking send on a full
    socket buffer) wait on it until :attr:`queue_len` falls below their
    window.
    """

    def __init__(
        self, network: "Network", node_id: int, deliver: Callable[[Frame], None]
    ) -> None:
        self.network = network
        self.node_id = node_id
        self.deliver = deliver
        self.queue: deque[Frame] = deque()
        self.drain_signal = Signal(f"adapter{node_id}.drain")
        self.frames_received = 0

    def send(self, frame: Frame) -> None:
        """Hand a frame to the link for (eventual) transmission."""
        if frame.src != self.node_id:
            raise ValueError(
                f"adapter {self.node_id} cannot send frame with src={frame.src}"
            )
        self.network._enqueue(self, frame)

    @property
    def queue_len(self) -> int:
        """Frames waiting in this adapter's egress queue."""
        return len(self.queue)

    def _receive(self, frame: Frame) -> None:
        self.frames_received += 1
        self.deliver(frame)


class Network:
    """Base class: adapter registry, delivery fan-out, statistics."""

    def __init__(self, kernel: Kernel, name: str = "net") -> None:
        self.kernel = kernel
        self.name = name
        self.adapters: dict[int, Adapter] = {}
        self.stats = LinkStats()
        #: observers called as fn(frame) on every delivery (warp meter etc.)
        self.delivery_observers: list[Callable[[Frame], None]] = []

    def attach(self, node_id: int, deliver: Callable[[Frame], None]) -> Adapter:
        """Attach a node; ``deliver`` is invoked for each arriving frame."""
        if node_id in self.adapters:
            raise ValueError(f"node {node_id} already attached to {self.name}")
        adapter = Adapter(self, node_id, deliver)
        self.adapters[node_id] = adapter
        return adapter

    def observe_deliveries(self, fn: Callable[[Frame], None]) -> None:
        """Register an observer called with every delivered frame."""
        self.delivery_observers.append(fn)

    # -- delivery ------------------------------------------------------
    def _deliver(self, frame: Frame, dst: int) -> None:
        now = frame.deliver_time = self.kernel.now
        self.stats.latency.add(now - frame.enqueue_time)
        for obs in self.delivery_observers:
            obs(frame)
        bus = self.kernel.obs
        if bus is not None:
            # enqueue time rides along so warp (arrival-gap / send-gap
            # per stream, §4.3) is recomputable from the trace alone
            fields = {
                "src": frame.src, "frame_kind": frame.kind,
                "size": frame.size_bytes, "enq": frame.enqueue_time,
            }
            if frame.trace_ref is not None:
                # content-addressed lineage ref (e.g. "migrants.0@7") set
                # by the sender; joins this delivery to its dsm.write
                fields["ref"] = frame.trace_ref
            extra = self._obs_fields(frame, dst)
            if extra:
                fields.update(extra)
            bus.emit_fields("net.deliver", dst, fields)
        self.adapters[dst]._receive(frame)

    def _obs_fields(self, frame: Frame, dst: int) -> dict:
        """Extra ``net.deliver`` trace fields for this link model.

        Only called when a bus is attached; concrete networks override
        to annotate deliveries (the switched fabric adds fabric name,
        hop count and broadcast membership).
        """
        return {}

    def _destinations(self, frame: Frame) -> list[int]:
        if frame.dst == BROADCAST:
            return [n for n in self.adapters if n != frame.src]
        if frame.dst not in self.adapters:
            raise KeyError(f"frame destination {frame.dst} not attached to {self.name}")
        return [frame.dst]

    def flush_queue(self, node_id: int) -> int:
        """Discard ``node_id``'s queued egress frames; returns the count.

        The only sanctioned way to empty an adapter queue from outside
        the link model (the crash injector uses it) — concrete networks
        that keep derived per-queue state override this to stay in sync.
        """
        adapter = self.adapters.get(node_id)
        if adapter is None:
            return 0
        lost = len(adapter.queue)
        adapter.queue.clear()
        return lost

    # -- to be provided by concrete models ------------------------------
    def _enqueue(self, adapter: Adapter, frame: Frame) -> None:
        raise NotImplementedError
