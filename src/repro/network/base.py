"""Common adapter/network plumbing shared by the link models.

A :class:`Network` owns the set of attached :class:`Adapter` objects.  The
layer above (PVM) obtains an adapter per node via :meth:`Network.attach`,
sends frames through it, and receives frames through the deliver callback
it registered.  Concrete networks implement only the scheduling logic
(:meth:`Network._enqueue`).
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.network.frame import BROADCAST, Frame
from repro.network.stats import LinkStats
from repro.obs.bus import shape
from repro.sim.kernel import Kernel
from repro.sim.process import Signal

#: the key tuples of a traced Ethernet delivery, without and with a ref
_DELIVER = shape("enq", "frame_kind", "size", "src")
_DELIVER_REF = shape("enq", "frame_kind", "ref", "size", "src")


class Adapter:
    """One node's attachment point to a network.

    Only a network that queues at the sender (the Ethernet) gives it an
    egress ``queue`` and a ``drain_signal``, which fires whenever a queued
    frame starts transmitting; senders implementing backpressure (PVM's
    blocking send on a full socket buffer) wait on it until
    :attr:`queue_len` falls below their window.
    """

    queue: deque[Frame] | tuple = ()
    drain_signal: Signal | None = None

    def __init__(
        self, network: "Network", node_id: int, deliver: Callable[[Frame], None]
    ) -> None:
        self.network = network
        self.node_id = node_id
        self.deliver = deliver

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


class Network:
    """Base class: adapter registry, delivery fan-out, statistics."""

    def __init__(self, kernel: Kernel, name: str) -> None:
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
            # per stream, §4.3) is recomputable from the trace alone;
            # ref is the content-addressed lineage id (e.g. "migrants.0@7")
            # the sender set, joining this delivery to its dsm.write
            ref = frame.trace_ref
            extra = self._obs_fields(frame, dst)
            if extra:
                if ref is not None:
                    extra["ref"] = ref
                bus.emit(
                    "net.deliver", dst, src=frame.src, frame_kind=frame.kind,
                    size=frame.size_bytes, enq=frame.enqueue_time, **extra,
                )
            elif ref is None:
                bus.append((bus.clock(), "net.deliver", dst, _DELIVER,
                            frame.enqueue_time, frame.kind, frame.size_bytes,
                            frame.src))
            else:
                bus.append((bus.clock(), "net.deliver", dst, _DELIVER_REF,
                            frame.enqueue_time, frame.kind, ref,
                            frame.size_bytes, frame.src))
        self.adapters[dst].deliver(frame)

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

        The crash injector empties queues only through this.  This network
        keeps none; one that does overrides it, keeping derived state in sync.
        """
        return 0

    # -- to be provided by concrete models ------------------------------
    def _enqueue(self, adapter: Adapter, frame: Frame) -> None:
        raise NotImplementedError
