"""Shared 10 Mbps Ethernet model (the paper's reported interconnect).

Model
-----
A single shared medium transmits one frame at a time.  Each adapter keeps a
FIFO egress queue.  Whenever the medium goes idle, an *arbitration* step
picks the next sender among adapters with queued frames:

* exactly one contender: it acquires the medium after the inter-frame gap;
* ``k > 1`` contenders: the acquisition is *contended* — the winner is
  chosen round-robin (fairness, as CSMA/CD achieves statistically) and a
  contention penalty is charged, drawn uniformly from ``[0, min(k,
  CONTENTION_CAP)]`` backoff slots.  The penalty grows with the number of
  contenders (collision-resolution rounds), while carrier sense and the
  capture effect keep saturated 10BASE Ethernet at ~70–80 % efficiency —
  which this linear model reproduces for MTU-sized frames.

This "contention-FIFO" abstraction deliberately does not simulate
individual collision fragments; what the paper's results depend on is (a)
serialization at 10 Mbps, (b) queueing delay that grows nonlinearly with
offered load, and (c) a penalty for simultaneous senders — all of which
the model captures (DESIGN.md §2).  Broadcast frames cost one transmission
and are delivered to every other adapter, as on a real shared bus.

Frame overhead matches real Ethernet: 8 B preamble + 14 B header + 4 B CRC
and a 46-byte minimum payload.

Frame path
----------
A frame costs four kernel events (arbitrate, start-tx, end-tx, one deliver
per destination).  Each is pushed onto the kernel's queue directly, at an
absolute time, rather than through ``Kernel.schedule`` — the delays are
non-negative module constants, so the per-call sign check and ``*args``
repacking buy nothing — and wire size and transmit time are computed once
per frame.  The medium is the paper's fixed testbed: no run varies it.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.network.base import Adapter, Network
from repro.network.frame import Frame
from repro.sim.kernel import Kernel
from repro.sim.process import Signal

#: 10BASE Ethernet
BANDWIDTH_BPS = 10e6
#: one-way propagation delay across the segment
PROP_DELAY = 25.6e-6
#: inter-frame gap (9.6 us at 10 Mbps)
IFG = 9.6e-6
#: 512-bit slot time at 10 Mbps
SLOT_TIME = 51.2e-6
#: preamble + MAC header + CRC, charged per frame
OVERHEAD_BYTES = 26
MIN_PAYLOAD = 46
#: MTU — the PVM layer fragments above this
MAX_PAYLOAD = 1500
#: cap on the contention penalty window, in backoff slots
CONTENTION_CAP = 8


def tx_time(payload_bytes: int) -> float:
    """Wire time for one frame carrying ``payload_bytes``."""
    if payload_bytes > MAX_PAYLOAD:
        raise ValueError(
            f"payload {payload_bytes} exceeds MTU {MAX_PAYLOAD}; "
            "fragment at the messaging layer"
        )
    wire = OVERHEAD_BYTES + max(payload_bytes, MIN_PAYLOAD)
    return wire * 8.0 / BANDWIDTH_BPS


class EthernetNetwork(Network):
    """Deterministic shared-Ethernet simulation (see module docstring)."""

    def __init__(self, kernel: Kernel) -> None:
        super().__init__(kernel, "eth")
        self._rng = kernel.rng.get("eth.backoff")
        self._transmitting = False
        self._arbitration_pending = False
        self._last_winner = -1
        #: node ids with a non-empty egress queue, maintained incrementally
        #: so arbitration costs O(contenders), not O(attached adapters)
        self._backlog: set[int] = set()

    def attach(self, node_id: int, deliver: Callable[[Frame], None]) -> Adapter:
        """Attach a node with its own FIFO egress queue and drain signal."""
        adapter = super().attach(node_id, deliver)
        adapter.queue = deque()
        adapter.drain_signal = Signal(f"adapter{node_id}.drain")
        return adapter

    # ------------------------------------------------------------------
    def _enqueue(self, adapter: Adapter, frame: Frame) -> None:
        if frame.size_bytes > MAX_PAYLOAD:
            raise ValueError(
                f"frame payload {frame.size_bytes} B exceeds Ethernet MTU "
                f"{MAX_PAYLOAD} B — fragment at the PVM layer"
            )
        frame.enqueue_time = self.kernel.now
        adapter.queue.append(frame)
        self._backlog.add(adapter.node_id)
        self._schedule_arbitration()

    def _schedule_arbitration(self) -> None:
        if self._transmitting or self._arbitration_pending:
            return
        self._arbitration_pending = True
        kernel = self.kernel
        kernel.queue.push_immediate(kernel.now, self._arbitrate)

    def _arbitrate(self) -> None:
        self._arbitration_pending = False
        if self._transmitting:
            return
        contenders = self._backlog
        if not contenders:
            return
        delay = IFG
        if len(contenders) > 1:
            self.stats.contended_acquisitions += 1
            window = min(len(contenders), CONTENTION_CAP)
            # window * random() is bit-identical to uniform(0.0, window)
            # (numpy computes low + (high - low) * random()) on the same
            # stream, without the argument broadcasting
            delay += SLOT_TIME * (window * self._rng.random())
        winner = self._pick_round_robin(contenders)
        self._last_winner = winner
        self._transmitting = True
        kernel = self.kernel
        kernel.queue.push(kernel.now + delay, self._start_tx, (winner,))

    def _pick_round_robin(self, contenders: "set[int]") -> int:
        """Smallest contender strictly after the last winner, wrapping.

        Scans only the backlogged nodes (usually one or two), matching the
        order the previous ``sorted()``-based scan over every attached
        adapter produced — bit-identical winners at O(contenders) cost.
        """
        last = self._last_winner
        after = [nid for nid in contenders if nid > last]
        return min(after) if after else min(contenders)

    def _start_tx(self, winner: int) -> None:
        adapter = self.adapters[winner]
        if not adapter.queue:  # defensive: queue drained is impossible by design
            self._backlog.discard(winner)
            self._transmitting = False
            self._schedule_arbitration()
            return
        frame = adapter.queue.popleft()
        if not adapter.queue:
            self._backlog.discard(winner)
        adapter.drain_signal.fire()
        kernel = self.kernel
        now = kernel.now
        frame.tx_start_time = now
        stats = self.stats
        stats.queueing_delay.add(now - frame.enqueue_time)
        size = frame.size_bytes
        # the MTU was checked at enqueue, so this is tx_time(size)
        wire = OVERHEAD_BYTES + max(size, MIN_PAYLOAD)
        tx = wire * 8.0 / BANDWIDTH_BPS
        stats.frames_sent += 1
        stats.bytes_sent += size
        stats.wire_bytes_sent += wire
        stats.busy_time += tx
        kernel.queue.push(now + tx, self._end_tx, (frame,))

    def flush_queue(self, node_id: int) -> int:
        """Discard queued egress frames, keeping the backlog set in sync."""
        adapter = self.adapters.get(node_id)
        if adapter is None:
            return 0
        lost = len(adapter.queue)
        adapter.queue.clear()
        self._backlog.discard(node_id)
        return lost

    def _end_tx(self, frame: Frame) -> None:
        self._transmitting = False
        destinations = self._destinations(frame)
        if len(destinations) > 1:
            self.stats.broadcasts += 1
        push = self.kernel.queue.push
        at = self.kernel.now + PROP_DELAY
        for dst in destinations:
            push(at, self._deliver, (frame, dst))
        self._schedule_arbitration()
