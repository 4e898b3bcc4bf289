"""The virtual machine: tasks, fragmentation, mailboxes, barrier.

One :class:`Task` per node (PVM tid == node id here; the paper runs one
process per SP2 node).  ``send`` fragments messages above the link MTU and
the receiving side reassembles; messages between a given pair are
delivered in send order: the link models are FIFO per path, so fragments
— and therefore reassembled messages from one sender — complete in the
order they were submitted.

Software overheads
------------------
Real PVM spends substantial CPU per message (syscalls, memcpy, UDP
checksums) — on the paper's 77 MHz nodes roughly a millisecond per small
message.  Blocking calls here are generators that charge those costs as
simulated :class:`~repro.sim.process.Compute` time, so the
communication-to-computation ratio — the quantity the whole paper turns
on — is modelled at the right order of magnitude.  The constants live in
:class:`PvmOverheads` and are calibrated by :mod:`repro.cluster`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Any, Generator, Iterable

from repro.network.base import Network
from repro.network.frame import BROADCAST, Frame
from repro.pvm.message import ANY_SOURCE, ANY_TAG, Message
from repro.sim.kernel import Kernel
from repro.sim.process import Compute, Signal, WaitSignal

#: reserved tag space for layer-internal protocols
BARRIER_TAG = -1000
BARRIER_RELEASE_TAG = -1001


@dataclass(frozen=True)
class PvmOverheads:
    """Per-message software costs, charged as simulated CPU seconds.

    Defaults approximate PVM 3 over UDP on a 77 MHz POWER2 node: ~0.9 ms
    fixed send cost, ~0.6 ms fixed receive cost, plus per-byte memcpy/
    checksum costs equivalent to ~15 MB/s.
    """

    send_fixed: float = 0.9e-3
    send_per_byte: float = 65e-9
    #: extra fixed cost per additional mcast destination (buffer reused)
    mcast_per_dest: float = 0.25e-3
    recv_fixed: float = 0.6e-3
    recv_per_byte: float = 65e-9
    #: per-message protocol header bytes on the wire
    header_bytes: int = 32

    def __post_init__(self) -> None:
        # a negative cost would be dropped or refused mid-run, not charged
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{f.name} must be finite and >= 0, got {value!r}")

    def send_cost(self, nbytes: int) -> float:
        """Sender-side CPU cost of shipping ``n_bytes``."""
        return self.send_fixed + self.send_per_byte * nbytes

    def recv_cost(self, nbytes: int) -> float:
        """Receiver-side CPU cost of absorbing ``n_bytes``."""
        return self.recv_fixed + self.recv_per_byte * nbytes


class Task:
    """One PVM task: an endpoint with a tagged mailbox.

    All blocking operations (``recv``, ``barrier``) are generators to be
    driven with ``yield from`` inside a simulated process.  ``send`` is
    also a generator because it charges CPU overhead before the frames
    leave the adapter.
    """

    def __init__(self, vm: "VirtualMachine", tid: int, name: str) -> None:
        self.vm = vm
        self.tid = tid
        self.name = name
        self.mailbox: list[Message] = []
        self.mail_signal = Signal(f"{name}.mail")
        # reassembly of multi-fragment messages:
        # (src, msg_id) -> [received_count, total, msg]
        self._partial: dict[tuple[int, int], list] = {}
        self.messages_sent = 0
        self.messages_received = 0
        self.bytes_sent = 0
        #: send/mcast calls so far (the last one's ``Message.seq``)
        self.sends = 0

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(
        self,
        dst: int,
        tag: int,
        payload: Any,
        nbytes: int,
        trace_ref: str | None = None,
    ) -> Generator:
        """Send ``payload`` of ``nbytes`` to task ``dst`` under ``tag``.

        Returns after the send overhead has been charged; delivery is
        asynchronous, as in PVM.  ``trace_ref`` optionally tags the
        message (and every frame it fragments into) with a
        content-addressed causal-lineage id for the trace bus.
        """
        yield Compute(self.vm.overheads.send_cost(nbytes))
        self._submit(dst, tag, payload, nbytes, self._number_send(), trace_ref)
        yield from self._backpressure()

    def mcast(
        self,
        dsts: Iterable[int],
        tag: int,
        payload: Any,
        nbytes: int,
        trace_ref: str | None = None,
    ) -> Generator:
        """Multicast: pack once, unicast to each destination (PVM semantics).

        The paper's island GA uses this to broadcast migrants to every
        other deme — note the cost grows linearly in the destination count,
        which is what limits the synchronous GA's scaling past 8 nodes.
        """
        dsts = [d for d in dsts if d != self.tid]
        cost = self.vm.overheads.send_cost(nbytes) + self.vm.overheads.mcast_per_dest * max(
            0, len(dsts) - 1
        )
        yield Compute(cost)
        seq = self._number_send()
        if self._hw_multicast_eligible(dsts, tag):
            self._submit_broadcast(dsts, tag, payload, nbytes, seq, trace_ref)
        else:
            for dst in dsts:
                self._submit(dst, tag, payload, nbytes, seq, trace_ref)
        yield from self._backpressure()

    def _hw_multicast_eligible(self, dsts: list[int], tag: int) -> bool:
        """True when one BROADCAST frame can stand in for the unicast fan-out.

        Requires the VM's ``hw_multicast`` opt-in (switched fabrics with a
        multicast tree), a destination set covering every other task (a
        broadcast reaches *all* adapters — a partial set would leak), and a
        message other than a barrier release, which stays a unicast
        fan-out as PVM groups send it.
        """
        return (
            self.vm.hw_multicast
            and len(dsts) > 1
            and tag != BARRIER_RELEASE_TAG
            and set(dsts) == set(self.vm.tasks) - {self.tid}
        )

    def _backpressure(self) -> Generator:
        """Block until the egress queue drains below the send window.

        Models PVM's blocking ``write()`` on a full UDP socket buffer: a
        sender on a saturated shared Ethernet cannot generate messages
        faster than the medium drains them.  This is the transport-level
        half of the positive-feedback loop §3.1 describes for fully
        asynchronous GAs — without it an asynchronous program could flood
        an unbounded queue for free, which no real system allows.
        """
        adapter = self.vm.network.adapters.get(self.tid)
        if adapter is None:
            return
        window = self.vm.send_window
        while adapter.queue_len > window:
            yield WaitSignal(adapter.drain_signal)

    def _number_send(self) -> int:
        """Number one ``send``/``mcast`` call and trace it as ``msg.send``
        (one record for every copy of a multicast: they leave the sender
        at the same point of its program)."""
        self.sends += 1
        obs = self.vm.kernel.obs
        if obs is not None:
            obs.emit("msg.send", node=self.tid, seq=self.sends)
        return self.sends

    def _submit(
        self,
        dst: int,
        tag: int,
        payload: Any,
        nbytes: int,
        seq: int,
        trace_ref: str | None,
    ) -> None:
        if dst not in self.vm.tasks:
            raise KeyError(f"send to unknown task {dst}")
        msg = Message(
            src=self.tid, dst=dst, tag=tag, payload=payload, nbytes=nbytes,
            send_time=self.vm.kernel.now, trace_ref=trace_ref, seq=seq,
        )
        self.messages_sent += 1
        self.bytes_sent += nbytes
        self.vm._transmit(msg)

    def _submit_broadcast(
        self,
        dsts: list[int],
        tag: int,
        payload: Any,
        nbytes: int,
        seq: int,
        trace_ref: str | None,
    ) -> None:
        """One BROADCAST submission standing in for len(dsts) unicasts.

        Accounting stays in *logical* messages (one per destination) so
        metrics are comparable across the unicast and hw-multicast paths;
        only the wire traffic changes.
        """
        msg = Message(
            src=self.tid, dst=BROADCAST, tag=tag, payload=payload, nbytes=nbytes,
            send_time=self.vm.kernel.now, trace_ref=trace_ref, seq=seq,
        )
        self.messages_sent += len(dsts)
        self.bytes_sent += nbytes * len(dsts)
        self.vm._transmit(msg)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def _take(self, msgs: list[Message]) -> None:
        """Count consumed messages and trace them as one ``msg.consume``.

        Consumption, not mailbox arrival, is the receive event: only then
        can the process depend on the payload.  The record names per
        source the newest call number taken — a sender's clock only
        grows, so that snapshot stands for all of them.
        """
        self.messages_received += len(msgs)
        obs = self.vm.kernel.obs
        if obs is None:
            return
        newest: dict[int, int] = {}
        for msg in msgs:
            if msg.seq > newest.get(msg.src, 0):
                newest[msg.src] = msg.seq
        # "src:seq,..." — one scalar, not a list of pairs: a GA drain takes
        # one message from each of ~11 peers, and a string is the
        # cheapest record that keeps them
        obs.emit(
            "msg.consume", node=self.tid,
            newest=",".join(f"{src}:{newest[src]}" for src in sorted(newest)),
        )

    def _pop_match(self, src: int, tag: int) -> Message | None:
        for i, msg in enumerate(self.mailbox):
            if msg.matches(src, tag):
                popped = self.mailbox.pop(i)
                self._take([popped])
                return popped
        return None

    def recv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        """Blocking receive; returns the earliest matching message."""
        while True:
            msg = self._pop_match(src, tag)
            if msg is not None:
                yield Compute(self.vm.overheads.recv_cost(msg.nbytes))
                return msg
            yield WaitSignal(self.mail_signal)

    def nrecv_all(self, tag: int) -> list[Message]:
        """Take every waiting message with ``tag``, in arrival order.

        Non-blocking (``pvm_nrecv`` until it returns nothing) and traced
        as one ``msg.consume`` record for the batch.  It charges no
        receive overhead itself: callers charge :meth:`consume_cost`.
        """
        box = self.mailbox
        taken = [m for m in box if m.tag == tag]
        if taken:
            box[:] = [m for m in box if m.tag != tag]
            self._take(taken)
        return taken

    def consume_cost(self, msg: Message) -> float:
        """CPU cost a caller should charge for a message taken via nrecv_all."""
        return self.vm.overheads.recv_cost(msg.nbytes)

    def probe(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """True if a matching message is waiting (``pvm_probe``)."""
        return any(m.matches(src, tag) for m in self.mailbox)

    def pending(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> int:
        """Number of matching messages waiting."""
        return sum(1 for m in self.mailbox if m.matches(src, tag))

    # ------------------------------------------------------------------
    # Barrier
    # ------------------------------------------------------------------
    def barrier(self, group: Iterable[int]) -> Generator:
        """Group barrier: returns when every tid in ``group`` has entered.

        Coordinator-based, as in PVM groups: the lowest tid gathers one
        message from every other member, then multicasts the release.  The
        synchronous GA and BN programs pay this cost every generation /
        sample, which is precisely the overhead `Global_Read` with age 0
        eliminates (§5, "speedups for Global_Read with age = 0").
        """
        members = sorted(set(group))
        if self.tid not in members:
            raise ValueError(f"task {self.tid} not in barrier group {members}")
        if len(members) == 1:
            return
        coord = members[0]
        # each barrier message carries a tid, sized as one packed C int
        if self.tid == coord:
            for _ in range(len(members) - 1):
                yield from self.recv(tag=BARRIER_TAG)
            yield from self.mcast(members[1:], BARRIER_RELEASE_TAG, coord, nbytes=4)
        else:
            yield from self.send(coord, BARRIER_TAG, self.tid, nbytes=4)
            yield from self.recv(src=coord, tag=BARRIER_RELEASE_TAG)

    # ------------------------------------------------------------------
    # Frame-level plumbing (called by the VM)
    # ------------------------------------------------------------------
    def _on_frame(self, frame: Frame) -> None:
        msg_id, frag_idx, n_frags, msg = frame.payload
        if msg.dst == BROADCAST:
            if msg.src == self.tid:
                return
            # hw multicast: rebind to this receiver so mailbox state
            # (dst, arrival_time) is never shared across tasks
            msg = replace(msg, dst=self.tid)
        elif msg.dst != self.tid:
            return  # broadcast link frame not for this task
        if n_frags > 1:
            key = (msg.src, msg_id)
            entry = self._partial.setdefault(key, [0, n_frags, msg])
            entry[0] += 1
            if entry[0] < n_frags:
                return
            del self._partial[key]
        msg.arrival_time = self.vm.kernel.now
        # links are FIFO per path, so appending on the last fragment keeps
        # send order per source => pairwise FIFO
        self.mailbox.append(msg)
        self.mail_signal.fire()


class VirtualMachine:
    """The PVM "virtual machine": task registry over one network."""

    def __init__(
        self,
        kernel: Kernel,
        network: Network,
        overheads: PvmOverheads | None = None,
        send_window: int = 16,
        hw_multicast: bool = False,
    ) -> None:
        self.kernel = kernel
        self.network = network
        self.overheads = overheads or PvmOverheads()
        #: max egress frames in flight before sends block (socket buffer)
        self.send_window = send_window
        #: opt-in: eligible mcasts ride the fabric's multicast tree as one
        #: BROADCAST frame (see Task._hw_multicast_eligible)
        self.hw_multicast = hw_multicast
        self.tasks: dict[int, Task] = {}
        try:
            self._mtu = int(network.config.max_payload)  # type: ignore[attr-defined]
        except AttributeError:
            self._mtu = 1500

    def add_task(self, node_id: int, name: str | None = None) -> Task:
        """Create the task living on ``node_id`` and attach it to the net."""
        if node_id in self.tasks:
            raise ValueError(f"node {node_id} already has a task")
        task = Task(self, node_id, name or f"task-{node_id}")
        self.tasks[node_id] = task
        self.network.attach(node_id, task._on_frame)
        return task

    def _transmit(self, msg: Message) -> None:
        """Fragment a message into MTU-sized frames and hand to the link."""
        total = msg.nbytes + self.overheads.header_bytes
        adapter = self.network.adapters[msg.src]
        if total <= self._mtu:  # the common case: one frame, no loop
            adapter.send(Frame(
                msg.src, msg.dst, total, (msg.msg_id, 0, 1, msg), "pvm",
                trace_ref=msg.trace_ref,
            ))
            return
        n_frags = -(-total // self._mtu)  # ceil division
        remaining = total
        for idx in range(n_frags):
            size = min(self._mtu, remaining)
            remaining -= size
            frame = Frame(
                src=msg.src,
                dst=msg.dst,
                size_bytes=size,
                payload=(msg.msg_id, idx, n_frags, msg),
                kind="pvm",
                trace_ref=msg.trace_ref,
            )
            adapter.send(frame)

    def total_messages(self) -> int:
        """Total messages sent through this VM."""
        return sum(t.messages_sent for t in self.tasks.values())
