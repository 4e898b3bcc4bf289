"""Runtime fault injection: message-level and node-level injectors.

:class:`MessageFaultInjector` composes with *any* :class:`Network`
subclass (ethernet, switch — loader traffic included) by interposing on
the instance's ``_deliver``: every concrete link model funnels each
per-destination delivery through ``self._deliver``, so replacing that
bound attribute intercepts exactly one point per (frame, dst) without
subclassing per model.  Fault decisions are one uniform draw against
the plan's cumulative rates, from a stream derived *only* from
``plan.seed`` — same plan, same workload ⇒ bit-identical trace
(the chaos regression suite pins this with SHA-256 digests).

:class:`NodeFaultModel` applies pause/slowdown/crash windows to a
:class:`~repro.cluster.node.Node`'s compute costs via the node's
``fault_model`` hook; crash windows additionally flush the node's
egress adapter queue at crash onset (in-flight outbound frames lost).

Injected faults are recorded in a :class:`FaultLog` — a bounded,
digestible event list that is the chaos suite's trace artifact — and
counted in :class:`FaultStats`; with a trace bus attached each one is
also a ``fault.<kind>`` record.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.faults.plan import FaultPlan, NodeFault
from repro.network.base import Network
from repro.network.frame import Frame
from repro.sim.kernel import Kernel
from repro.sim.rng import stream_seed


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, with enough identity to line up with traces."""

    time: float
    kind: str  # "drop" | "duplicate" | "delay" | "reorder" | "flush" | "crash-flush"
    src: int
    dst: int
    frame_kind: str
    frame_id: int
    #: kind-specific magnitude: delay seconds, frames lost at a crash, …
    amount: float = 0.0


@dataclass
class FaultStats:
    """Counters over every injected fault (never truncated)."""

    eligible: int = 0
    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0
    reordered: int = 0
    flush_releases: int = 0
    crash_frames_lost: int = 0

    def as_dict(self) -> dict:
        """Per-kind fault counts as a plain dict."""
        return {
            "eligible": self.eligible,
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "delayed": self.delayed,
            "reordered": self.reordered,
            "flush_releases": self.flush_releases,
            "crash_frames_lost": self.crash_frames_lost,
        }


class FaultLog:
    """Bounded append-only record of injected faults (the trace artifact)."""

    def __init__(self, max_events: int = 100_000) -> None:
        self.events: list[FaultEvent] = []
        self.max_events = max_events
        self.dropped_records = 0

    def add(self, event: FaultEvent) -> None:
        """Append ``event``, dropping the oldest entries beyond the bound."""
        if len(self.events) >= self.max_events:
            self.dropped_records += 1
            return
        self.events.append(event)

    def rows(self) -> list[dict]:
        """The retained fault events as JSON-friendly dicts."""
        return [
            {
                "time": e.time, "kind": e.kind, "src": e.src, "dst": e.dst,
                "frame_kind": e.frame_kind, "frame_id": e.frame_id, "amount": e.amount,
            }
            for e in self.events
        ]

    def digest_fields(self) -> list:
        """Flat field list for :func:`repro.util.digest.digest_values`."""
        out: list = []
        for e in self.events:
            out.extend((e.time, e.kind, e.src, e.dst, e.frame_kind, e.amount))
        out.append(self.dropped_records)
        return out

    def __len__(self) -> int:
        return len(self.events)


class MessageFaultInjector:
    """Seed-driven drop/duplicate/delay/reorder at frame delivery time.

    Exactly one fault decision is made per original (frame, destination)
    delivery; synthetic deliveries the injector itself schedules
    (duplicate copies, delayed frames, released holds) bypass the dice so
    fault cascades stay bounded and the event count stays linear in the
    traffic.
    """

    def __init__(self, kernel: Kernel, network: Network, plan: FaultPlan) -> None:
        self.kernel = kernel
        self.network = network
        self.plan = plan
        self.stats = FaultStats()
        self.log = FaultLog()
        self._rng = np.random.default_rng(stream_seed(plan.seed, "faults.messages"))
        #: per destination: frames held for reordering
        self._held: dict[int, list[Frame]] = {}
        self._orig_deliver = network._deliver
        network._deliver = self._on_deliver  # type: ignore[method-assign]
        #: discoverable from the network (the golden-table recipes read
        #: its log through here)
        network.fault_injector = self  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    def _eligible(self, frame: Frame) -> bool:
        m = self.plan.messages
        if m.kinds and frame.kind not in m.kinds:
            return False
        if m.protect_tags and frame.kind == "pvm":
            payload = frame.payload
            # PVM frames carry (msg_id, frag_idx, n_frags, Message)
            if isinstance(payload, tuple) and len(payload) == 4:
                tag = getattr(payload[3], "tag", None)
                if tag in m.protect_tags:
                    return False
        return True

    def _record(self, kind: str, frame: Frame, dst: int, amount: float = 0.0) -> None:
        self.log.add(FaultEvent(
            time=self.kernel.now, kind=kind, src=frame.src, dst=dst,
            frame_kind=frame.kind, frame_id=frame.frame_id, amount=amount,
        ))
        if self.kernel.obs is not None:
            self.kernel.obs.emit(
                f"fault.{kind}", node=dst, src=frame.src,
                frame_kind=frame.kind, amount=amount,
            )

    # ------------------------------------------------------------------
    def _on_deliver(self, frame: Frame, dst: int) -> None:
        m = self.plan.messages
        if not m.any_rate or not m.active(self.kernel.now) or not self._eligible(frame):
            self._deliver_and_release(frame, dst)
            return
        self.stats.eligible += 1
        u = float(self._rng.random())
        edge = m.drop
        if u < edge:
            self.stats.dropped += 1
            self._record("drop", frame, dst)
            return
        edge += m.duplicate
        if u < edge:
            self.stats.duplicated += 1
            self._record("duplicate", frame, dst)
            self._deliver_and_release(frame, dst)
            self.kernel.schedule(m.dup_delay_s, self._deliver_direct, frame, dst)
            return
        edge += m.delay
        if u < edge:
            lo, hi = m.delay_s
            extra = float(self._rng.uniform(lo, hi))
            self.stats.delayed += 1
            self._record("delay", frame, dst, amount=extra)
            self.kernel.schedule(extra, self._deliver_direct, frame, dst)
            return
        edge += m.reorder
        if u < edge:
            self.stats.reordered += 1
            self._record("reorder", frame, dst)
            self._held.setdefault(dst, []).append(frame)
            self.kernel.schedule(m.reorder_hold_s, self._flush_held, frame, dst)
            return
        self._deliver_and_release(frame, dst)

    # -- synthetic deliveries (no re-roll) ------------------------------
    def _deliver_direct(self, frame: Frame, dst: int) -> None:
        self._orig_deliver(frame, dst)

    def _deliver_and_release(self, frame: Frame, dst: int) -> None:
        """Deliver ``frame`` and then any frames held for reordering.

        The held frames were enqueued *before* this one, so delivering
        them after it is precisely the overtake the fault models.
        """
        self._orig_deliver(frame, dst)
        held = self._held.get(dst)
        if held:
            self._held[dst] = []
            for h in held:
                self._orig_deliver(h, dst)

    def _flush_held(self, frame: Frame, dst: int) -> None:
        """Safety valve: a held frame no later frame overtook is released."""
        held = self._held.get(dst)
        if held and frame in held:
            held.remove(frame)
            self.stats.flush_releases += 1
            self._record("flush", frame, dst)
            self._orig_deliver(frame, dst)


class NodeFaultModel:
    """Pause/slowdown/crash windows for one node's compute stream.

    Installed on ``Node.fault_model``; :meth:`perturb` maps a compute
    interval ``[now, now + seconds)`` to its faulted completion time.
    Pause and crash windows are dead time (completion slips past the
    window's end); slowdown windows stretch the overlapping portion by
    ``factor``.  The mapping is a deterministic pure function of
    ``(now, seconds)`` — no randomness, so node faults never perturb
    RNG streams.
    """

    def __init__(self, faults: tuple[NodeFault, ...]) -> None:
        self.faults = tuple(sorted(faults, key=lambda f: f.start))
        self.stall_time = 0.0
        self.stretch_time = 0.0

    def perturb(self, now: float, seconds: float) -> float:
        """Faulted duration for baseline work of ``seconds`` starting now."""
        finish = now + seconds
        for f in self.faults:
            if f.kind in ("pause", "crash"):
                # windows are start-sorted and `finish` only grows, so a
                # single pass accumulates cascading stalls correctly
                if finish > f.start and now < f.end:
                    stall = f.end - max(now, f.start)
                    finish += stall
                    self.stall_time += stall
            else:  # slowdown: stretch the overlapped portion
                overlap = min(finish, f.end) - max(now, f.start)
                if overlap > 0:
                    stretch = overlap * (f.factor - 1.0)
                    finish += stretch
                    self.stretch_time += stretch
        return finish - now


class FaultInjector:
    """Everything one machine needs: message + node injectors, one plan."""

    def __init__(
        self,
        kernel: Kernel,
        network: Network,
        nodes: list,
        plan: FaultPlan,
    ) -> None:
        self.plan = plan
        self.kernel = kernel
        self.network = network
        self.messages = MessageFaultInjector(kernel, network, plan)
        self.node_models: dict[int, NodeFaultModel] = {}
        self.stats = self.messages.stats
        self.log = self.messages.log
        for node in nodes:
            faults = plan.faults_for_node(node.node_id)
            if not faults:
                continue
            model = NodeFaultModel(faults)
            node.fault_model = model
            self.node_models[node.node_id] = model
            for f in faults:
                if f.kind == "crash":
                    kernel.schedule_at(f.start, self._crash_flush, node.node_id)

    def _crash_flush(self, node_id: int) -> None:
        """Crash onset: the node's queued egress frames are lost."""
        adapter = self.network.adapters.get(node_id)
        if adapter is None or not adapter.queue:
            return
        lost = len(adapter.queue)
        self.messages.stats.crash_frames_lost += lost
        self.messages.log.add(FaultEvent(
            time=self.kernel.now, kind="crash-flush", src=node_id, dst=-1,
            frame_kind="*", frame_id=-1, amount=float(lost),
        ))
        if self.kernel.obs is not None:
            self.kernel.obs.emit(
                "fault.crash-flush", node=node_id, amount=float(lost)
            )
        # the network owns per-queue derived state (Ethernet's contender
        # backlog); flushing through it keeps that state consistent
        self.network.flush_queue(node_id)

    def summary(self) -> dict:
        """Injected-fault counts and log size, as a dict."""
        out = {"plan": self.plan.describe(), **self.stats.as_dict()}
        out["node_stall_time"] = sum(m.stall_time for m in self.node_models.values())
        out["node_stretch_time"] = sum(m.stretch_time for m in self.node_models.values())
        return out


def install_faults(kernel: Kernel, network: Network, nodes: list, plan: FaultPlan) -> FaultInjector:
    """Wire a plan into a built machine's kernel/network/nodes."""
    return FaultInjector(kernel, network, nodes, plan)
