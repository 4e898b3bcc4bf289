"""Declarative, seed-driven fault schedules.

A :class:`FaultPlan` is the *complete* description of a chaos run's
degradation: message-level fault rates and windows
(:class:`MessageFaults`) plus a schedule of node-level incidents
(:class:`NodeFault`).  Plans are frozen dataclasses — picklable (they
cross process boundaries in the experiment runner's cells), hashable, and
printable — and they carry their *own* seed: the injector's random
stream is derived from ``plan.seed`` via the same named-stream
construction as every other RNG in the repository
(:func:`repro.sim.rng.stream_seed`), so the fault sequence is a pure
function of the plan, independent of the machine seed.  Two runs of the
same workload under the same plan are bit-identical; changing only
``plan.seed`` re-rolls every fault decision (DESIGN.md §9).

The CLI spec format (``--faults`` on the experiment runners)::

    drop=0.05,dup=0.02,delay=0.05,delay_s=0.0005:0.005,reorder=0.1,
    seed=7,start=0,stop=2.5,
    pause=NODE:START:DURATION,slow=NODE:START:DURATION:FACTOR,
    crash=NODE:START:DURATION

Repeatable keys (``pause``/``slow``/``crash``) accumulate.  Unknown keys
raise immediately — a typo silently disabling chaos would defeat the
point of a regression-gated fault matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.inputs import (
    at_least,
    check_fields,
    nonnegative,
    one_of,
    positive,
    probability,
)

#: PVM tags never faulted: the barrier protocol is a
#: counting protocol with no retransmission, so the paper's synchronous
#: baselines assume it is reliable (DESIGN.md §9 — the fault model
#: degrades *data* traffic; control-plane hardening is future work).
DEFAULT_PROTECTED_TAGS = (-1000, -1001)  # BARRIER_TAG, BARRIER_RELEASE_TAG


@dataclass(frozen=True)
class MessageFaults:
    """Per-delivery fault probabilities and their parameters.

    Exactly one fault is drawn per frame delivery (one uniform draw
    against the cumulative rates), so ``drop + duplicate + delay +
    reorder`` must be <= 1.  ``delay`` and ``reorder`` are lossless;
    ``drop`` is real loss (no retransmission layer exists yet), and
    ``duplicate`` models UDP-style duplication — the layers above must
    tolerate both, which is what the chaos suite asserts.
    """

    drop: float = probability(default=0.0)
    duplicate: float = probability(default=0.0)
    delay: float = probability(default=0.0)
    reorder: float = probability(default=0.0)
    #: uniform range the extra delivery latency is drawn from, seconds
    delay_s: tuple[float, float] = nonnegative(default=(0.5e-3, 5e-3), each=True)
    #: the duplicate copy lands this long after the original
    dup_delay_s: float = nonnegative(default=0.2e-3)
    #: safety flush: a held (reordered) frame is force-released after
    #: this long even if no later frame overtakes it — reordering must
    #: never turn into loss
    reorder_hold_s: float = positive(default=2e-3)
    #: fault window in simulated seconds; ``stop=None`` = forever
    start: float = nonnegative(default=0.0)
    stop: float | None = nonnegative(default=None, optional=True)
    #: frame kinds eligible for faults; empty = every kind (PVM messages
    #: tagged DEFAULT_PROTECTED_TAGS are exempt either way)
    kinds: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        check_fields(self)
        total = self.drop + self.duplicate + self.delay + self.reorder
        if total > 1.0:
            raise ValueError(f"fault rates must sum to <= 1, got {total}")
        lo, hi = self.delay_s
        if hi < lo:
            raise ValueError(f"delay_s must be 0 <= lo <= hi, got {self.delay_s}")
        if self.stop is not None and self.stop < self.start:
            raise ValueError(f"bad fault window [{self.start}, {self.stop}]")

    @property
    def any_rate(self) -> bool:
        """True when any message-fault probability is nonzero."""
        return (self.drop + self.duplicate + self.delay + self.reorder) > 0.0

    def active(self, now: float) -> bool:
        """Whether the fault window covers simulated time ``now``."""
        return now >= self.start and (self.stop is None or now < self.stop)


@dataclass(frozen=True)
class NodeFault:
    """One scheduled node-level incident.

    ``pause``
        The node executes no application compute during the window;
        work in progress stalls and resumes at ``start + duration``.
        Models GC pauses, co-scheduled jobs, OS-level suspension.
    ``slowdown``
        Application compute overlapping the window is stretched by
        ``factor`` (> 1).  Models thermal throttling / background load.
    ``crash``
        A fail-stop-with-recovery: like ``pause``, but the node's
        outbound adapter queue is flushed at ``start`` (in-flight
        egress frames are lost).  Process state survives — the paper's
        programs have no checkpointing, so a state-losing crash is out
        of scope until a recovery protocol exists (DESIGN.md §9).
    """

    node: int = at_least(0)
    kind: str = one_of(("pause", "slowdown", "crash"))
    start: float = nonnegative()
    duration: float = positive()
    factor: float = positive(default=2.0)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.kind == "slowdown" and self.factor <= 1.0:
            raise ValueError(f"slowdown factor must be > 1, got {self.factor}")

    @property
    def end(self) -> float:
        """End of the fault window in simulated seconds."""
        return self.start + self.duration


@dataclass(frozen=True)
class FaultPlan:
    """A complete, reproducible chaos schedule (see module docstring)."""

    seed: int = at_least(0, default=0)
    messages: MessageFaults = field(default_factory=MessageFaults)
    node_faults: tuple[NodeFault, ...] = ()

    def __post_init__(self) -> None:
        check_fields(self)
        object.__setattr__(self, "node_faults", tuple(self.node_faults))

    @property
    def is_noop(self) -> bool:
        """True when the plan injects nothing at all."""
        return not self.messages.any_rate and not self.node_faults

    def faults_for_node(self, node_id: int) -> tuple[NodeFault, ...]:
        """The node faults that target ``node_id``."""
        return tuple(
            sorted(
                (f for f in self.node_faults if f.node == node_id),
                key=lambda f: f.start,
            )
        )

    def describe(self) -> str:
        """Compact human-readable spec string (inverse of :meth:`parse`)."""
        m = self.messages
        parts = [f"seed={self.seed}"]
        for name, rate in (
            ("drop", m.drop), ("dup", m.duplicate),
            ("delay", m.delay), ("reorder", m.reorder),
        ):
            if rate:
                parts.append(f"{name}={rate:g}")
        if m.start or m.stop is not None:
            parts.append(f"window=[{m.start:g},{'inf' if m.stop is None else f'{m.stop:g}'})")
        for f in self.node_faults:
            parts.append(f"{f.kind}(n{f.node}@{f.start:g}+{f.duration:g})")
        return ",".join(parts)

    # ------------------------------------------------------------------
    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan (injects nothing)."""
        return cls()

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from the CLI spec format (module docstring); the
        plan seed is 0 unless the spec names one."""
        msg_floats = {
            "drop": "drop", "dup": "duplicate", "delay": "delay",
            "reorder": "reorder", "start": "start",
            "dup_delay_s": "dup_delay_s", "reorder_hold_s": "reorder_hold_s",
        }
        msg_kwargs: dict = {}
        node_faults: list[NodeFault] = []
        plan_seed = 0
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ValueError(f"bad fault spec item {item!r} (expected key=value)")
            key, _, value = item.partition("=")
            key = key.strip()
            value = value.strip()
            try:
                if key == "seed":
                    plan_seed = int(value)
                elif key in msg_floats:
                    msg_kwargs[msg_floats[key]] = float(value)
                elif key == "stop":
                    msg_kwargs["stop"] = None if value in ("inf", "none") else float(value)
                elif key == "delay_s":
                    lo, _, hi = value.partition(":")
                    msg_kwargs["delay_s"] = (float(lo), float(hi or lo))
                elif key == "kinds":
                    msg_kwargs["kinds"] = tuple(value.split("+"))
                elif key in ("pause", "slow", "crash"):
                    fields = value.split(":")
                    kind = {"slow": "slowdown"}.get(key, key)
                    if kind == "slowdown":
                        if len(fields) != 4:
                            raise ValueError(f"slow wants NODE:START:DURATION:FACTOR, got {value!r}")
                        node_faults.append(NodeFault(
                            node=int(fields[0]), kind=kind, start=float(fields[1]),
                            duration=float(fields[2]), factor=float(fields[3]),
                        ))
                    else:
                        if len(fields) != 3:
                            raise ValueError(f"{key} wants NODE:START:DURATION, got {value!r}")
                        node_faults.append(NodeFault(
                            node=int(fields[0]), kind=kind, start=float(fields[1]),
                            duration=float(fields[2]),
                        ))
                else:
                    raise ValueError(f"unknown fault spec key {key!r}")
            except ValueError as exc:  # name the item each refusal came from
                raise ValueError(f"{item!r}: {exc}") from None
        return cls(
            seed=plan_seed,
            messages=MessageFaults(**msg_kwargs),
            node_faults=tuple(node_faults),
        )
