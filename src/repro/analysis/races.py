"""Happens-before race classification for DSM executions.

The paper's argument (§2.1) is that `Global_Read` induces a memory model
close to delta consistency: racy reads are *acceptable* exactly when
their staleness is within the declared age bound.  This module makes
that argument executable.  A :class:`RaceClassifier` observes a live run
through two attachment points:

* the PVM layer's message observer (``VirtualMachine.observer``) — one
  vector-clock **send edge** per submitted message and one **receive
  edge** per *consumed* message (``recv``/``nrecv`` pop, which is when
  the receiving process actually folds the data in);
* the DSM's checker hook (``Dsm.checker``) — it subclasses
  :class:`~repro.core.consistency.ConsistencyChecker`, so every
  invariant check still runs, and additionally every ``write`` and
  every returned read is stamped with the owning task's vector clock.

Happens-before edges (DESIGN.md §7): intra-process program order
(per-task clock ticks), send→recv (clock piggybacked on the message and
joined at consumption), barrier (emerges transitively from the
coordinator gather + release multicast, which are ordinary messages),
and write→propagated-read (the DSM update message that carried the
value).

Classification of a read R returning age ``a`` on location L: every
write W to L with age > ``a`` that was already issued when R returned is
a *missed write*.  If W happens-before R the pair is ``SYNCHRONIZED``
(ordered; not a race).  Otherwise W and R race: the pair is
``TOLERATED`` when R carried an age bound that its returned value
satisfies (a `Global_Read` within its staleness contract), else
``UNBOUNDED`` (a plain ``read_local`` or a bound violation — nothing
limits how stale the value may be).  A barrier-synchronized run must
therefore classify race-free, a fully asynchronous run shows unbounded
races, and a `Global_Read` run shows only tolerated ones.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

from repro.core.consistency import ConsistencyChecker


class VectorClock:
    """A sparse vector clock over task ids."""

    __slots__ = ("_c",)

    def __init__(self, clocks: dict[int, int] | None = None) -> None:
        self._c: dict[int, int] = dict(clocks) if clocks else {}

    def tick(self, tid: int) -> None:
        """Advance ``tid``'s component (one local event)."""
        self._c[tid] = self._c.get(tid, 0) + 1

    def join(self, other: "VectorClock") -> None:
        """Component-wise max, in place (message receipt)."""
        for tid, n in other._c.items():
            if n > self._c.get(tid, 0):
                self._c[tid] = n

    def copy(self) -> "VectorClock":
        """An independent copy (component-wise snapshot) of this clock."""
        return VectorClock(self._c)

    def leq(self, other: "VectorClock") -> bool:
        """True iff self happened-before-or-equals other."""
        return all(n <= other._c.get(tid, 0) for tid, n in self._c.items())

    def concurrent_with(self, other: "VectorClock") -> bool:
        """True when neither clock happens-before the other."""
        return not self.leq(other) and not other.leq(self)

    def get(self, tid: int) -> int:
        """This clock's component for ``tid`` (0 when never ticked)."""
        return self._c.get(tid, 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{t}:{n}" for t, n in sorted(self._c.items()))
        return f"VC({inner})"


class RaceClass(enum.Enum):
    """Verdict for one (write, read) pair on a shared location."""

    SYNCHRONIZED = "synchronized"
    TOLERATED = "tolerated"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class RacePair:
    """Evidence for one classified write/read pair."""

    locn: str
    writer: int
    write_age: int
    reader: int
    read_age: int
    classification: RaceClass
    #: reader's iteration and bound (None for read_local — no contract)
    curr_iter: int | None
    age_bound: int | None
    #: how stale the returned value was relative to the missed write
    staleness: int
    time: float

    def describe(self) -> str:
        """Human-readable one-line description of the racing access pair."""
        bound = "no bound" if self.age_bound is None else f"age<={self.age_bound}"
        return (
            f"[{self.classification.value}] {self.locn}: writer {self.writer} "
            f"wrote age {self.write_age} while reader {self.reader} returned "
            f"age {self.read_age} ({bound}, staleness {self.staleness}) "
            f"@ t={self.time:.6f}"
        )


@dataclass
class _WriteRecord:
    age: int
    writer: int
    vc: VectorClock
    time: float


class RaceClassifier(ConsistencyChecker):
    """Vector-clock happens-before classifier (see module docstring).

    Attach with :func:`attach_race_classifier`, or manually::

        rc = RaceClassifier()
        dsm.checker = rc        # write/read stamps + all base invariants
        dsm.vm.observer = rc    # send/recv edges (incl. barrier traffic)

    ``pairs`` keeps a bounded sample of race evidence
    (:attr:`max_pairs`); ``pair_counts`` counts every pair by
    (location, writer, reader, classification) and is what the summary
    properties and the CI gate read.
    """

    def __init__(
        self,
        max_pairs: int = 10_000,
        max_violations: int = 1000,
    ) -> None:
        super().__init__(max_violations=max_violations)
        self.max_pairs = max_pairs
        self.pairs: list[RacePair] = []
        self.pairs_dropped = 0
        self.pair_counts: dict[tuple[str, int, int, RaceClass], int] = {}
        #: reads that missed no concurrent write at all
        self.clean_reads = 0
        self._clocks: dict[int, VectorClock] = {}
        #: (src, msg_id) -> sender clock snapshot, claimed at consumption
        self._msg_clocks: dict[tuple[int, int], VectorClock] = {}
        #: per location: writes in age order (producer monotonicity)
        self._writes: dict[str, list[_WriteRecord]] = {}
        self.sends_observed = 0
        self.recvs_observed = 0
        #: injected-fault counts by kind (drop/duplicate/delay/reorder/…)
        #: when a repro.faults injector is attached; faults are *context*
        #: for the verdicts — a drop-induced stale read still classifies
        #: by its age bound (TOLERATED when the bound held), it is never
        #: an excuse to report UNBOUNDED
        self.fault_counts: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Vector-clock plumbing
    # ------------------------------------------------------------------
    def _clock(self, tid: int) -> VectorClock:
        vc = self._clocks.get(tid)
        if vc is None:
            vc = VectorClock()
            self._clocks[tid] = vc
        return vc

    # -- VirtualMachine.observer hooks ---------------------------------
    def on_send(self, src: int, dst: int, tag: int, msg_id: int, time: float) -> None:
        """Record a message send: tick the sender's clock and stash it for the
        receiver."""
        vc = self._clock(src)
        vc.tick(src)
        self._msg_clocks[(src, msg_id)] = vc.copy()
        self.sends_observed += 1

    def on_recv(self, tid: int, msg: Any, time: float) -> None:
        """Record a message receive: join the sender's stashed clock into the
        receiver's."""
        vc = self._clock(tid)
        vc.tick(tid)
        sent = self._msg_clocks.pop((msg.src, msg.msg_id), None)
        if sent is not None:
            vc.join(sent)
        self.recvs_observed += 1

    # -- repro.faults observer hook ------------------------------------
    def on_fault(self, kind: str, frame: Any, time: float) -> None:
        """One injected fault (MessageFaultInjector.observer).

        Faults carry no happens-before information — a dropped message
        simply contributes no send→recv edge, which the clocks already
        express by its absence — so this only counts them for reporting.
        """
        self.fault_counts[kind] = self.fault_counts.get(kind, 0) + 1

    # -- Dsm.checker hooks ---------------------------------------------
    def on_write(
        self, locn: str, age: int, time: float, writer: int | None = None
    ) -> None:
        """Record a DSM write access for later happens-before classification."""
        super().on_write(locn, age, time, writer=writer)
        if writer is None:
            return  # cannot build edges without the writing task's id
        vc = self._clock(writer)
        vc.tick(writer)
        self._writes.setdefault(locn, []).append(
            _WriteRecord(age=age, writer=writer, vc=vc.copy(), time=time)
        )

    def on_read(
        self,
        reader: int,
        locn: str,
        returned_age: int,
        time: float,
        curr_iter: int | None = None,
        age_bound: int | None = None,
    ) -> None:
        """Record a Global_Read access and classify it against prior writes."""
        super().on_read(
            reader, locn, returned_age, time,
            curr_iter=curr_iter, age_bound=age_bound,
        )
        read_vc = self._clock(reader)
        read_vc.tick(reader)
        writes = self._writes.get(locn, [])
        # Writes are age-sorted (producer monotonicity); only the tail
        # with age > returned_age can have been missed.  Everything
        # recorded so far was issued at or before `time` by construction.
        lo, hi = 0, len(writes)
        while lo < hi:
            mid = (lo + hi) // 2
            if writes[mid].age <= returned_age:
                lo = mid + 1
            else:
                hi = mid
        missed = writes[lo:]
        if not missed:
            self.clean_reads += 1
            return
        within_bound = (
            curr_iter is not None
            and age_bound is not None
            and returned_age >= curr_iter - age_bound
        )
        for w in missed:
            if w.vc.leq(read_vc):
                cls = RaceClass.SYNCHRONIZED
            elif within_bound:
                cls = RaceClass.TOLERATED
            else:
                cls = RaceClass.UNBOUNDED
            self._record_pair(
                RacePair(
                    locn=locn,
                    writer=w.writer,
                    write_age=w.age,
                    reader=reader,
                    read_age=returned_age,
                    classification=cls,
                    curr_iter=curr_iter,
                    age_bound=age_bound,
                    staleness=w.age - returned_age,
                    time=time,
                )
            )

    def _record_pair(self, pair: RacePair) -> None:
        key = (pair.locn, pair.writer, pair.reader, pair.classification)
        self.pair_counts[key] = self.pair_counts.get(key, 0) + 1
        if len(self.pairs) >= self.max_pairs:
            self.pairs_dropped += 1
            return
        self.pairs.append(pair)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def count(self, cls: RaceClass) -> int:
        """Number of classified access pairs in class ``cls``."""
        return sum(
            n for (_, _, _, c), n in self.pair_counts.items() if c is cls
        )

    @property
    def synchronized_pairs(self) -> int:
        """Pairs ordered by happens-before (no race)."""
        return self.count(RaceClass.SYNCHRONIZED)

    @property
    def tolerated_races(self) -> int:
        """Concurrent pairs whose staleness stayed within the declared age bound."""
        return self.count(RaceClass.TOLERATED)

    @property
    def unbounded_races(self) -> int:
        """Concurrent pairs with no (or an exceeded) staleness bound — true races."""
        return self.count(RaceClass.UNBOUNDED)

    @property
    def race_free(self) -> bool:
        """No racy pair at all — the synchronous-run verdict."""
        return self.tolerated_races == 0 and self.unbounded_races == 0

    def max_observed_staleness(self) -> int:
        """Largest staleness over all tolerated/unbounded pairs stored."""
        racy = [
            p.staleness
            for p in self.pairs
            if p.classification is not RaceClass.SYNCHRONIZED
        ]
        return max(racy, default=0)

    def summary(self) -> dict[str, Any]:
        """Per-class counts plus the worst observed staleness, as a dict."""
        return {
            "reads_checked": self.reads_checked,
            "writes_checked": self.writes_checked,
            "sends_observed": self.sends_observed,
            "recvs_observed": self.recvs_observed,
            "clean_reads": self.clean_reads,
            "synchronized_pairs": self.synchronized_pairs,
            "tolerated_races": self.tolerated_races,
            "unbounded_races": self.unbounded_races,
            "max_observed_staleness": self.max_observed_staleness(),
            "consistency_violations": self.total_violations,
            "faults_injected": dict(sorted(self.fault_counts.items())),
        }

    def report(self, max_lines: int = 20) -> str:
        """Multi-line text report: summary line plus up to ``max_lines`` worst pairs."""
        base = super().report(max_lines)
        lines = [base, "race classification:"]
        for label, n in (
            ("synchronized pairs", self.synchronized_pairs),
            ("tolerated races", self.tolerated_races),
            ("unbounded races", self.unbounded_races),
            ("clean reads", self.clean_reads),
        ):
            lines.append(f"  {label}: {n}")
        for pair in self.pairs[:max_lines]:
            if pair.classification is not RaceClass.SYNCHRONIZED:
                lines.append(f"  {pair.describe()}")
        return "\n".join(lines)


def attach_race_classifier(dsm: Any, max_pairs: int = 10_000) -> RaceClassifier:
    """Wire a fresh classifier into ``dsm`` and its VM; returns it.

    The classifier replaces ``dsm.checker`` (it *is* a
    ConsistencyChecker, so all four base invariants keep being checked)
    and installs itself as the VM's message observer.  If the VM's
    network carries a fault injector (``network.fault_injector``, set by
    :class:`repro.faults.injectors.MessageFaultInjector`), the classifier
    also becomes its observer so chaos-run verdicts come annotated with
    the injected-fault counts.
    """
    classifier = RaceClassifier(max_pairs=max_pairs)
    dsm.checker = classifier
    dsm.vm.observer = classifier
    injector = getattr(dsm.vm.network, "fault_injector", None)
    if injector is not None:
        injector.observer = classifier
    return classifier
