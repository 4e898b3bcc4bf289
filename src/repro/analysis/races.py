"""Happens-before race classification: a pure fold over a run trace.

The paper's argument (§2.1) is that `Global_Read` induces a memory model
close to delta consistency: racy reads are *acceptable* exactly when
their staleness is within the declared age bound.  :func:`classify_races`
makes that executable by replaying one run's trace with a vector clock
per task (DESIGN.md §7).  Edges: program order (trace order per task);
``msg.send`` snapshots the sender's clock under its per-task call
number and ``msg.consume`` joins, per source, the newest one consumed —
barrier traffic and the DSM update that carried a value are ordinary
messages, so their edges come for free.  ``fault.*`` records carry no
edge (a dropped message simply contributes none) and are only counted.

A read (``gr.hit`` / ``gr.unblock`` / ``dsm.read``) returning age ``a``
on location L *missed* every write to L with age > ``a`` already in the
trace.  A missed write that happens-before the read is ``SYNCHRONIZED``
(not a race); otherwise the pair races, ``TOLERATED`` when the read's
age bound holds for the value it returned, else ``UNBOUNDED`` (a
``read_local``, or a bound violation).  So a barrier-synchronized run
classifies race-free, a fully asynchronous one shows unbounded races and
a `Global_Read` run only tolerated ones.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.consistency import READ_KINDS, consistency_violations, require_complete
from repro.obs.bus import ObsEvent

#: the records that tick a task's clock
_HB_KINDS = frozenset(("dsm.write", "msg.send", "msg.consume", *READ_KINDS))


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

    def get(self, tid: int) -> int:
        """This clock's component for ``tid`` (0 when never ticked)."""
        return self._c.get(tid, 0)


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


def classify_races(
    events: Sequence[ObsEvent], dropped: int = 0
) -> tuple[list[RacePair], dict[str, Any]]:
    """Every classified (missed write, read) pair of a trace, plus a summary.

    ``events`` and ``dropped`` are as for
    :func:`~repro.core.consistency.consistency_violations` (a truncated
    trace raises ``ValueError``).  The summary counts reads, writes,
    ``msg.send`` / ``msg.consume`` records, clean reads (no missed write)
    and pairs per class, the worst staleness over every racy pair, the
    consistency violations and the injected faults by kind.
    """
    require_complete(dropped)
    clocks: defaultdict[int, VectorClock] = defaultdict(VectorClock)
    #: (sender, call number) -> sender's clock at the send
    sent: dict[tuple[int, int], VectorClock] = {}
    #: per location: (age, writer, clock) in trace order (ages increase)
    writes: dict[str, list[tuple[int, int, VectorClock]]] = {}
    pairs: list[RacePair] = []
    clean = 0
    for e in events:
        t, kind, node = e[0], e[1], e[2]
        if kind not in _HB_KINDS:
            continue
        vc = clocks[node]
        vc.tick(node)
        if kind == "dsm.write":
            writes.setdefault(e.get("locn"), []).append((e.get("iter"), node, vc.copy()))
        elif kind == "msg.send":
            sent[(node, e.get("seq"))] = vc.copy()
        elif kind == "msg.consume":
            for item in e.get("newest").split(","):
                src, seq = item.split(":")
                snap = sent.get((int(src), int(seq)))
                if snap is not None:
                    vc.join(snap)
        else:
            locn, ret = e.get("locn"), e.get("ret")
            curr_iter, bound = e.get("curr_iter"), e.get("age")
            ws = writes.get(locn, [])
            missed = ws[bisect_right(ws, ret, key=lambda w: w[0]):]
            clean += not missed
            within = bound is not None and ret >= curr_iter - bound
            for age, writer, wvc in missed:
                if wvc.leq(vc):
                    cls = RaceClass.SYNCHRONIZED
                elif within:
                    cls = RaceClass.TOLERATED
                else:
                    cls = RaceClass.UNBOUNDED
                pairs.append(RacePair(
                    locn, writer, age, node, ret, cls, curr_iter, bound, age - ret, t,
                ))
    kinds = Counter(e.kind for e in events)
    by_class = Counter(p.classification for p in pairs)
    summary = {
        "reads_checked": sum(kinds[k] for k in READ_KINDS),
        "writes_checked": kinds["dsm.write"],
        "sends_observed": kinds["msg.send"],
        "recvs_observed": kinds["msg.consume"],
        "clean_reads": clean,
        "synchronized_pairs": by_class[RaceClass.SYNCHRONIZED],
        "tolerated_races": by_class[RaceClass.TOLERATED],
        "unbounded_races": by_class[RaceClass.UNBOUNDED],
        "max_observed_staleness": max(
            (p.staleness for p in pairs if p.classification is not RaceClass.SYNCHRONIZED),
            default=0,
        ),
        "consistency_violations": len(consistency_violations(events)),
        "faults_injected": {
            k[6:]: n for k, n in sorted(kinds.items()) if k.startswith("fault.")
        },
    }
    return pairs, summary
