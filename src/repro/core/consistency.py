"""The non-strict coherence guarantee, checked as a fold over a run trace.

`Global_Read` induces a memory model very close to *delta consistency*
(§2.1).  :func:`consistency_violations` checks its obligations on the
trace of one run (:mod:`repro.obs.bus`; trace order is each task's
program order):

1. **Staleness bound** — every value a ``global_read(locn, curr_iter,
   age)`` returns (``gr.hit`` / ``gr.unblock``, age in ``ret``) was
   generated at producer iteration ``>= curr_iter - age``.
2. **No phantom values** — every read (those two and ``dsm.read``)
   returns an age some ``dsm.write`` actually produced.
3. **Monotone reads** — per (reader, location), returned ages never
   decrease (the age buffer keeps only the newest copy).
4. **Producer monotonicity** — write ages per location strictly increase.

The property-based tests drive random workloads through the DSM and
assert the fold finds nothing — the strongest evidence the primitive is
implemented correctly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

#: trace kinds that record a value returned to a reader
READ_KINDS = ("gr.hit", "gr.unblock", "dsm.read")


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with enough context to debug it."""

    invariant: str
    locn: str
    detail: str
    time: float
    #: reading task id for read-side invariants (None for write-side ones)
    reader: int | None = None


def require_complete(dropped: int) -> None:
    """Refuse a truncated trace: ``dropped`` records never reached it.

    A missing ``dsm.write`` would read as a phantom value and a missing
    ``msg.send`` as a race, so a fold over a partial trace would report
    defects the run never had.
    """
    if dropped:
        raise ValueError(
            f"trace is truncated: {dropped} event(s) were dropped; fold a "
            "complete trace (raise trace_max_events or stream to a sink)"
        )


def consistency_violations(events: Iterable, dropped: int = 0) -> list[Violation]:
    """Every broken invariant in a trace, in trace order.

    ``events`` are :class:`~repro.obs.bus.ObsEvent` records (a bus's
    ``events`` or :func:`~repro.obs.bus.read_jsonl`'s output); ``dropped``
    is the bus's :attr:`~repro.obs.bus.TraceBus.dropped` or the trailer's
    ``events_dropped`` — nonzero raises ``ValueError``.
    """
    require_complete(dropped)
    out: list[Violation] = []
    written: dict[str, set[int]] = {}
    newest_write: dict[str, int] = {}
    last_read: dict[tuple[int, str], int] = {}
    for e in events:
        t, kind, node = e[0], e[1], e[2]
        if kind == "dsm.write":
            locn, age = e.get("locn"), e.get("iter")
            prev = newest_write.get(locn)
            if prev is not None and age <= prev:
                out.append(Violation(
                    "producer-monotonicity", locn,
                    f"writer {node} write age {age} after {prev}", t,
                ))
            newest_write[locn] = age
            written.setdefault(locn, set()).add(age)
        elif kind in READ_KINDS:
            locn, ret, bound = e.get("locn"), e.get("ret"), e.get("age")
            if bound is not None and ret < e.get("curr_iter") - bound:
                out.append(Violation(
                    "staleness-bound", locn,
                    f"reader {node} at iter {e.get('curr_iter')} with age "
                    f"{bound} got value of age {ret}", t, reader=node,
                ))
            if ret not in written.get(locn, ()):
                out.append(Violation(
                    "no-phantom-values", locn,
                    f"reader {node} got age {ret}, never written", t, reader=node,
                ))
            last = last_read.get((node, locn))
            if last is not None and ret < last:
                out.append(Violation(
                    "monotone-reads", locn,
                    f"reader {node} saw age {ret} after {last}", t, reader=node,
                ))
            last_read[(node, locn)] = ret
    return out


def report(violations: list[Violation], max_lines: int = 20) -> str:
    """Human-readable summary for test failures: the count per invariant,
    then at most ``max_lines`` examples and how many were left out."""
    counts = Counter(v.invariant for v in violations)
    lines = [
        f"{len(violations)} violation(s) {dict(sorted(counts.items()))}, "
        f"showing first {min(len(violations), max_lines)}:"
    ]
    for v in violations[:max_lines]:
        who = f" reader={v.reader}" if v.reader is not None else ""
        lines.append(f"  [{v.invariant}] {v.locn}{who} @ t={v.time:.6f}: {v.detail}")
    if len(violations) > max_lines:
        lines.append(f"  ... {len(violations) - max_lines} more omitted")
    return "\n".join(lines)
