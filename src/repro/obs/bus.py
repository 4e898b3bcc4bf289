"""The structured trace bus: typed run events with a JSONL writer.

A :class:`TraceBus` collects :class:`ObsEvent` records — *what happened,
when, on which node* — from every instrumented subsystem.  The design
constraints, in priority order:

1. **Determinism neutrality.**  Emitting an event must never touch an
   RNG stream, the event queue or any simulated state; the bus only
   appends to a Python list.  With tracing off there is no bus at all
   (``kernel.obs is None``) and every hook is a single attribute check,
   so the golden digests in :mod:`repro.check` are byte-identical
   either way — and a test
   pins that they are identical with tracing *on* too.
2. **Zero dependencies.**  Plain tuple records, stdlib ``json``.
3. **Bounded memory.**  Buffered mode keeps at most ``max_events``
   records and counts the overflow in :attr:`dropped`, mirroring
   :class:`repro.faults.injectors.FaultLog`; sink mode
   (:class:`GzipJsonlSink`) streams compressed JSONL to disk every
   ``flush_every`` events instead, so arbitrarily long runs trace with
   O(``flush_every``) peak memory and zero drops.  A record is one flat
   tuple, no payload dict: ~160 B of heap per buffered record.

Event taxonomy (field details in ``docs/observability.md``):

=============  ========================================================
``proc.*``     process lifecycle: ``spawn``, ``done``, ``fail`` (from
               :mod:`repro.sim.kernel`; blocking is read from ``gr.*``)
``net.deliver``  one frame handed to its destination adapter (carries
               enqueue time, so warp is recomputable from the trace)
``node.compute``  one charged compute interval on a node
``msg.send``   one ``send``/``mcast`` call, keyed by the sender's call
               number (``seq``)
``msg.consume``  one draining call (``recv``, a DSM drain, a correction
               batch): per source the newest ``seq`` taken
               (``"src:seq,..."``)
``dsm.write``  a producer published an iteration of a shared location
``dsm.read``   ``read_local`` returned a copy (its age in ``ret``)
``gr.hit``     ``Global_Read`` satisfied from the local age buffer
``gr.block``   ``Global_Read`` parked its caller (bound not met)
``gr.unblock`` the parked reader resumed; carries the waited seconds
``rb.begin`` / ``rb.end``  one Time-Warp rollback, with cascade depth
``bn.commit``  runs committed below the GVT floor
``gvt.advance``  the central GVT floor moved forward
``fault.*``    injected faults (``drop``, ``duplicate``, ``delay``,
               ``reorder``, ``flush``, ``crash-flush``)
=============  ========================================================

The ``time`` stamp comes from a *clock callable* handed in at
construction (``lambda: kernel.now``), so components without a kernel
reference (:class:`repro.bayes.rollback.ProcessorState`) can still emit.
"""

from __future__ import annotations

import gzip
import json
import os
from hashlib import sha256
from operator import itemgetter
from typing import Any, Callable, Iterator


class ObsEvent(tuple):
    """One structured trace record: ``(time, kind, node, keys, *values)``.

    ``keys`` names the payload fields in sorted order (one interned tuple
    per record shape, :func:`shape`); :meth:`get` reads a value by name.
    """

    __slots__ = ()

    def __new__(cls, time: float, kind: str, node: int, fields: dict) -> ObsEvent:
        """The record of a payload dict given in any key order."""
        keys = _shape_of(fields)
        return tuple.__new__(cls, (time, kind, node, keys, *map(fields.__getitem__, keys)))

    time = property(itemgetter(0), doc="simulated time stamp")
    kind = property(itemgetter(1), doc="event kind (``gr.hit``, ``net.deliver`` ...)")
    node = property(itemgetter(2), doc="application-node id, -1 for none")
    keys = property(itemgetter(3), doc="the payload field names, sorted")

    def get(self, name: str, default: Any = None) -> Any:
        """Payload field ``name``, or ``default`` when the record has none."""
        return self[self[3].index(name) + 4] if name in self[3] else default

    def __getnewargs__(self) -> tuple:
        """Pickle as the payload dict, so the copy's keys are re-interned."""
        return (*self[:3], dict(zip(self[3], self[4:])))

    def as_dict(self) -> dict:
        """Flat JSON-ready mapping (``t``/``kind``/``node`` + payload)."""
        out = {"t": self[0], "kind": self[1], "node": self[2]}
        out.update(zip(self[3], self[4:]))
        return out


#: field names in any order seen -> the interned sorted key tuple
_SHAPES: dict[tuple, tuple] = {}


def shape(*names: str) -> tuple:
    """The interned key tuple of one record shape; ``names`` must be sorted
    (hot emitters lay their values out in this order)."""
    if list(names) != sorted(names):
        raise ValueError(f"record keys must be given sorted, got {names}")
    return _SHAPES.setdefault(names, names)


def _shape_of(fields: dict) -> tuple:
    """The interned sorted key tuple of a payload dict in any key order."""
    names = tuple(fields)
    return _SHAPES.get(names) or _SHAPES.setdefault(names, shape(*sorted(names)))


#: builds an :class:`ObsEvent` without the Python-level ``__new__`` frame
_new_tuple = tuple.__new__

#: compressed bytes after which a :class:`GzipJsonlSink` part is closed
ROTATE_BYTES = 8_000_000


class GzipJsonlSink:
    """Rotating gzip JSONL writer: the bounded-memory backing of a bus.

    One sink owns a base path (``trace.jsonl.gz``); once the compressed
    bytes of the current part pass :data:`ROTATE_BYTES` the part is closed
    and writing continues in ``trace.part001.jsonl.gz``, ``part002`` …
    so a single artifact never grows unboundedly and a partial run
    leaves complete, readable parts behind.  Compression level 1 favours
    write throughput — trace lines are highly repetitive, so even the
    fastest setting compresses them ~10×.
    """

    def __init__(self, path: str) -> None:
        self.base_path = os.fspath(path)
        #: every part written, in order (base path first)
        self.paths: list[str] = []
        self._raw = None
        self._gz = None
        self._open_part(0)

    def _open_part(self, k: int) -> None:
        path = part_path(self.base_path, k)
        self.paths.append(path)
        self._raw = open(path, "wb")
        # filename="" keeps the member name out of the gzip header, so
        # identical content gives identical bytes wherever it's written
        self._gz = gzip.GzipFile(
            filename="", fileobj=self._raw, mode="wb",
            compresslevel=1, mtime=0,
        )

    def write_line(self, line: str) -> None:
        """Append one JSON line, rotating to a new part when full."""
        self._gz.write(line.encode("utf-8"))
        self._gz.write(b"\n")
        if self._raw.tell() >= ROTATE_BYTES:
            self._close_part()
            self._open_part(len(self.paths))

    def _close_part(self) -> None:
        if self._gz is not None:
            self._gz.close()
            self._raw.close()
            self._gz = self._raw = None

    def close(self) -> None:
        """Flush and close the current part (idempotent)."""
        self._close_part()


def part_path(path: str, k: int) -> str:
    """Path of rotation part ``k`` of a gzip trace (part 0 is ``path``)."""
    path = os.fspath(path)
    if k == 0:
        return path
    if path.endswith(".jsonl.gz"):
        return f"{path[:-len('.jsonl.gz')]}.part{k:03d}.jsonl.gz"
    return f"{path}.part{k:03d}"


class TraceBus:
    """Append-only collector of :class:`ObsEvent` records.

    Two storage modes:

    * **buffered** (default): events stay in memory up to ``max_events``
      and overflow bumps :attr:`dropped` — cheap, simple, fine for
      paper-scale runs;
    * **sink** (``sink=GzipJsonlSink(...)``): every ``flush_every``
      events the buffer is serialised to the rotating gzip sink and
      cleared, so peak memory is O(``flush_every``) regardless of run
      length and nothing is ever dropped.  A running SHA-256 keeps
      :meth:`digest` identical to what buffered mode would report.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        max_events: int = 500_000,
        sink: GzipJsonlSink | None = None,
        flush_every: int = 5_000,
    ) -> None:
        for name, value in (("max_events", max_events), ("flush_every", flush_every)):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value!r}")
        self.clock = clock
        self.max_events = max_events
        self.events: list[ObsEvent] = []
        #: events discarded after the buffer filled (never silently lost;
        #: always 0 in sink mode)
        self.dropped = 0
        self.sink = sink
        self.flush_every = flush_every
        #: total events emitted (== len(self.events) in buffered mode)
        self.emitted = 0
        #: high-water mark of the in-memory buffer at flush time (sink
        #: mode; the bounded-trace-memory evidence — never > flush_every)
        self.peak_buffered = 0
        self._hash = sha256()
        self._last_t = 0.0
        self._finalized = False

    def emit(self, kind: str, node: int = -1, **fields: Any) -> None:
        """Record one event stamped with the current simulated time.

        Safe to call from any subsystem at any point in a run: the only
        side effects are a list append and, in sink mode, a periodic
        compressed flush.
        """
        keys = _shape_of(fields)
        self.append((self.clock(), kind, node, keys, *map(fields.__getitem__, keys)))

    def append(self, record: tuple) -> None:
        """Buffer one record ``(bus.clock(), kind, node, keys, *values)``
        (hot emitters build it directly, ``keys`` from :func:`shape`)."""
        if self.sink is None and len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(_new_tuple(ObsEvent, record))
        if self.sink is not None and len(self.events) >= self.flush_every:
            self._flush()

    def _flush(self) -> None:
        """Serialise the in-memory buffer to the sink and clear it."""
        if len(self.events) > self.peak_buffered:
            self.peak_buffered = len(self.events)
        sink = self.sink
        for e in self.events:
            line = json.dumps(e.as_dict(), sort_keys=True)
            self._hash.update(line.encode())
            self._hash.update(b"\n")
            sink.write_line(line)
            self._last_t = e.time
        self.emitted += len(self.events)
        self.events.clear()

    def __len__(self) -> int:
        return self.emitted + len(self.events) if self.sink else len(self.events)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def _meta_line(self, count: int) -> str:
        last_t = self.events[-1].time if self.events else self._last_t
        return json.dumps(
            {
                "t": last_t,
                "kind": "trace.meta",
                "node": -1,
                "events": count,
                "events_dropped": self.dropped,
            },
            sort_keys=True,
        )

    def write_jsonl(self, path: str | None = None) -> int:
        """Write one sorted-keys JSON object per line; returns the count.

        A trailer line (``kind = "trace.meta"``) records how many events
        the bounded buffer dropped, so a truncated trace is detectable.
        In sink mode the data already lives at the sink's path: the
        remaining buffer is flushed, the trailer appended, and the sink
        closed (``path`` is ignored; pass the sink's base path or None).
        """
        if self.sink is not None:
            meta = self._meta_line(self.emitted + len(self.events))
            self._flush()
            if not self._finalized:
                self.sink.write_line(meta)
                self.sink.close()
                self._finalized = True
            return self.emitted
        if path is None:
            raise ValueError("write_jsonl needs a path when the bus has no sink")
        with open(path, "w", encoding="utf-8") as fh:
            for e in self.events:
                fh.write(json.dumps(e.as_dict(), sort_keys=True))
                fh.write("\n")
            fh.write(self._meta_line(len(self.events)))
            fh.write("\n")
        return len(self.events)

    def digest(self) -> str:
        """SHA-256 over the canonical JSON of every event.

        Two runs with identical seeds must produce identical digests —
        ``tests/obs`` pins this — and sink mode must report the same
        digest buffered mode would (the running hash covers flushed
        events, the loop below the still-buffered tail).
        """
        h = self._hash.copy()
        for e in self.events:
            h.update(json.dumps(e.as_dict(), sort_keys=True).encode())
            h.update(b"\n")
        return h.hexdigest()


def trace_paths(path: str) -> list[str]:
    """All on-disk parts of a trace, in write order.

    A plain file is itself; a rotated gzip trace is the base path plus
    every consecutive ``partNNN`` sibling; a directory is its sorted
    ``*.jsonl`` / ``*.jsonl.gz`` members.
    """
    path = os.fspath(path)
    if os.path.isdir(path):
        return [
            os.path.join(path, name)
            for name in sorted(os.listdir(path))
            if name.endswith(".jsonl") or name.endswith(".jsonl.gz")
        ]
    paths = [path]
    k = 1
    while os.path.exists(part_path(path, k)):
        paths.append(part_path(path, k))
        k += 1
    return paths


def iter_trace_lines(path: str) -> Iterator[str]:
    """Yield the text lines of a (possibly rotated, gzipped) trace.

    Tolerates a truncated final gzip member — a crashed run's tail is
    lost, not the whole artifact; :func:`repro.obs.causal.build_spans`
    already marks the cut-off spans partial.
    """
    for part in trace_paths(path):
        if part.endswith(".gz"):
            fh = gzip.open(part, "rt", encoding="utf-8")
        else:
            fh = open(part, "r", encoding="utf-8")
        try:
            yield from fh
        except EOFError:
            return
        finally:
            fh.close()


def read_jsonl(path: str, meta: dict | None = None) -> Iterator[ObsEvent]:
    """Yield the :class:`ObsEvent` records of a trace.

    ``path`` may be a plain JSONL file, the base path of a (possibly
    rotated) gzip trace, or a directory of parts.  Blank lines are
    skipped; the ``trace.meta`` trailer is not an event — its fields
    (``events``, ``events_dropped`` …) are copied into ``meta`` when a
    dict is passed, so one pass over the file yields both (a truncated
    trace leaves it empty).  Payload keys other than ``t``/``kind``/
    ``node`` become the event's fields.  A line that no longer parses
    ends the stream — a crashed writer's torn final line loses the
    tail, not the artifact (``validate`` reports the damage); a line
    that parses but is no event raises ``ValueError`` naming it.
    """
    for lineno, line in enumerate(iter_trace_lines(path), 1):
        line = line.strip()
        if not line:
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError:
            return
        if isinstance(raw, dict) and raw.get("kind") == "trace.meta":
            if meta is not None:
                del raw["kind"]
                meta.update(raw)
            continue
        if not isinstance(raw, dict) or "t" not in raw or "kind" not in raw:
            raise ValueError(f"{os.fspath(path)}: line {lineno}: not a trace event: {line[:80]}")
        kind = raw.pop("kind")
        time = raw.pop("t")
        node = raw.pop("node", -1)
        yield ObsEvent(time, kind, node, raw)
