"""Causal span graphs and critical-path attribution over flat traces.

The trace bus (:mod:`repro.obs.bus`) emits *flat* JSONL events; this
module lifts them into a **causal span graph** and walks it to explain a
run's completion time — the analysis layer the paper's claims need
(blocking vs staleness vs rollback, §5) in the style of Lubachevsky &
Weiss's rollback-cost accounting.

Three stages, all pure functions of the event list:

1. :func:`build_spans` — stitch events into :class:`Span` intervals:
   ``node.compute`` compute spans, ``gr.block``/``gr.unblock`` wait
   spans, ``rb.begin``/``rb.end`` rollback spans (with cascade parent
   links via correction versions), plus the ``dsm.write →
   gr.unblock`` message lineage joined on the content-addressed
   ``ref`` (``"locn@iter"``) the DSM stamps on updates.  Truncated or
   dropped traces degrade to *partial* spans — the builder never
   raises on missing halves.
2. :func:`attribute` — per-node wall-time attribution: a priority sweep
   (gr-wait > rollback > compute) over each node's active window;
   whatever remains inside the window is **network** time (PVM
   send/recv overheads and message handling carry no events of their
   own, and an application process that is neither computing, blocked
   in ``Global_Read`` nor rolling back is communicating).  Note the
   current cost model charges rollback *redo* CPU inside the
   correction-application drain, so rollback spans are zero-width in
   simulated time: the rollback bucket reports cascade counts and
   depths, while redo CPU lands in the network/messaging remainder.
3. :func:`critical_path` — walk backward from run completion: a wait
   span whose lineage resolves jumps to the producing write on the
   writer node (the wait *decomposes* into upstream compute + network
   transit); unresolved waits stay attributed as ``gr-blocking``.

:func:`repro.obs.report.report_dict` runs all three and carries the
results under its ``attribution`` and ``critical_path`` keys
(``python -m repro.obs report --json``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable

from repro.obs.bus import ObsEvent

#: attribution bucket names, in display order
BUCKETS = ("compute", "gr_blocking", "network", "rollback")

_EPS = 1e-12
MAX_SEGMENTS = 100_000  # the critical-path walk's cap; no real trace reaches it


@dataclass
class Span:
    """One causal interval on one node.

    ``kind`` is ``"compute"``, ``"gr-wait"`` or ``"rollback"``;
    ``detail`` carries kind-specific fields (``op``/``locn``/``ref``/
    ``writer``/``cause``/``depth``…).  ``partial`` marks spans
    reconstructed from one half of a begin/end pair (truncated traces).
    ``parent`` is the index (into :attr:`SpanGraph.spans`) of the causal
    parent span, where one could be resolved.
    """

    kind: str
    node: int
    t0: float
    t1: float
    detail: dict = field(default_factory=dict)
    partial: bool = False
    parent: int | None = None

    @property
    def duration(self) -> float:
        """Span length in simulated seconds (>= 0)."""
        return max(0.0, self.t1 - self.t0)


@dataclass
class SpanGraph:
    """The stitched causal graph of one trace.

    ``writes`` maps a lineage ref (``"locn@iter"``) to its producing
    ``(node, time)``.  Every event on a node, ``net.deliver`` included,
    widens that node's ``node_window``.  ``partial`` is True when any
    begin/end pair was missing its other half (bounded-buffer truncation).
    ``node_spans`` and ``node_tiles`` group the built graph by node once,
    on first use, for every per-node reader (attribution, the critical
    path, the HTML timeline).
    """

    spans: list[Span] = field(default_factory=list)
    writes: dict[str, tuple[int, float]] = field(default_factory=dict)
    node_window: dict[int, tuple[float, float]] = field(default_factory=dict)
    t_end: float = 0.0
    events: int = 0
    unresolved_waits: int = 0
    partial: bool = False
    gr_ages: dict[int, float] = field(default_factory=dict)

    @property
    def nodes(self) -> list[int]:
        """All nodes with any activity, sorted."""
        return sorted(self.node_window)

    @cached_property
    def node_spans(self) -> dict[int, list[Span]]:
        """Each active node's spans in :attr:`spans` order, grouped on first use."""
        out: dict[int, list[Span]] = {node: [] for node in self.nodes}
        for s in self.spans:
            if s.node in out:
                out[s.node].append(s)
        return out

    @cached_property
    def node_tiles(self) -> dict[int, list[tuple[float, float, str]]]:
        """Each active node's :func:`node_segments` tiles, computed on first use."""
        return {n: node_segments(self.node_window[n], self.node_spans[n]) for n in self.nodes}


def build_spans(events: Iterable[ObsEvent]) -> SpanGraph:
    """Lift a flat event stream into a :class:`SpanGraph`.

    Tolerant of truncated traces by construction: an ``gr.unblock``
    without its ``gr.block`` rebuilds the wait from its ``waited``
    stamp; a ``gr.block``/``rb.begin`` whose end was dropped becomes a
    partial span reaching the end of the trace.  Never raises on
    incomplete pairs.
    """
    g = SpanGraph()
    open_waits: dict[tuple[int, str], list[float]] = {}
    open_rollbacks: dict[tuple[int, int, int], list[tuple[float, dict]]] = {}
    # (writer_node, version-carrying rollback span idx) resolution table:
    # rb.end on the writer that *sent* corrections, by node, in time order
    corr_sources: dict[int, list[tuple[float, int]]] = {}
    windows = g.node_window
    t_end = 0.0
    n = 0

    for e in events:
        t, kind, node = e[0], e[1], e[2]
        n += 1
        if t > t_end:
            t_end = t
        if node >= 0:
            # every event on a node (net.deliver included) widens its window
            w = windows.get(node)
            if w is None:
                windows[node] = (t, t)
            elif t > w[1]:
                windows[node] = (w[0], t)
            elif t < w[0]:
                windows[node] = (t, w[1])

        if kind == "node.compute":
            cost = float(e.get("cost", 0.0))
            detail = {"op": e.get("op")} if "op" in e.keys else {}
            g.spans.append(Span("compute", node, t, t + cost, detail))
            if t + cost > t_end:
                t_end = t + cost
        elif kind == "dsm.write":
            ref = f"{e.get('locn')}@{e.get('iter')}"
            g.writes.setdefault(ref, (node, t))
        elif kind == "gr.block":
            open_waits.setdefault((node, str(e.get("locn"))), []).append(t)
        elif kind == "gr.unblock":
            locn = str(e.get("locn"))
            stack = open_waits.get((node, locn))
            waited = float(e.get("waited", 0.0))
            if stack:
                t0 = stack.pop()
            else:
                # block event dropped: the unblock's own stamp suffices
                t0 = t - waited
            lineage = ("ref", "writer", "curr_iter", "age", "staleness")
            detail = {"locn": locn, **{k: e.get(k) for k in lineage if k in e.keys}}
            g.spans.append(Span("gr-wait", node, t0, t, detail,
                                partial="ref" not in detail))
            if "ref" not in detail:
                g.unresolved_waits += 1
            if "age" in detail:
                a = int(detail["age"])
                g.gr_ages[a] = g.gr_ages.get(a, 0.0) + waited
        elif kind == "gr.hit" and "age" in e.keys:
            g.gr_ages.setdefault(int(e.get("age")), 0.0)
        elif kind == "rb.begin":
            key = (node, int(e.get("input", -1)), int(e.get("iter", -1)))
            detail = {
                k: e.get(k) for k in ("input", "iter", "depth", "cause",
                                      "writer", "version") if k in e.keys
            }
            open_rollbacks.setdefault(key, []).append((t, detail))
        elif kind == "rb.end":
            key = (node, int(e.get("input", -1)), int(e.get("iter", -1)))
            stack = open_rollbacks.get(key)
            if stack:
                t0, detail = stack.pop()
            else:
                t0, detail = t, {"input": e.get("input"), "iter": e.get("iter")}
            detail = dict(detail)
            detail["corrections"] = e.get("corrections", 0)
            g.spans.append(Span("rollback", node, t0, t, detail,
                                partial=not stack and t0 == t and "cause" not in detail))
            idx = len(g.spans) - 1
            if int(e.get("corrections", 0)) > 0:
                corr_sources.setdefault(node, []).append((t, idx))
    g.events = n
    g.t_end = t_end

    # dangling halves → partial spans to the end of the trace
    for (node, locn), stack in open_waits.items():
        for t0 in stack:
            g.spans.append(
                Span("gr-wait", node, t0, g.t_end, {"locn": locn}, partial=True)
            )
            g.unresolved_waits += 1
            g.partial = True
    for (node, _u, _t), stack in open_rollbacks.items():
        for t0, detail in stack:
            g.spans.append(Span("rollback", node, t0, t0, detail, partial=True))
            g.partial = True

    _link_rollback_parents(g, corr_sources)
    return g


def _link_rollback_parents(
    g: SpanGraph, corr_sources: dict[int, list[tuple[float, int]]]
) -> None:
    """Attach cascade parents: a correction-caused rollback's parent is
    the latest correction-*emitting* rollback on the writer that had
    already finished.  Best-effort — unresolved parents stay ``None``."""
    for sources in corr_sources.values():
        sources.sort()
    for i, s in enumerate(g.spans):
        if s.kind != "rollback" or s.detail.get("cause") != "correction":
            continue
        writer = s.detail.get("writer", -1)
        sources = corr_sources.get(writer)
        if not sources:
            continue
        times = [t for t, _ in sources]
        j = bisect_left(times, s.t0 + _EPS) - 1
        if j >= 0:
            s.parent = sources[j][1]


_PRIORITY = {"gr-wait": 3, "rollback": 2, "compute": 1}
_PRI_BUCKET = {3: "gr_blocking", 2: "rollback", 1: "compute"}


def node_segments(
    window: tuple[float, float], spans: list[Span]
) -> list[tuple[float, float, str]]:
    """Partition one node's window into bucket-labelled segments.

    A priority sweep (gr-wait > rollback > compute) resolves overlaps
    (a node nominally cannot be blocked and computing at once, but
    partial spans from truncated traces may overlap); uncovered window
    time is the network/messaging remainder.  Returns contiguous
    ``(t0, t1, bucket)`` tiles covering exactly ``[w0, w1]``.
    """
    w0, w1 = window
    if w1 <= w0:
        return []
    marks: list[tuple[float, int, int]] = []
    for s in spans:
        pri = _PRIORITY.get(s.kind)
        if pri is None:
            continue
        a, b = max(s.t0, w0), min(s.t1, w1)
        if b > a:
            marks.append((a, 1, pri))
            marks.append((b, -1, pri))
    marks.sort()
    counts = [0, 0, 0, 0]
    segments: list[tuple[float, float, str]] = []

    def push(t0: float, t1: float) -> None:
        active = max((p for p in (1, 2, 3) if counts[p] > 0), default=0)
        bucket = _PRI_BUCKET.get(active, "network")
        if segments and segments[-1][2] == bucket and segments[-1][1] == t0:
            segments[-1] = (segments[-1][0], t1, bucket)
        else:
            segments.append((t0, t1, bucket))

    prev = w0
    i = 0
    n = len(marks)
    while i < n:
        t = marks[i][0]
        if t > prev:
            push(prev, t)
            prev = t
        while i < n and marks[i][0] == t:
            counts[marks[i][2]] += marks[i][1]
            i += 1
    if w1 > prev:
        push(prev, w1)
    return segments


def attribute(g: SpanGraph) -> dict[str, Any]:
    """Per-node and total wall-time attribution for one trace.

    Returns ``per_node`` buckets ({compute, gr_blocking, network,
    rollback, idle}), bucket ``totals``, the minimum per-node
    ``attributed_fraction`` (the acceptance metric: the four buckets
    over the run's completion time) and blocking seconds per observed
    ``age`` setting.
    """
    per_node: dict[int, dict[str, float]] = {}
    t_end = g.t_end
    for node in g.nodes:
        window = g.node_window[node]
        buckets = {b: 0.0 for b in BUCKETS}
        for t0, t1, bucket in g.node_tiles[node]:
            buckets[bucket] += t1 - t0
        idle = max(0.0, window[0]) + max(0.0, t_end - window[1])
        covered = sum(buckets.values())
        frac = (covered / t_end) if t_end > 0 else 1.0
        per_node[node] = {
            **buckets,
            "idle": idle,
            "window": [window[0], window[1]],
            "attributed_fraction": frac,
        }
    totals = {b: sum(pn[b] for pn in per_node.values()) for b in BUCKETS}
    totals["idle"] = sum(pn["idle"] for pn in per_node.values())
    fracs = [pn["attributed_fraction"] for pn in per_node.values()]
    return {
        "per_node": per_node,
        "totals": totals,
        "min_attributed_fraction": min(fracs) if fracs else 1.0,
        "blocking_by_age": {str(a): g.gr_ages[a] for a in sorted(g.gr_ages)},
    }


def critical_path(g: SpanGraph) -> dict[str, Any]:
    """Walk the span graph backward from run completion.

    From the node that finishes last, walk time backward: a covering
    compute/rollback span contributes its own kind; a covering wait
    span with resolved lineage *jumps* to the producing write on the
    writer node, contributing the ``[write, unblock]`` interval as
    network time (transit + residual wait); unresolved waits contribute
    ``gr-blocking``; uncovered gaps are network/messaging overhead.
    Segments are returned in chronological order and tile ``[0,
    t_end]`` exactly, so ``coverage`` is 1.0 unless the walk was capped.
    """
    t_end = g.t_end
    empty = {
        "segments": [], "by_kind": {}, "by_node": {},
        "coverage": 0.0, "t_end": t_end, "start_node": None,
    }
    if t_end <= 0 or not g.node_window:
        return empty

    # per-node walkable spans, sorted by start; zero-width spans are
    # never "covering" and only matter for attribution, so drop them
    walk: dict[int, list[Span]] = {}
    starts: dict[int, list[float]] = {}
    for node in g.nodes:
        spans = [
            s for s in g.node_spans[node]
            if s.duration > _EPS and s.kind in ("compute", "gr-wait", "rollback")
        ]
        spans.sort(key=lambda s: (s.t0, s.t1))
        walk[node] = spans
        starts[node] = [s.t0 for s in spans]

    node = max(
        g.node_window,
        key=lambda n: max([g.node_window[n][1]] + [s.t1 for s in walk[n]]),
    )
    start_node = node
    t = t_end
    segments: list[dict[str, Any]] = []

    def emit(node: int, kind: str, t0: float, t1: float, **detail: Any) -> None:
        if t1 - t0 > _EPS:
            segments.append(
                {"node": node, "kind": kind, "t0": t0, "t1": t1,
                 "dur": t1 - t0, **detail}
            )

    while t > _EPS and len(segments) < MAX_SEGMENTS:
        spans = walk.get(node, [])
        i = bisect_left(starts.get(node, []), t) - 1
        s = spans[i] if i >= 0 else None
        if s is None:
            emit(node, "network", 0.0, t)
            break
        if s.t1 < t - _EPS:
            # gap between spans: communication / messaging overhead
            emit(node, "network", s.t1, t)
            t = s.t1
            continue
        if s.kind in ("compute", "rollback"):
            emit(node, s.kind, s.t0, t, **{
                k: s.detail[k] for k in ("op", "cause", "depth") if k in s.detail
            })
            t = s.t0
            continue
        # gr-wait: try to jump along the resolved lineage
        ref = s.detail.get("ref")
        src = g.writes.get(ref) if ref is not None else None
        if src is not None and src[0] != node and src[1] < t - _EPS:
            w_node, w_t = src
            emit(node, "network", w_t, t, ref=ref, src=w_node,
                 locn=s.detail.get("locn"))
            node, t = w_node, w_t
        else:
            emit(node, "gr-blocking", s.t0, t, locn=s.detail.get("locn"),
                 unresolved=True)
            t = s.t0

    segments.reverse()
    by_kind: dict[str, float] = {}
    by_node: dict[str, float] = {}
    for seg in segments:
        by_kind[seg["kind"]] = by_kind.get(seg["kind"], 0.0) + seg["dur"]
        by_node[str(seg["node"])] = by_node.get(str(seg["node"]), 0.0) + seg["dur"]
    return {
        "segments": segments,
        "by_kind": by_kind,
        "by_node": by_node,
        "coverage": (sum(by_kind.values()) / t_end) if t_end > 0 else 0.0,
        "t_end": t_end,
        "start_node": start_node,
    }
