"""Summarise a structured trace once; render the summary as text.

:func:`report_dict` is the one place every reported quantity of a run
is computed — a pure function of the event stream (plus the optional
metrics snapshot and ``trace.meta`` trailer):

* **What happened** — per-node timeline strips (``#`` computing, ``X``
  blocked in ``Global_Read``, ``.`` idle / communicating), the
  ``Global_Read`` blocking counters and staleness histogram (the
  Figure-4 age-sensitivity quantities), Time-Warp rollback counts and
  cascade depths, per-(receiver, sender) stream warp recomputed *from
  the trace* exactly as :class:`repro.network.warp.WarpMeter` computes
  it live, switched-fabric deliveries, bounded-lag shard windows,
  GVT/commit progression and injected-fault counts.
* **Where the simulated time went** — the causal layer's per-node
  wall-time attribution and critical-path composition
  (:mod:`repro.obs.causal`).

Three thin renderers read that one dict: :func:`render_report` (text,
below), the ``repro-obs-report/2`` JSON envelope (``report --json``:
the dict itself, what CI and the trace differ consume) and
:func:`repro.obs.dashboard.render_dashboard` (``report --html``, which
adds one drawing: the per-node timeline from the span graph's tiles).
The tabular sections are laid out once, by :func:`tables`, so the text
report and the HTML page show the same sections with the same numbers.
Everything renders deterministically (sorted keys, fixed float
formats): the report of a fixed-seed run is golden-testable.
"""

from __future__ import annotations

from collections import Counter
from math import ceil

from repro.obs.bus import ObsEvent
from repro.obs.causal import BUCKETS, SpanGraph, attribute, build_spans, critical_path
from repro.obs.metrics import percentile_from_samples
from repro.util.envelope import make_envelope

#: schema tag of the :func:`report_dict` JSON envelope
REPORT_SCHEMA = "repro-obs-report/2"

#: timeline strip width (bins) by default
DEFAULT_BINS = 60

#: nodes a per-node table lists before the rest fold into one row
NODE_ROWS = 16

#: timeline glyphs
GLYPH_BLOCKED = "X"
GLYPH_COMPUTE = "#"
GLYPH_IDLE = "."


def fmt(cell) -> str:
    """One table cell as text (floats to four significant digits)."""
    return f"{cell:.4g}" if isinstance(cell, float) else str(cell)


def _table(headers: list[str], rows: list[list], title: str | None = None) -> str:
    """Minimal fixed-width text table (no dependency on repro.experiments)."""
    cells = [[fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def timeline_strips(g: SpanGraph, bins: int = DEFAULT_BINS) -> dict[int, str]:
    """Per-node timeline glyph strips (``#``/``X``/``.``), by node.

    A bin shows ``X`` when any ``Global_Read`` wait span of the graph
    overlaps it, else ``#`` when a compute span does.
    """
    if g.t_end <= 0:
        return {}
    rank = {"compute": 1, "gr-wait": 2}
    glyphs = (GLYPH_IDLE, GLYPH_COMPUTE, GLYPH_BLOCKED)
    per_bin = bins / g.t_end
    cells: dict[int, list[int]] = {}
    for s in g.spans:
        r = rank.get(s.kind)
        if r is None or s.t1 <= s.t0:
            continue
        row = cells.setdefault(s.node, [0] * bins)
        for b in range(int(s.t0 * per_bin), min(bins, ceil(s.t1 * per_bin))):
            if row[b] < r:
                row[b] = r
    return {n: "".join(glyphs[r] for r in cells[n]) for n in sorted(cells)}


def global_read_summary(events: list[ObsEvent]) -> tuple[dict, dict]:
    """``Global_Read`` blocking counters and the staleness histogram.

    Returns ``(blocking, staleness)``: per-node and total calls / hits /
    blocks / waited / mean_wait / max_wait, and the count of reads per
    returned-copy age lag with its mean.
    """
    per_node: dict[int, dict[str, float]] = {}
    hist: dict[int, int] = {}
    for e in events:
        if not e.kind.startswith("gr."):
            continue
        row = per_node.setdefault(
            e.node, {"calls": 0, "hits": 0, "blocks": 0, "waited": 0.0, "max_wait": 0.0}
        )
        if e.kind == "gr.hit":
            row["calls"] += 1
            row["hits"] += 1
        elif e.kind == "gr.block":
            row["calls"] += 1
            row["blocks"] += 1
        elif e.kind == "gr.unblock":
            waited = float(e.get("waited", 0.0))
            row["waited"] += waited
            row["max_wait"] = max(row["max_wait"], waited)
        if e.kind != "gr.block" and "staleness" in e.keys:
            s = int(e.get("staleness"))
            hist[s] = hist.get(s, 0) + 1
    per_node = {n: _gr_totals([per_node[n]]) for n in sorted(per_node)}
    totals = _gr_totals(list(per_node.values()))
    reads = sum(hist.values())
    return (
        {"per_node": {str(n): r for n, r in per_node.items()}, "totals": totals},
        {
            "hist": {str(s): hist[s] for s in sorted(hist)},
            "reads": reads,
            "mean": sum(s * n for s, n in hist.items()) / reads if reads else 0.0,
        },
    )


def _gr_totals(rows: list[dict]) -> dict[str, float]:
    """Blocking counters summed over ``rows`` (max wait: their maximum)."""
    totals = {k: sum(r[k] for r in rows) for k in ("calls", "hits", "blocks", "waited")}
    totals["max_wait"] = max((r["max_wait"] for r in rows), default=0.0)
    totals["mean_wait"] = totals["waited"] / totals["blocks"] if totals["blocks"] else 0.0
    return totals


def rollback_summary(events: list[ObsEvent]) -> dict | None:
    """Rollback counts, cascade-depth stats and causes, or None."""
    rollbacks = [e for e in events if e.kind == "rb.begin"]
    ends = [e for e in events if e.kind == "rb.end"]
    if not rollbacks:
        return None
    depth_counts: dict[int, int] = {}
    per_node: dict[int, int] = {}
    causes: dict[str, int] = {}
    for e in rollbacks:
        d = int(e.get("depth", 0))
        depth_counts[d] = depth_counts.get(d, 0) + 1
        per_node[e.node] = per_node.get(e.node, 0) + 1
        cause = str(e.get("cause", "unknown"))
        causes[cause] = causes.get(cause, 0) + 1
    depths = sorted(d for d, n in depth_counts.items() for _ in range(n))
    return {
        "rollbacks": len(rollbacks),
        "corrections": sum(int(e.get("corrections", 0)) for e in ends),
        "depth_mean": sum(depths) / len(depths),
        "depth_p50": percentile_from_samples(depths, 50),
        "depth_p90": percentile_from_samples(depths, 90),
        "depth_max": max(depths),
        "depth_hist": {str(d): depth_counts[d] for d in sorted(depth_counts)},
        "per_node": {str(n): per_node[n] for n in sorted(per_node)},
        "causes": {c: causes[c] for c in sorted(causes)},
    }


def warp_streams(
    events: list[ObsEvent],
) -> dict[tuple[int, int], list[tuple[float, float]]]:
    """Per-(receiver, sender) warp samples recomputed from the trace.

    Returns ``(dst, src) -> [(deliver_time, warp), …]`` — exactly the
    live :class:`repro.network.warp.WarpMeter` quantity (arrival-gap /
    send-gap of consecutive ``pvm`` deliveries), each with the time of
    the delivery that closed it.
    """
    last: dict[tuple[int, int], tuple[float, float]] = {}
    streams: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for e in events:
        if e.kind != "net.deliver" or e.get("frame_kind") != "pvm":
            continue
        key = (e.node, int(e.get("src", -1)))
        enq = float(e.get("enq", 0.0))
        prev = last.get(key)
        last[key] = (enq, e.time)
        if prev is None:
            continue
        send_gap = enq - prev[0]
        if send_gap <= 0:
            continue
        streams.setdefault(key, []).append((e.time, (e.time - prev[1]) / send_gap))
    return streams


def _warp_stats(samples: list[float]) -> dict[str, float]:
    return {
        "samples": len(samples),
        "mean": sum(samples) / len(samples),
        "p50": percentile_from_samples(samples, 50),
        "p90": percentile_from_samples(samples, 90),
        "p99": percentile_from_samples(samples, 99),
        "max": max(samples),
    }


def warp_summary(events: list[ObsEvent]) -> dict:
    """Warp percentiles per ``"dst<-src"`` stream and over all samples."""
    streams = warp_streams(events)
    per_stream: dict[str, dict[str, float]] = {}
    all_samples: list[float] = []
    for (dst, src) in sorted(streams):
        samples = [w for _, w in streams[(dst, src)]]
        all_samples.extend(samples)
        per_stream[f"{dst}<-{src}"] = _warp_stats(samples)
    return {
        "streams": per_stream,
        "all": _warp_stats(all_samples) if all_samples else None,
    }


def commit_summary(events: list[ObsEvent]) -> dict | None:
    """GVT/commit progression counters (Bayes runs), or None."""
    commits = [e for e in events if e.kind == "bn.commit"]
    advances = [e for e in events if e.kind == "gvt.advance"]
    if not commits and not advances:
        return None
    return {
        "batches": len(commits),
        "runs_committed": sum(int(e.get("runs", 0)) for e in commits),
        "final_floor": int(advances[-1].get("floor", 0)) if advances else 0,
    }


def fault_counts(events: list[ObsEvent]) -> dict[str, int]:
    """Injected-fault event counts by kind (empty when fault-free)."""
    counts = Counter(e.kind for e in events if e.kind.startswith("fault."))
    return dict(sorted(counts.items()))


def parallel_summary(events: list[ObsEvent]) -> dict | None:
    """Per-shard bounded-lag window stats from ``par.window`` spans.

    A merged parallel-kernel trace (:func:`repro.sim.parallel.trace.
    merge_shard_traces`) carries one span per shard per floor epoch;
    this aggregates them into the utilization view: window count, total
    wall-clock barrier wait and wait events per shard.
    """
    spans = [e for e in events if e.kind == "par.window"]
    if not spans:
        return None
    per_shard: dict[int, dict[str, float]] = {}
    for e in spans:
        row = per_shard.setdefault(
            int(e.get("shard", -1)),
            {"windows": 0, "wall_wait_s": 0.0, "waits": 0, "max_epoch": 0},
        )
        row["windows"] += 1
        row["wall_wait_s"] += float(e.get("wall_wait_s", 0.0))
        row["waits"] += int(e.get("waits", 0))
        row["max_epoch"] = max(row["max_epoch"], int(e.get("epoch", 0)))
    return {
        "shards": len(per_shard),
        "per_shard": {str(s): per_shard[s] for s in sorted(per_shard)},
        "total_wall_wait_s": sum(r["wall_wait_s"] for r in per_shard.values()),
    }


def fabric_summary(events: list[ObsEvent]) -> dict | None:
    """Switched-fabric delivery stats from annotated ``net.deliver``.

    Deliveries carry ``fabric``/``hops``/``bcast`` when they crossed a
    :class:`repro.network.switched.SwitchedNetwork`; shared-Ethernet
    traces have none and this section stays silent.  Link occupancy is
    reported as hop-traversals (each frame occupies ``hops`` directed
    links) per simulated second.
    """
    rows: dict[str, dict[str, float]] = {}
    t_end = events[-1].time if events else 0.0
    for e in events:
        if e.kind != "net.deliver" or "fabric" not in e.keys:
            continue
        row = rows.setdefault(
            str(e.get("fabric")),
            {
                "deliveries": 0, "broadcast": 0, "bytes": 0,
                "hop_traversals": 0, "max_hops": 0,
            },
        )
        hops = int(e.get("hops", 0))
        row["deliveries"] += 1
        row["broadcast"] += 1 if e.get("bcast") else 0
        row["bytes"] += int(e.get("size", 0))
        row["hop_traversals"] += hops
        row["max_hops"] = max(row["max_hops"], hops)
    if not rows:
        return None
    for row in rows.values():
        row["mean_hops"] = row["hop_traversals"] / row["deliveries"]
        row["links_per_sim_s"] = row["hop_traversals"] / t_end if t_end > 0 else 0.0
    return {name: rows[name] for name in sorted(rows)}


def report_dict(
    events: list[ObsEvent],
    metrics: dict | None = None,
    bins: int = DEFAULT_BINS,
    meta: dict | None = None,
    graph: SpanGraph | None = None,
) -> dict:
    """The run summary as a machine-readable dict (``repro-obs-report/2``).

    What ``python -m repro.obs report --json`` emits and what every
    renderer reads.  ``meta`` is the trace's ``trace.meta`` trailer,
    whose ``events_dropped`` count — a truncated capture — is surfaced
    rather than silently ignored; ``graph`` is ``build_spans`` of the
    same time-sorted events for a caller that already holds it.  Keys of
    per-node maps are stringified node ids (JSON objects).
    """
    events = sorted(events, key=lambda e: e.time)
    g = graph if graph is not None else build_spans(events)
    attribution = attribute(g)
    attribution["per_node"] = {str(n): pn for n, pn in attribution["per_node"].items()}
    blocking, staleness = global_read_summary(events)
    payload: dict = {
        "events": g.events,
        "t_end": g.t_end,
        "kinds": dict(sorted(Counter(e.kind for e in events).items())),
        "spans": len(g.spans),
        "partial": g.partial,
        "unresolved_waits": g.unresolved_waits,
        "timeline": {
            "bins": bins,
            "glyphs": {
                "compute": GLYPH_COMPUTE,
                "blocked": GLYPH_BLOCKED,
                "idle": GLYPH_IDLE,
            },
            "per_node": {str(n): s for n, s in timeline_strips(g, bins).items()},
        },
        "blocking": blocking,
        "staleness": staleness,
        "attribution": attribution,
        "critical_path": critical_path(g),
        "rollback": rollback_summary(events),
        "warp": warp_summary(events),
        "parallel": parallel_summary(events),
        "fabric": fabric_summary(events),
        "commits": commit_summary(events),
        "faults": fault_counts(events),
        "events_dropped": int(meta.get("events_dropped", 0)) if meta else 0,
    }
    if metrics is not None:
        payload["metrics"] = metrics
    return make_envelope(REPORT_SCHEMA, payload)


def _pairs(d: dict) -> str:
    return "  ".join(f"{k}:{v}" for k, v in d.items())


def _top(per_node: dict[str, dict], weight: str, fold, what: str = "nodes") -> list[tuple[str, dict]]:
    """Every row, or past :data:`NODE_ROWS` the heaviest by ``weight`` and the rest folded."""
    items = list(per_node.items())
    if len(items) > NODE_ROWS:
        items.sort(key=lambda item: item[1][weight], reverse=True)
        rest = [row for _, row in items[NODE_ROWS:]]
        items[NODE_ROWS:] = [(f"{len(rest)} other {what}", fold(rest))]
    return items


def timeline_nodes(rep: dict) -> list[str]:
    """The nodes a timeline draws, in node order: every one, or past
    :data:`NODE_ROWS` the ones with the most Global_Read blocking."""
    per_node = rep["attribution"]["per_node"]
    top = sorted(per_node, key=lambda n: per_node[n]["gr_blocking"], reverse=True)
    return [n for n in per_node if n in top[:NODE_ROWS]]


def _fold_warp(rows: list[dict]) -> dict:
    """Warp streams as one: summed samples, their weighted mean and the largest max."""
    n = sum(r["samples"] for r in rows)
    return {"samples": n, "mean": sum(r["mean"] * r["samples"] for r in rows) / n,
            "p50": "", "p90": "", "p99": "", "max": max(r["max"] for r in rows)}


def _fold_attribution(rows: list[dict]) -> dict[str, float]:
    """Attribution buckets summed over ``rows``, with their mean fraction."""
    out = {c: sum(r[c] for r in rows) for c in BUCKETS + ("idle",)}
    out["attributed_fraction"] = sum(r["attributed_fraction"] for r in rows) / len(rows)
    return out


def tables(rep: dict) -> list[tuple[str, list[str], list[list]]]:
    """The report's tabular sections as ``(title, headers, rows)``.

    Laid out once from a :func:`report_dict` summary, in display order;
    the text report and the HTML page both render exactly these, so an
    optional section (rollback/GVT, fabric, shard windows, faults,
    metrics) is in both or in neither.
    """
    out: list[tuple[str, list[str], list[list]]] = []
    gr_cols = ("calls", "hits", "blocks", "waited", "mean_wait", "max_wait")
    b = rep["blocking"]
    if b["per_node"]:
        out.append((
            "Blocking summary (Global_Read)",
            ["node", "gr calls", "hits", "blocks", "blocked time (s)",
             "mean wait (s)", "max wait (s)"],
            [[n] + [r[c] for c in gr_cols] for n, r in _top(b["per_node"], "waited", _gr_totals)]
            + [["all"] + [b["totals"][c] for c in gr_cols]],
        ))
    st = rep["staleness"]
    if st["hist"]:
        out.append((
            f"Global_Read staleness (iterations behind; mean {st['mean']:.4g} "
            f"over {st['reads']} reads)",
            ["staleness", "reads"],
            [[s, n] for s, n in st["hist"].items()],
        ))
    attr = rep["attribution"]
    attr_cols = BUCKETS + ("idle",)
    if attr["per_node"]:
        out.append((
            "Wall-time attribution per node (simulated s; worst node "
            f"{attr['min_attributed_fraction']:.1%} attributed)",
            ["node", "compute", "gr blocking", "network", "rollback", "idle",
             "attributed"],
            [
                [n] + [pn[c] for c in attr_cols] + [f"{pn['attributed_fraction']:.1%}"]
                for n, pn in _top(attr["per_node"], "gr_blocking", _fold_attribution)
            ]
            + [["all"] + [attr["totals"][c] for c in attr_cols] + [""]],
        ))
    cp = rep["critical_path"]
    if cp["segments"]:
        out.append((
            f"Critical path — {len(cp['segments'])} segments ending on node "
            f"{cp['start_node']}, coverage {cp['coverage']:.1%}",
            ["kind", "seconds", "share"],
            [
                [k, cp["by_kind"][k], f"{cp['by_kind'][k] / cp['t_end']:.1%}"]
                for k in ("compute", "gr-blocking", "network", "rollback")
                if k in cp["by_kind"]
            ],
        ))
    rb = rep["rollback"]
    if rb is not None:
        rows = [
            ["rollbacks", rb["rollbacks"]],
            ["corrections emitted", rb["corrections"]],
            ["cascade depth mean", rb["depth_mean"]],
            ["cascade depth p50", rb["depth_p50"]],
            ["cascade depth p90", rb["depth_p90"]],
            ["cascade depth max", rb["depth_max"]],
            ["depth histogram", _pairs(rb["depth_hist"])],
            ["per node", _pairs(rb["per_node"])],
        ]
        if set(rb["causes"]) - {"unknown"}:
            rows.append(["causes", _pairs(rb["causes"])])
        out.append(("Rollback summary (Time-Warp)", ["quantity", "value"], rows))
    if rep["commits"] is not None:
        c = rep["commits"]
        out.append((
            "GVT / commits",
            ["commit batches", "runs committed", "final GVT floor"],
            [[c["batches"], c["runs_committed"], c["final_floor"]]],
        ))
    warp = rep["warp"]
    if warp["all"] is not None:
        warp_cols = ("samples", "mean", "p50", "p90", "p99", "max")
        out.append((
            "Warp per (receiver <- sender) stream (1.0 = stable load)",
            ["stream", *warp_cols],
            [[name] + [s[c] for c in warp_cols]
             for name, s in _top(warp["streams"], "max", _fold_warp, "streams")]
            + [["all"] + [warp["all"][c] for c in warp_cols]],
        ))
    par = rep["parallel"]
    if par is not None:
        out.append((
            f"Parallel kernel (bounded-lag windows) — {par['shards']} shards, "
            f"{par['total_wall_wait_s']:.3g}s total barrier wait",
            ["shard", "windows", "last epoch", "waits", "wall wait (s)"],
            [
                [shard, r["windows"], r["max_epoch"], r["waits"], r["wall_wait_s"]]
                for shard, r in par["per_shard"].items()
            ],
        ))
    if rep["fabric"] is not None:
        out.append((
            "Switched fabric deliveries",
            ["fabric", "deliveries", "bcast", "bytes", "mean hops", "max hops",
             "link occupancy (hops/sim-s)"],
            [
                [name, r["deliveries"], r["broadcast"], r["bytes"],
                 r["mean_hops"], r["max_hops"], r["links_per_sim_s"]]
                for name, r in rep["fabric"].items()
            ],
        ))
    if rep["faults"]:
        out.append((
            "Injected faults",
            ["fault", "count"],
            [[k.removeprefix("fault."), v] for k, v in rep["faults"].items()],
        ))
    if "metrics" in rep:
        for kind in ("counters", "gauges"):
            out.append((
                f"Metrics — {kind}",
                [kind[:-1], "value"],
                [[k, v] for k, v in sorted(rep["metrics"].get(kind, {}).items())],
            ))
    return out


def render_report(
    events: list[ObsEvent],
    metrics: dict | None = None,
    bins: int = DEFAULT_BINS,
    meta: dict | None = None,
) -> str:
    """The full text report: header, timeline and every :func:`tables` section."""
    rep = report_dict(events, metrics=metrics, bins=bins, meta=meta)
    dropped = rep["events_dropped"]
    sections = [
        f"Trace report — {rep['events']} events over {rep['t_end']:.4g} simulated "
        "seconds"
        + (
            f" (TRUNCATED CAPTURE: {dropped} events dropped at the buffer cap)"
            if dropped
            else ""
        )
        + f"\n  events by kind: {_pairs(rep['kinds'])}"
        + f"\n  {rep['spans']} spans, {rep['unresolved_waits']} unresolved waits"
        + (", partial trace (begin/end halves missing)" if rep["partial"] else "")
    ]
    strips = rep["timeline"]["per_node"]
    if strips:
        shown = [n for n in timeline_nodes(rep) if n in strips]
        sections.append("\n".join(
            [
                f"Per-node timeline  [0 .. {rep['t_end']:.4g}s, {bins} bins; "
                f"{GLYPH_COMPUTE}=compute {GLYPH_BLOCKED}=blocked(Global_Read) "
                f"{GLYPH_IDLE}=idle/comm]"
            ]
            + [f"  node {node:>3} |{strips[node]}|" for node in shown]
            + ([f"  … {len(strips) - len(shown)} other nodes"] if len(shown) < len(strips) else [])
        ))
    else:
        sections.append("Per-node timeline: (no node activity events)")
    sections += [_table(headers, rows, title=title) for title, headers, rows in tables(rep)]
    return "\n\n".join(sections)
