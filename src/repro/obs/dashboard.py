"""Zero-dependency single-file HTML rendering of the run report.

``python -m repro.obs report trace.jsonl --html`` renders one trace
(plus an optional metrics snapshot) as a self-contained HTML page —
inline SVG, inline CSS, no JavaScript, no external assets — so a run
can be inspected in a browser straight from a CI artifact.

Every number on the page is read from the one
:func:`repro.obs.report.report_dict` summary; only the drawings need
more (the span graph for the timeline, the warp samples for the line).
Sections: stat tiles (completion time, events, blocked time, warp,
rollbacks), the per-node timeline (each node's window partitioned into
compute / Global_Read-blocking / network / rollback, with the critical
path overlaid as outlined intervals), the critical-path composition
bar, warp-over-time, the staleness histogram, and then the tables of
:func:`repro.obs.report.tables` — the same sections the text report
prints (the attribution table is the accessible twin of the timeline).

Chart conventions follow the repo's data-viz method: categorical hues
assigned in fixed slot order (compute blue, gr-blocking orange,
network aqua, rollback yellow — a validated adjacent-pair ordering in
both light and dark mode), text always in ink tokens (never series
colors), hairline gridlines, one axis per chart, a legend for
multi-series marks, and dark mode as selected palette steps behind
``prefers-color-scheme`` rather than an automatic inversion.
"""

from __future__ import annotations

import math
from html import escape
from typing import Iterable

from repro.obs.bus import ObsEvent
from repro.obs.causal import SpanGraph, build_spans, node_segments
from repro.obs.report import fmt, report_dict, tables, warp_streams

#: display order, labels and CSS classes of the attribution buckets
_BUCKET_ORDER = ("compute", "gr_blocking", "network", "rollback")
_BUCKET_LABEL = {
    "compute": "compute",
    "gr_blocking": "Global_Read blocking",
    "network": "network / messaging",
    "rollback": "rollback",
}
_BUCKET_PRI = {"gr_blocking": 3, "rollback": 2, "compute": 1, "network": 0}

# timeline geometry (px)
_W = 960
_GUTTER = 64
_PLOT_W = _W - _GUTTER - 12
_ROW_H = 26
_BAR_H = 16


def _esc(s: object) -> str:
    return escape(str(s), quote=True)


def _ticks(hi: float, n: int = 6) -> list[float]:
    """Round-numbered axis ticks covering [0, hi]."""
    if hi <= 0:
        return [0.0]
    raw = hi / n
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        if mag * mult >= raw:
            step = mag * mult
            break
    out = []
    t = 0.0
    while t <= hi + 1e-12:
        out.append(round(t, 10))
        t += step
    return out


def _dominant_columns(
    segments: list[tuple[float, float, str]], t_end: float
) -> list[tuple[int, int, str]]:
    """Collapse segments to per-pixel dominant buckets, run-length merged.

    Bounded output regardless of trace size: each pixel column shows
    the bucket holding the most time in it (ties to the rarer, higher-
    priority state so short blocking bursts stay visible).
    """
    if t_end <= 0 or not segments:
        return []
    cols: list[str | None] = [None] * _PLOT_W
    occupancy: list[dict[str, float]] = [{} for _ in range(_PLOT_W)]
    scale = _PLOT_W / t_end
    for t0, t1, bucket in segments:
        c0 = max(0, min(_PLOT_W - 1, int(t0 * scale)))
        c1 = max(0, min(_PLOT_W - 1, int(t1 * scale - 1e-9)))
        for c in range(c0, c1 + 1):
            lo = max(t0, c / scale)
            hi = min(t1, (c + 1) / scale)
            if hi > lo:
                occupancy[c][bucket] = occupancy[c].get(bucket, 0.0) + (hi - lo)
    for c, occ in enumerate(occupancy):
        if occ:
            cols[c] = max(occ, key=lambda b: (occ[b], _BUCKET_PRI[b]))
    runs: list[tuple[int, int, str]] = []
    for c, bucket in enumerate(cols):
        if bucket is None:
            continue
        if runs and runs[-1][2] == bucket and runs[-1][1] == c - 1:
            runs[-1] = (runs[-1][0], c, bucket)
        else:
            runs.append((c, c, bucket))
    return runs


def _timeline_svg(g: SpanGraph, cp: dict) -> str:
    """Per-node timeline with the critical path overlaid."""
    nodes = g.nodes
    t_end = g.t_end
    if not nodes or t_end <= 0:
        return "<p class='empty'>No node activity in trace.</p>"
    h = len(nodes) * _ROW_H + 34
    parts = [
        f"<svg viewBox='0 0 {_W} {h}' role='img' "
        f"aria-label='Per-node activity timeline'>"
    ]
    for tick in _ticks(t_end):
        x = _GUTTER + tick / t_end * _PLOT_W
        if x > _W - 10:
            continue
        parts.append(
            f"<line class='grid' x1='{x:.1f}' y1='4' x2='{x:.1f}' "
            f"y2='{h - 30}'/>"
            f"<text class='tick' x='{x:.1f}' y='{h - 16}' "
            f"text-anchor='middle'>{fmt(tick)}s</text>"
        )
    for i, node in enumerate(nodes):
        y = i * _ROW_H + 6
        parts.append(
            f"<text class='label' x='{_GUTTER - 8}' y='{y + _BAR_H - 4}' "
            f"text-anchor='end'>node {node}</text>"
        )
        segs = node_segments(
            g.node_window[node], [s for s in g.spans if s.node == node]
        )
        for c0, c1, bucket in _dominant_columns(segs, t_end):
            x0 = _GUTTER + c0
            w = c1 - c0 + 1
            lo = c0 / _PLOT_W * t_end
            hi = (c1 + 1) / _PLOT_W * t_end
            parts.append(
                f"<rect class='seg c-{bucket}' x='{x0}' y='{y}' "
                f"width='{w}' height='{_BAR_H}'>"
                f"<title>node {node} · {_esc(_BUCKET_LABEL[bucket])} · "
                f"{fmt(lo)}–{fmt(hi)}s</title></rect>"
            )
    # critical-path overlay: contiguous same-node stretches, outlined
    merged: list[tuple[int, float, float]] = []
    for seg in cp.get("segments", []):
        if merged and merged[-1][0] == seg["node"] and abs(merged[-1][2] - seg["t0"]) < 1e-9:
            merged[-1] = (merged[-1][0], merged[-1][1], seg["t1"])
        else:
            merged.append((seg["node"], seg["t0"], seg["t1"]))
    index = {n: i for i, n in enumerate(nodes)}
    for node, t0, t1 in merged:
        if node not in index:
            continue
        y = index[node] * _ROW_H + 6
        x0 = _GUTTER + t0 / t_end * _PLOT_W
        w = max(1.0, (t1 - t0) / t_end * _PLOT_W)
        parts.append(
            f"<rect class='cp' x='{x0:.1f}' y='{y - 2}' width='{w:.1f}' "
            f"height='{_BAR_H + 4}'>"
            f"<title>critical path · node {node} · {fmt(t0)}–{fmt(t1)}s"
            f"</title></rect>"
        )
    parts.append("</svg>")
    return "".join(parts)


def _legend() -> str:
    items = "".join(
        f"<span class='key'><span class='swatch c-{b}'></span>"
        f"{_esc(_BUCKET_LABEL[b])}</span>"
        for b in _BUCKET_ORDER
    )
    items += (
        "<span class='key'><span class='swatch cp-swatch'></span>"
        "critical path</span>"
    )
    return f"<div class='legend'>{items}</div>"


def _cp_bar(cp: dict) -> str:
    """Critical-path composition as one stacked horizontal bar."""
    by_kind = cp.get("by_kind", {})
    total = sum(by_kind.values())
    if total <= 0:
        return "<p class='empty'>No critical path (empty trace).</p>"
    kind_css = {
        "compute": "compute", "gr-blocking": "gr_blocking",
        "network": "network", "rollback": "rollback",
    }
    order = [k for k in ("compute", "gr-blocking", "network", "rollback") if k in by_kind]
    h = 46
    parts = [f"<svg viewBox='0 0 {_W} {h}' role='img' aria-label='Critical path composition'>"]
    x = 0.0
    for k in order:
        w = by_kind[k] / total * (_W - 4)
        if w <= 0:
            continue
        # 2px surface gap between stacked segments
        parts.append(
            f"<rect class='seg c-{kind_css[k]}' x='{x + 2:.1f}' y='8' "
            f"width='{max(0.5, w - 2):.1f}' height='22' rx='2'>"
            f"<title>{_esc(k)} · {fmt(by_kind[k])}s "
            f"({by_kind[k] / total * 100:.1f}%)</title></rect>"
        )
        x += w
    parts.append("</svg>")
    text = "  ·  ".join(
        f"{k}: {fmt(by_kind[k])}s ({by_kind[k] / total * 100:.1f}%)" for k in order
    )
    return "".join(parts) + f"<p class='sub'>{_esc(text)}</p>"


def _warp_svg(events: list[ObsEvent], t_end: float, bins: int = 120) -> str:
    """Warp over time: binned mean across all pvm streams, one line."""
    samples = sorted(
        (t, w) for series in warp_streams(events).values() for t, w in series
    )
    if not samples or t_end <= 0:
        return "<p class='empty'>No pvm deliveries in trace.</p>"
    sums = [0.0] * bins
    counts = [0] * bins
    for t, w in samples:
        b = min(bins - 1, int(t / t_end * bins))
        sums[b] += w
        counts[b] += 1
    pts = [
        (b, sums[b] / counts[b]) for b in range(bins) if counts[b] > 0
    ]
    y_max = max(1.2, max(v for _, v in pts) * 1.15)
    w_px, h_px, pad_l, pad_b = 460, 190, 40, 22
    plot_w, plot_h = w_px - pad_l - 8, h_px - pad_b - 8

    def xy(b: int, v: float) -> tuple[float, float]:
        return (
            pad_l + (b + 0.5) / bins * plot_w,
            8 + (1 - v / y_max) * plot_h,
        )

    parts = [f"<svg viewBox='0 0 {w_px} {h_px}' role='img' aria-label='Warp over time'>"]
    for tick in _ticks(y_max, 4):
        if tick > y_max:
            continue
        y = 8 + (1 - tick / y_max) * plot_h
        parts.append(
            f"<line class='grid' x1='{pad_l}' y1='{y:.1f}' x2='{w_px - 8}' y2='{y:.1f}'/>"
            f"<text class='tick' x='{pad_l - 6}' y='{y + 3:.1f}' text-anchor='end'>{fmt(tick)}</text>"
        )
    y1 = 8 + (1 - 1.0 / y_max) * plot_h
    parts.append(
        f"<line class='ref' x1='{pad_l}' y1='{y1:.1f}' x2='{w_px - 8}' y2='{y1:.1f}'/>"
        f"<text class='tick' x='{w_px - 10}' y='{y1 - 4:.1f}' text-anchor='end'>stable (1.0)</text>"
    )
    path = " ".join(
        f"{'M' if i == 0 else 'L'}{xy(b, v)[0]:.1f},{xy(b, v)[1]:.1f}"
        for i, (b, v) in enumerate(pts)
    )
    parts.append(f"<path class='line c-compute-stroke' d='{path}'/>")
    parts.append(
        f"<line class='axis' x1='{pad_l}' y1='{8 + plot_h}' x2='{w_px - 8}' y2='{8 + plot_h}'/>"
        f"<text class='tick' x='{pad_l}' y='{h_px - 6}'>0s</text>"
        f"<text class='tick' x='{w_px - 8}' y='{h_px - 6}' text-anchor='end'>{fmt(t_end)}s</text>"
    )
    parts.append("</svg>")
    return "".join(parts)


def _staleness_svg(hist: dict[str, int]) -> str:
    """Histogram of Global_Read staleness (returned-copy age lag)."""
    counts = {int(s): n for s, n in hist.items()}
    if not counts:
        return "<p class='empty'>No Global_Read events in trace.</p>"
    values = sorted(counts)
    n_max = max(counts.values())
    w_px, h_px, pad_l, pad_b = 460, 190, 40, 22
    plot_w, plot_h = w_px - pad_l - 8, h_px - pad_b - 8
    bar_w = min(24.0, plot_w / len(values) - 2)
    parts = [
        f"<svg viewBox='0 0 {w_px} {h_px}' role='img' "
        f"aria-label='Staleness histogram'>"
    ]
    for tick in _ticks(n_max, 4):
        if tick > n_max * 1.05 or tick != int(tick):
            continue
        y = 8 + (1 - tick / n_max) * plot_h
        parts.append(
            f"<line class='grid' x1='{pad_l}' y1='{y:.1f}' x2='{w_px - 8}' y2='{y:.1f}'/>"
            f"<text class='tick' x='{pad_l - 6}' y='{y + 3:.1f}' text-anchor='end'>{int(tick)}</text>"
        )
    for i, s in enumerate(values):
        x = pad_l + (i + 0.5) / len(values) * plot_w - bar_w / 2
        bh = counts[s] / n_max * plot_h
        parts.append(
            f"<rect class='seg c-compute' x='{x:.1f}' y='{8 + plot_h - bh:.1f}' "
            f"width='{bar_w:.1f}' height='{bh:.1f}' rx='2'>"
            f"<title>staleness {s} · {counts[s]} reads</title></rect>"
        )
        parts.append(
            f"<text class='tick' x='{x + bar_w / 2:.1f}' y='{h_px - 6}' "
            f"text-anchor='middle'>{s}</text>"
        )
    parts.append(
        f"<line class='axis' x1='{pad_l}' y1='{8 + plot_h}' x2='{w_px - 8}' y2='{8 + plot_h}'/>"
    )
    parts.append("</svg>")
    return "".join(parts)


def _table_card(title: str, headers: list[str], rows: list[list]) -> str:
    """One :func:`repro.obs.report.tables` section as an HTML card."""
    body = "".join(
        ("<tr class='total'>" if row[0] == "all" else "<tr>")
        + "".join(f"<td>{_esc(fmt(c))}</td>" for c in row)
        + "</tr>"
        for row in rows
    )
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    return (
        f"<section class='card'><h2>{_esc(title)}</h2><table><thead><tr>{head}"
        f"</tr></thead><tbody>{body}</tbody></table></section>"
    )


_CSS = """
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --s-compute: #2a78d6; --s-gr: #eb6834; --s-net: #1baf7a; --s-rb: #eda100;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --baseline: #383835;
    --border: rgba(255,255,255,0.10);
    --s-compute: #3987e5; --s-gr: #d95926; --s-net: #199e70; --s-rb: #c98500;
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --surface-1: #1a1a19; --page: #0d0d0d;
  --text-primary: #ffffff; --text-secondary: #c3c2b7; --muted: #898781;
  --grid: #2c2c2a; --baseline: #383835;
  --border: rgba(255,255,255,0.10);
  --s-compute: #3987e5; --s-gr: #d95926; --s-net: #199e70; --s-rb: #c98500;
}
.viz-root {
  background: var(--page); color: var(--text-primary);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  margin: 0; padding: 24px; font-size: 14px;
}
.wrap { max-width: 1060px; margin: 0 auto; }
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 0 0 10px; color: var(--text-primary); }
.sub { color: var(--text-secondary); margin: 2px 0 0; font-size: 13px; }
.card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px; margin-top: 16px;
}
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin-top: 16px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; min-width: 130px; flex: 1;
}
.tile .v { font-size: 24px; font-weight: 600; }
.tile .k { color: var(--text-secondary); font-size: 12px; margin-top: 2px; }
svg { width: 100%; height: auto; display: block; }
.grid { stroke: var(--grid); stroke-width: 1; }
.axis { stroke: var(--baseline); stroke-width: 1; }
.ref { stroke: var(--baseline); stroke-width: 1; stroke-dasharray: 4 3; }
.tick, .label { fill: var(--muted); font-size: 10px;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif; }
.label { fill: var(--text-secondary); font-size: 11px; }
.seg:hover { opacity: 0.82; }
.c-compute { fill: var(--s-compute); }
.c-gr_blocking { fill: var(--s-gr); }
.c-network { fill: var(--s-net); }
.c-rollback { fill: var(--s-rb); }
.c-compute-stroke { stroke: var(--s-compute); stroke-width: 2;
  fill: none; stroke-linejoin: round; }
.cp { fill: none; stroke: var(--text-primary); stroke-width: 1.25; }
.cp-swatch { background: transparent !important;
  border: 1.5px solid var(--text-primary); }
.legend { display: flex; flex-wrap: wrap; gap: 14px; margin-top: 10px; }
.key { color: var(--text-secondary); font-size: 12px;
  display: inline-flex; align-items: center; gap: 6px; }
.swatch { width: 12px; height: 12px; border-radius: 3px;
  display: inline-block; }
.swatch.c-compute { background: var(--s-compute); }
.swatch.c-gr_blocking { background: var(--s-gr); }
.swatch.c-network { background: var(--s-net); }
.swatch.c-rollback { background: var(--s-rb); }
.two-col { display: grid; grid-template-columns: 1fr 1fr; gap: 20px; }
@media (max-width: 800px) { .two-col { grid-template-columns: 1fr; } }
table { border-collapse: collapse; width: 100%; font-size: 13px; }
th { text-align: left; color: var(--text-secondary); font-weight: 500;
  border-bottom: 1px solid var(--baseline); padding: 4px 10px 4px 0; }
td { padding: 4px 10px 4px 0; border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums; }
tr.total td { border-bottom: none; font-weight: 600; }
.empty { color: var(--muted); }
footer { color: var(--muted); font-size: 12px; margin-top: 18px; }
"""


def render_dashboard(
    events: Iterable[ObsEvent],
    metrics: dict | None = None,
    title: str = "repro run report",
    meta: dict | None = None,
) -> str:
    """Render one trace as a self-contained HTML page (a string).

    Rollback/GVT, parallel-kernel window, switched-fabric, fault and
    metrics cards appear when the summary carries those sections —
    exactly when the text report prints them.
    """
    events = sorted(events, key=lambda e: e.time)
    g = build_spans(events)
    rep = report_dict(events, metrics=metrics, meta=meta, graph=g)
    cp = rep["critical_path"]
    tiles = [
        (f"{fmt(rep['t_end'])}s", "completion time"),
        (f"{rep['events']:,}", "trace events"),
        (f"{fmt(rep['attribution']['totals']['gr_blocking'])}s", "Global_Read blocking"),
        (fmt(rep["warp"]["all"]["mean"] if rep["warp"]["all"] else 0.0), "mean warp"),
        (f"{rep['rollback']['rollbacks'] if rep['rollback'] else 0:,}", "rollbacks"),
    ]
    tiles_html = "".join(
        f"<div class='tile'><div class='v'>{_esc(v)}</div>"
        f"<div class='k'>{_esc(k)}</div></div>"
        for v, k in tiles
    )
    subtitle = (
        f"{rep['events']:,} events · {rep['spans']:,} spans · "
        f"{rep['attribution']['min_attributed_fraction'] * 100:.1f}% of wall "
        "time attributed (worst node)"
    )
    if rep["partial"]:
        subtitle += " · partial trace (begin/end halves missing)"
    if rep["events_dropped"]:
        subtitle += f" · TRUNCATED CAPTURE: {rep['events_dropped']:,} events dropped"
    cards = "".join(_table_card(*section) for section in tables(rep))
    body = f"""
<div class='wrap'>
<header><h1>{_esc(title)}</h1><p class='sub'>{_esc(subtitle)}</p></header>
<section class='tiles'>{tiles_html}</section>
<section class='card'><h2>Per-node timeline</h2>
{_timeline_svg(g, cp)}{_legend()}</section>
<section class='card'><h2>Critical-path composition</h2>
{_cp_bar(cp)}</section>
<section class='card two-col'>
<div><h2>Warp over time (all pvm streams, binned mean)</h2>
{_warp_svg(events, g.t_end)}</div>
<div><h2>Global_Read staleness histogram</h2>
{_staleness_svg(rep['staleness']['hist'])}</div>
</section>
{cards}
<footer>rendered by repro.obs report --html · trace schema
 docs/observability.md · summary {rep['schema']}</footer>
</div>
"""
    return (
        "<!DOCTYPE html><html lang='en'><head><meta charset='utf-8'>"
        f"<meta name='viewport' content='width=device-width, initial-scale=1'>"
        f"<title>{_esc(title)}</title><style>{_CSS}</style></head>"
        f"<body class='viz-root'>{body}</body></html>"
    )
