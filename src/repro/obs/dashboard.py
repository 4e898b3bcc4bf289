"""Zero-dependency single-file HTML page of the run report.

``python -m repro.obs report trace.jsonl --html`` renders one trace
(plus an optional metrics snapshot) as a self-contained page — inline
SVG and CSS, no JavaScript, no external assets — so a run can be
inspected in a browser straight from a CI artifact.

It draws the one view the text report lacks: the per-node timeline of
:func:`repro.obs.causal.node_segments` tiles (compute / Global_Read
blocking / network / rollback) with the critical path outlined.  The
rest is the :func:`repro.obs.report.report_dict` summary: a header line
and every :func:`repro.obs.report.tables` section as a table card, the
numbers the text report prints (the attribution table is the
timeline's accessible twin).  Hues keep a fixed slot order, text stays
in ink tokens, and one ``light-dark()`` palette serves both colour-scheme
scopes (``prefers-color-scheme`` and a ``data-theme`` override).
"""

from __future__ import annotations

import math
from html import escape
from typing import Iterable

from repro.obs.bus import ObsEvent
from repro.obs.causal import SpanGraph, build_spans
from repro.obs.report import fmt, report_dict, tables

#: legend labels of the attribution buckets, in display order
_BUCKET_LABEL = {
    "compute": "compute",
    "gr_blocking": "Global_Read blocking",
    "network": "network / messaging",
    "rollback": "rollback",
}
#: tie-break between buckets holding equal time in one pixel column
_BUCKET_PRI = {"gr_blocking": 3, "rollback": 2, "compute": 1, "network": 0}

# timeline geometry (px): page width, label gutter, row and bar height
_W, _GUTTER, _ROW_H, _BAR_H = 960, 64, 26, 16
_PLOT_W = _W - _GUTTER - 12

_LEGEND = "<div class='legend'>" + "".join(
    f"<span class='key'><span class='swatch {cls}'></span>{label}</span>"
    for cls, label in [(f"c-{b}", label) for b, label in _BUCKET_LABEL.items()]
    + [("cp-swatch", "critical path")]
) + "</div>"


def _ticks(hi: float) -> list[float]:
    """Round-numbered axis ticks covering [0, hi], about six of them."""
    if hi <= 0:
        return [0.0]
    raw = hi / 6
    mag = 10 ** math.floor(math.log10(raw))
    step = next(mag * mult for mult in (1, 2, 2.5, 5, 10) if mag * mult >= raw)
    out, t = [], 0.0
    while t <= hi + 1e-12:
        out.append(round(t, 10))
        t += step
    return out


def _dominant_columns(
    segments: list[tuple[float, float, str]], t_end: float
) -> list[tuple[int, int, str]]:
    """Each pixel column's dominant bucket, run-length merged.

    A column shows the bucket holding the most time in it, ties going
    to the rarer, higher-priority state so short blocking bursts stay
    visible.  ``segments`` are :func:`node_segments` tiles, sorted and
    disjoint, so a segment shares only its first and last column with
    its neighbours: the columns between are wholly its own, and one
    sweep settles every column, summing time only in the shared ones.
    """
    runs: list[tuple[int, int, str]] = []
    if t_end <= 0:
        return runs
    scale = _PLOT_W / t_end
    # the open shared column: its time per bucket and its leading (time, pri, bucket)
    col, shared, top = -1, {}, ()

    def paint(c0: int, c1: int, bucket: str) -> None:
        if runs and runs[-1][2] == bucket and runs[-1][1] == c0 - 1:
            runs[-1] = (runs[-1][0], c1, bucket)
        else:
            runs.append((c0, c1, bucket))

    for t0, t1, bucket in segments:
        c0 = max(0, min(_PLOT_W - 1, int(t0 * scale)))
        c1 = max(0, min(_PLOT_W - 1, int(t1 * scale - 1e-9)))
        for c in (c0, c1) if c1 > c0 else (c0,) if c1 == c0 else ():
            lo, hi = max(t0, c / scale), min(t1, (c + 1) / scale)
            if top and c != col:
                paint(col, col, top[2])
                top = ()
            if c > c0 + 1:
                paint(c0 + 1, c - 1, bucket)
            if hi > lo:
                if not top:
                    col, shared = c, {}
                v = shared[bucket] = shared.get(bucket, 0.0) + (hi - lo)
                top = max(top, (v, _BUCKET_PRI[bucket], bucket))
    if top:
        paint(col, col, top[2])
    return runs


def _timeline_svg(g: SpanGraph, cp: dict) -> str:
    """Per-node timeline with the critical path overlaid."""
    nodes, t_end = g.nodes, g.t_end
    if not nodes or t_end <= 0:
        return "<p class='empty'>No node activity in trace.</p>"
    h = len(nodes) * _ROW_H + 34
    parts = [f"<svg viewBox='0 0 {_W} {h}' role='img' aria-label='Per-node activity timeline'>"]
    for tick in _ticks(t_end):
        x = _GUTTER + tick / t_end * _PLOT_W
        if x <= _W - 10:
            parts.append(
                f"<line class='grid' x1='{x:.1f}' y1='4' x2='{x:.1f}' y2='{h - 30}'/>"
                f"<text class='tick' x='{x:.1f}' y='{h - 16}' "
                f"text-anchor='middle'>{fmt(tick)}s</text>"
            )
    for i, node in enumerate(nodes):
        y = i * _ROW_H + 6
        parts.append(
            f"<text class='label' x='{_GUTTER - 8}' y='{y + _BAR_H - 4}' "
            f"text-anchor='end'>node {node}</text>"
        )
        for c0, c1, bucket in _dominant_columns(g.node_tiles[node], t_end):
            parts.append(
                f"<rect class='seg c-{bucket}' x='{_GUTTER + c0}' y='{y}' "
                f"width='{c1 - c0 + 1}' height='{_BAR_H}'>"
                f"<title>node {node} · {_BUCKET_LABEL[bucket]} · {c0 / _PLOT_W * t_end:.4g}"
                f"–{(c1 + 1) / _PLOT_W * t_end:.4g}s</title></rect>"
            )
    # critical-path overlay: contiguous same-node stretches, outlined
    merged: list[list] = []
    for seg in cp["segments"]:
        if merged and merged[-1][0] == seg["node"] and abs(merged[-1][2] - seg["t0"]) < 1e-9:
            merged[-1][2] = seg["t1"]
        else:
            merged.append([seg["node"], seg["t0"], seg["t1"]])
    row = {n: i for i, n in enumerate(nodes)}
    for node, t0, t1 in (m for m in merged if m[0] in row):
        parts.append(
            f"<rect class='cp' x='{_GUTTER + t0 / t_end * _PLOT_W:.1f}' "
            f"y='{row[node] * _ROW_H + 4}' width='{max(1.0, (t1 - t0) / t_end * _PLOT_W):.1f}' "
            f"height='{_BAR_H + 4}'><title>critical path · node {node} · "
            f"{fmt(t0)}–{fmt(t1)}s</title></rect>"
        )
    return "".join(parts) + "</svg>"


def _table_card(title: str, headers: list[str], rows: list[list]) -> str:
    """One :func:`repro.obs.report.tables` section as an HTML card."""
    body = "".join(  # a formatted number needs no escaping
        ("<tr class='total'><td>" if row[0] == "all" else "<tr><td>")
        + "</td><td>".join([escape(c) if isinstance(c, str) else fmt(c) for c in row])
        + "</td></tr>"
        for row in rows
    )
    head = "".join(f"<th>{escape(h)}</th>" for h in headers)
    return (
        f"<section class='card'><h2>{escape(title)}</h2><table><thead><tr>{head}"
        f"</tr></thead><tbody>{body}</tbody></table></section>"
    )


# each colour is light-dark(light step, dark step); the two dark scopes
# only switch the scheme that picks the step
_CSS = """
.viz-root { color-scheme: light; margin: 0; padding: 24px; font-size: 14px;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  --surface: light-dark(#fcfcfb, #1a1a19); --page: light-dark(#f9f9f7, #0d0d0d);
  --ink: light-dark(#0b0b0b, #ffffff); --ink-2: light-dark(#52514e, #c3c2b7);
  --muted: #898781; --grid: light-dark(#e1e0d9, #2c2c2a);
  --baseline: light-dark(#c3c2b7, #383835);
  --border: light-dark(rgba(11,11,11,0.10), rgba(255,255,255,0.10));
  background: var(--page); color: var(--ink); }
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root { color-scheme: dark; } }
:root[data-theme="dark"] .viz-root { color-scheme: dark; }
.c-compute { --c: light-dark(#2a78d6, #3987e5); }
.c-gr_blocking { --c: light-dark(#eb6834, #d95926); }
.c-network { --c: light-dark(#1baf7a, #199e70); }
.c-rollback { --c: light-dark(#eda100, #c98500); }
.wrap { max-width: 1060px; margin: 0 auto; }
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 0 0 10px; }
.sub { color: var(--ink-2); margin: 2px 0 0; font-size: 13px; }
.card { background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px; margin-top: 16px; }
svg { width: 100%; height: auto; display: block; }
.grid { stroke: var(--grid); stroke-width: 1; }
.tick { fill: var(--muted); font-size: 10px; }
.label { fill: var(--ink-2); font-size: 11px; }
.seg { fill: var(--c); }
.seg:hover { opacity: 0.82; }
.cp { fill: none; stroke: var(--ink); stroke-width: 1.25; }
.legend { display: flex; flex-wrap: wrap; gap: 14px; margin-top: 10px; }
.key { color: var(--ink-2); font-size: 12px; display: inline-flex;
  align-items: center; gap: 6px; }
.swatch { width: 12px; height: 12px; border-radius: 3px; background: var(--c); }
.cp-swatch { background: transparent; border: 1.5px solid var(--ink); }
table { border-collapse: collapse; width: 100%; font-size: 13px; }
th { text-align: left; color: var(--ink-2); font-weight: 500;
  border-bottom: 1px solid var(--baseline); padding: 4px 10px 4px 0; }
td { padding: 4px 10px 4px 0; border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums; }
tr.total td { border-bottom: none; font-weight: 600; }
.empty, footer { color: var(--muted); }
footer { font-size: 12px; margin-top: 18px; }
"""


def render_dashboard(
    events: Iterable[ObsEvent],
    metrics: dict | None = None,
    title: str = "repro run report",
    meta: dict | None = None,
) -> str:
    """Render one trace as a self-contained HTML page (a string).

    A table card appears exactly when the text report prints its section.
    """
    events = sorted(events, key=lambda e: e.time)
    g = build_spans(events)
    rep = report_dict(events, metrics=metrics, meta=meta, graph=g)
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
    return (
        "<!DOCTYPE html><html lang='en'><head><meta charset='utf-8'>"
        "<meta name='viewport' content='width=device-width, initial-scale=1'>"
        f"<title>{escape(title)}</title><style>{_CSS}</style></head>"
        f"<body class='viz-root'><div class='wrap'><header><h1>{escape(title)}</h1>"
        f"<p class='sub'>{escape(subtitle)}</p></header>\n"
        "<section class='card'><h2>Per-node timeline</h2>\n"
        f"{_timeline_svg(g, rep['critical_path'])}{_LEGEND}</section>\n{cards}\n"
        "<footer>rendered by repro.obs report --html · trace schema "
        f"docs/observability.md · summary {rep['schema']}</footer></div></body></html>"
    )
