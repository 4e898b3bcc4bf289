"""Perf-trajectory analyzer over the ``BENCH_*.json`` series.

The ROADMAP's standing instruction is to *bend the bench curve*, yet
nothing ever read the curve: BENCH_2..n accumulated at the repo root
and regressions (or flatness) were invisible unless a human opened two
JSON files side by side.  This module turns the series into a judgment:

* a per-key **sparkline table** (``python -m repro.obs trend``) showing
  every numeric metric's whole history at a glance;
* a **pct-change check** of the newest point against the most recent
  previous measurement of each key, classified by a direction registry
  (``*_per_sec`` up is good, ``*wall_s`` down is good, unknown keys are
  informational only);
* a ``--check`` **exit-code mode** wired into CI as the ``trend-gate``
  job, so a >threshold regression fails the build the way a digest
  mismatch already does.

Noise discipline: CI runs on a 1-core box where sub-50 ms timings are
dominated by scheduler jitter (``table1.wall_s`` historically flaps
between 0.0 and 0.015), so comparisons where both sides are below
``min_magnitude`` are skipped rather than gated.  Only the *latest*
transition gates — historical regressions are visible in the sparkline
but were either accepted or already fixed; re-failing on them forever
would make the gate cry wolf.  And because a single anomalously *fast*
point would otherwise poison the baseline (every representative
successor would read as a 25% "regression"), a key only regresses when
the latest value is beyond threshold against **every** measurement in
the recent envelope — the last three — while the displayed pct change
stays vs the immediately previous point.

Bench points are the ``BENCH_*.json`` files at the repo root
(:func:`repro.bench.harness.load_trajectory`) followed by any extra
bench documents named on the command line (``trend BENCH_trend.json``:
the fresh point CI measures and gates against the committed history).
"""

from __future__ import annotations

import os
from typing import Any, Sequence

from repro.util.envelope import make_envelope, read_json

#: schema tag of the :func:`trend_report` envelope
TREND_SCHEMA = "repro-obs-trend/1"

#: default regression threshold (fraction of the previous value)
DEFAULT_THRESHOLD = 0.25

#: comparisons where both sides are below this are scheduler noise
DEFAULT_MIN_MAGNITUDE = 0.05

_SPARK = "▁▂▃▄▅▆▇█"

#: (suffix, direction) — first match wins; direction "down" means lower
#: is better (times, overheads), "up" means higher is better (rates)
_DIRECTIONS: tuple[tuple[str, str], ...] = (
    ("_per_sec", "up"),
    ("per_s", "up"),
    ("speedup", "up"),
    ("overhead_ratio", "down"),
    ("o1_ratio", "down"),
    ("wall_s", "down"),
    ("_us", "down"),
    ("_s", "down"),
)


def direction_of(key: str) -> str | None:
    """``"up"``, ``"down"``, or None (informational) for a metric key."""
    for suffix, direction in _DIRECTIONS:
        if key.endswith(suffix):
            return direction
    return None


def flatten_payload(payload: dict[str, Any]) -> dict[str, float]:
    """Numeric leaves of one bench payload as dotted keys.

    ``micro.*`` and ``experiments.<name>.*`` are the interesting
    namespaces; booleans and provenance (env, unix_time, schema) are
    excluded — the trajectory is about measurements, not metadata.
    """
    out: dict[str, float] = {}

    def walk(prefix: str, obj: Any) -> None:
        if isinstance(obj, bool):
            return
        if isinstance(obj, (int, float)):
            out[prefix] = float(obj)
        elif isinstance(obj, dict):
            for k, v in sorted(obj.items()):
                walk(f"{prefix}.{k}" if prefix else str(k), v)

    walk("micro", payload.get("micro", {}))
    walk("experiments", payload.get("experiments", {}))
    return out


def load_points(
    root: str = ".", extra: Sequence[str] = ()
) -> list[tuple[str, dict[str, float]]]:
    """The bench trajectory as ``[(label, flat metrics), ...]``, oldest
    first: root ``BENCH_<n>.json`` files, then the ``extra`` bench
    documents in the order given (labelled by file name)."""
    from repro.bench.harness import load_trajectory

    points = [
        (f"BENCH_{n}", flatten_payload(payload))
        for n, payload in load_trajectory(root)
    ]
    points += [
        (os.path.basename(path), flatten_payload(read_json(path))) for path in extra
    ]
    return points


def sparkline(values: list[float | None]) -> str:
    """Unicode mini-chart of a series; gaps render as spaces."""
    present = [v for v in values if v is not None]
    if not present:
        return ""
    lo, hi = min(present), max(present)
    span = hi - lo
    out = []
    for v in values:
        if v is None:
            out.append(" ")
        elif span <= 0:
            out.append(_SPARK[3])
        else:
            out.append(_SPARK[round((v - lo) / span * (len(_SPARK) - 1))])
    return "".join(out)


def analyze(
    points: list[tuple[str, dict[str, float]]],
    threshold: float = DEFAULT_THRESHOLD,
    min_magnitude: float = DEFAULT_MIN_MAGNITUDE,
) -> dict[str, Any]:
    """Per-key trajectory rows + the latest-transition verdicts.

    Each row: ``{key, direction, values, spark, last, prev, pct_change,
    verdict}`` where ``prev`` is the most recent measurement before the
    final point (series may have gaps — keys appear and disappear as
    the bench suite grows) and ``verdict`` is one of ``ok``,
    ``improved``, ``regressed``, ``info`` (no direction), ``noise``
    (below ``min_magnitude``) or ``new`` (no prior measurement).

    ``regressed`` requires the latest value to be beyond ``threshold``
    against *all* of the last three prior measurements, so one
    outlier-fast baseline point doesn't flag ordinary jitter;
    ``pct_change`` itself is always vs ``prev``.
    """
    keys: dict[str, None] = {}
    for _, metrics in points:
        for k in metrics:
            keys.setdefault(k)
    labels = [label for label, _ in points]
    rows = []
    regressions = []
    for key in sorted(keys):
        values = [metrics.get(key) for _, metrics in points]
        direction = direction_of(key)
        last = values[-1] if values else None
        prior = [v for v in values[:-1] if v is not None]
        prev = prior[-1] if prior else None
        pct = None
        if last is not None and prev not in (None, 0.0):
            pct = (last - prev) / abs(prev)
        if last is None or prev is None:
            verdict = "new"
        elif direction is None:
            verdict = "info"
        elif max(abs(last), abs(prev)) < min_magnitude:
            verdict = "noise"
        elif pct is None:
            verdict = "ok"
        else:
            def beyond(base: float) -> bool:
                p = (last - base) / abs(base)
                return p > threshold if direction == "down" else p < -threshold

            # regression must hold against the whole recent envelope
            # (last 3 measurements), not just one possibly-outlier point
            bases = [b for b in prior[-3:] if b != 0.0]
            worse = bool(bases) and all(beyond(b) for b in bases)
            better = pct < -threshold if direction == "down" else pct > threshold
            verdict = "regressed" if worse else ("improved" if better else "ok")
        row = {
            "key": key,
            "direction": direction,
            "values": values,
            "spark": sparkline(values),
            "last": last,
            "prev": prev,
            "pct_change": pct,
            "verdict": verdict,
        }
        rows.append(row)
        if verdict == "regressed":
            regressions.append(key)
    return {
        "labels": labels,
        "threshold": threshold,
        "min_magnitude": min_magnitude,
        "rows": rows,
        "regressions": regressions,
        "ok": not regressions,
    }


def trend_report(analysis: dict[str, Any]) -> dict[str, Any]:
    """Wrap an :func:`analyze` result in the ``repro-obs-trend/1``
    envelope."""
    return make_envelope(TREND_SCHEMA, analysis)


def render_trend(analysis: dict[str, Any], verbose: bool = False) -> str:
    """Text table of the trajectory.

    By default only gated rows (known direction, not noise) print;
    ``verbose`` includes informational and noisy keys too.
    """
    labels = analysis["labels"]
    lines = [
        f"Bench trajectory — {len(labels)} points "
        f"({labels[0]} → {labels[-1]}), "
        f"threshold ±{analysis['threshold']:.0%} on the latest transition"
        if labels
        else "Bench trajectory — no points"
    ]
    shown = 0
    for row in analysis["rows"]:
        if not verbose and row["verdict"] in ("info", "noise", "new"):
            continue
        shown += 1
        pct = row["pct_change"]
        pct_s = f"{pct:+8.1%}" if pct is not None else "       —"
        last = row["last"]
        last_s = f"{last:12.4g}" if last is not None else "           —"
        arrow = {"up": "↑good", "down": "↓good"}.get(row["direction"], "     ")
        mark = {
            "regressed": "REGRESSED",
            "improved": "improved",
            "ok": "",
            "noise": "(noise)",
            "info": "(info)",
            "new": "(new)",
        }[row["verdict"]]
        lines.append(
            f"  {row['spark']:>{max(8, len(labels))}}  {last_s} {pct_s}  "
            f"{arrow}  {row['key']}  {mark}".rstrip()
        )
    if shown == 0:
        lines.append("  (no gated keys; rerun with --verbose for all rows)")
    if analysis["regressions"]:
        lines.append("")
        lines.append(
            f"{len(analysis['regressions'])} regression(s) beyond "
            f"{analysis['threshold']:.0%}: " + ", ".join(analysis["regressions"])
        )
    else:
        lines.append("")
        lines.append("no regressions beyond threshold on the latest transition")
    return "\n".join(lines)
