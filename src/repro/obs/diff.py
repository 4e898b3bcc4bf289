"""Cross-run trace diffing: align two traces and report divergence.

``python -m repro.obs diff A.jsonl B.jsonl`` is the regression-triage
primitive for the bench trajectory: run the same experiment at two
settings (age=0 vs age=20, fault-free vs a chaos plan, two commits) and
ask *where* blocking, warp and rollback depth diverge, not just whether
a scalar moved.

Alignment is by **iteration**, the one clock both runs share: simulated
seconds drift between settings by construction (that drift is usually
the thing being measured), but a GA generation or a Bayes run number
means the same work in both traces.  ``gr.hit``/``gr.unblock`` carry
``curr_iter``, ``rb.begin`` carries ``iter`` and ``dsm.write`` carries
``iter``, so per-iteration series need no extra stamps.  The common
iteration range is bucketed so short and long runs produce comparable
tables.

All deltas are **B − A** (second argument minus first): diffing an
age=0 trace against an age=20 trace yields a *negative* blocked-time
delta — the age-20 run blocks less, exactly the paper's Figure-4 claim.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.obs.bus import ObsEvent
from repro.obs.report import _table, report_dict

#: schema tag of the :func:`diff_traces` JSON envelope
DIFF_SCHEMA = "repro-obs-diff/1"

#: iteration buckets in the divergence table by default
DEFAULT_DIFF_BINS = 12

#: summary metrics diffed, in display order
SUMMARY_METRICS = (
    "t_end",
    "events",
    "gr.calls",
    "gr.hits",
    "gr.blocks",
    "gr.blocked_time",
    "gr.mean_staleness",
    "rb.rollbacks",
    "rb.corrections",
    "rb.depth_mean",
    "rb.depth_max",
    "warp.mean",
    "warp.p90",
    "warp.max",
    "net.pvm_frames",
    "faults",
)


def run_profile(events: Iterable[ObsEvent]) -> dict[str, Any]:
    """One run's alignment profile: summary scalars + iteration series.

    The summary scalars are read from the run's
    :func:`~repro.obs.report.report_dict`; the iteration series maps
    iteration number to blocked seconds, staleness observations and
    rollback counts (zeros where an iteration saw none); ``max_iter``
    bounds the aligned range.
    """
    events = list(events)
    rep = report_dict(events)
    pvm_frames = 0
    by_iter: dict[int, dict[str, float]] = {}

    def row(it: int) -> dict[str, float]:
        return by_iter.setdefault(
            it, {"blocked": 0.0, "staleness_sum": 0.0, "staleness_n": 0, "rollbacks": 0}
        )

    max_iter = 0
    for e in events:
        if e.kind == "net.deliver" and e.get("frame_kind") == "pvm":
            pvm_frames += 1
        elif e.kind in ("gr.hit", "gr.unblock"):
            it = int(e.get("curr_iter", 0))
            max_iter = max(max_iter, it)
            r = row(it)
            if "staleness" in e.keys:
                s = float(e.get("staleness"))
                r["staleness_sum"] += s
                r["staleness_n"] += 1
            if e.kind == "gr.unblock":
                r["blocked"] += float(e.get("waited", 0.0))
        elif e.kind == "rb.begin":
            it = int(e.get("iter", 0))
            max_iter = max(max_iter, it)
            row(it)["rollbacks"] += 1
        elif e.kind == "dsm.write":
            max_iter = max(max_iter, int(e.get("iter", 0)))

    gr = rep["blocking"]["totals"]
    rb = rep["rollback"] or {}
    warp = rep["warp"]["all"] or {}
    summary = {
        "t_end": rep["t_end"],
        "events": rep["events"],
        "gr.calls": gr["calls"],
        "gr.hits": gr["hits"],
        "gr.blocks": gr["blocks"],
        "gr.blocked_time": gr["waited"],
        "gr.mean_staleness": rep["staleness"]["mean"],
        "rb.rollbacks": rb.get("rollbacks", 0),
        "rb.corrections": rb.get("corrections", 0),
        "rb.depth_mean": rb.get("depth_mean", 0.0),
        "rb.depth_max": rb.get("depth_max", 0),
        "warp.mean": warp.get("mean", 0.0),
        "warp.p90": warp.get("p90", 0.0),
        "warp.max": warp.get("max", 0.0),
        "net.pvm_frames": pvm_frames,
        "faults": sum(rep["faults"].values()),
    }
    return {"summary": summary, "by_iter": by_iter, "max_iter": max_iter}


def _bucket_series(
    by_iter: dict[int, dict[str, float]], lo: int, hi: int, bins: int
) -> list[dict[str, float]]:
    """Aggregate an iteration series into ``bins`` buckets over [lo, hi]."""
    n = hi - lo + 1
    bins = max(1, min(bins, n))
    out = []
    for b in range(bins):
        b_lo = lo + (n * b) // bins
        b_hi = lo + (n * (b + 1)) // bins - 1
        blocked = stal_sum = 0.0
        stal_n = rollbacks = 0
        for it in range(b_lo, b_hi + 1):
            r = by_iter.get(it)
            if r is None:
                continue
            blocked += r["blocked"]
            stal_sum += r["staleness_sum"]
            stal_n += int(r["staleness_n"])
            rollbacks += int(r["rollbacks"])
        out.append(
            {
                "iters": [b_lo, b_hi],
                "blocked": blocked,
                "staleness": (stal_sum / stal_n) if stal_n else 0.0,
                "rollbacks": rollbacks,
            }
        )
    return out


def diff_traces(
    events_a: Iterable[ObsEvent],
    events_b: Iterable[ObsEvent],
    bins: int = DEFAULT_DIFF_BINS,
    label_a: str = "A",
    label_b: str = "B",
) -> dict[str, Any]:
    """Diff two traces; every delta is **B − A**.

    Returns the ``repro-obs-diff/1`` envelope: per-metric summary rows
    (``a``, ``b``, ``delta``), and per-iteration-bucket divergence of
    blocked time, staleness and rollbacks over the common iteration
    range.
    """
    pa = run_profile(events_a)
    pb = run_profile(events_b)
    summary = {
        m: {
            "a": pa["summary"][m],
            "b": pb["summary"][m],
            "delta": pb["summary"][m] - pa["summary"][m],
        }
        for m in SUMMARY_METRICS
    }
    common_max = min(pa["max_iter"], pb["max_iter"])
    buckets: list[dict[str, Any]] = []
    if common_max >= 1:
        ba = _bucket_series(pa["by_iter"], 1, common_max, bins)
        bb = _bucket_series(pb["by_iter"], 1, common_max, bins)
        for ra, rbk in zip(ba, bb):
            buckets.append(
                {
                    "iters": ra["iters"],
                    "blocked_a": ra["blocked"],
                    "blocked_b": rbk["blocked"],
                    "blocked_delta": rbk["blocked"] - ra["blocked"],
                    "staleness_a": ra["staleness"],
                    "staleness_b": rbk["staleness"],
                    "rollbacks_a": ra["rollbacks"],
                    "rollbacks_b": rbk["rollbacks"],
                    "rollbacks_delta": rbk["rollbacks"] - ra["rollbacks"],
                }
            )
    return {
        "schema": DIFF_SCHEMA,
        "labels": {"a": label_a, "b": label_b},
        "delta": {m: summary[m]["delta"] for m in SUMMARY_METRICS},
        "summary": summary,
        "common_max_iter": common_max,
        "iteration_buckets": buckets,
    }


def render_diff(d: dict[str, Any]) -> str:
    """Text rendering of a :func:`diff_traces` envelope."""
    la, lb = d["labels"]["a"], d["labels"]["b"]
    lines = [f"Trace diff — A: {la}  vs  B: {lb}  (deltas are B - A)"]
    rows = [
        [m, s["a"], s["b"], s["delta"]]
        for m, s in d["summary"].items()
        if s["a"] != 0 or s["b"] != 0
    ]
    lines.append(_table(["metric", "A", "B", "delta"], rows, title="Summary"))
    buckets = d["iteration_buckets"]
    if buckets:
        brows = [
            [
                f"{b['iters'][0]}-{b['iters'][1]}",
                b["blocked_a"], b["blocked_b"], b["blocked_delta"],
                b["staleness_a"], b["staleness_b"],
                b["rollbacks_delta"],
            ]
            for b in buckets
        ]
        lines.append(
            _table(
                ["iters", "blocked A (s)", "blocked B (s)", "Δ blocked",
                 "stale A", "stale B", "Δ rollbacks"],
                brows,
                title=f"Per-iteration divergence [1 .. {d['common_max_iter']}]",
            )
        )
        worst = max(buckets, key=lambda b: abs(b["blocked_delta"]))
        if worst["blocked_delta"] != 0:
            lines.append(
                "Largest blocking divergence at iterations "
                f"{worst['iters'][0]}-{worst['iters'][1]}: "
                f"{worst['blocked_delta']:+.4g}s"
            )
    return "\n\n".join(lines)
