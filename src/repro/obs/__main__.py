"""``python -m repro.obs`` — the one reader of run traces.

Subcommands
-----------
``report <trace.jsonl> [--metrics m.json] [--bins N] [--json | --html] [--title T] [--out PATH]``
    Summarise a trace produced by an experiment's ``--trace`` knob (or
    :meth:`repro.obs.bus.TraceBus.write_jsonl` directly) — what
    happened (per-node timeline, blocking/staleness, rollback, warp,
    fabric, shard windows, faults) and where the simulated time went
    (per-node attribution, critical path) — and render it as text, as
    the machine-readable ``repro-obs-report/2`` envelope (``--json``)
    or as a zero-dependency single-file HTML page (``--html``; default
    output is the trace path with an ``.html`` suffix).
``diff <A.jsonl> <B.jsonl> [--bins N] [--json] [--out PATH]``
    Align two runs by iteration and report where blocking, staleness,
    warp and rollback depth diverge.  All deltas are B − A.
``validate <trace.jsonl> [--strict]``
    Check a trace file against the documented event schema; exit 1 on
    violations (the CI gate for trace-producing jobs).  Accepts plain,
    gzipped and rotated traces.
``trend [BENCH.json ...] [--root DIR] [--check] [--threshold F] [--json]``
    Perf-trajectory analysis over ``BENCH_*.json`` under ``--root``
    followed by the bench documents named as positionals: per-key
    sparkline table and pct-change of the latest transition;
    ``--check`` exits 1 on a regression beyond the threshold (the CI
    trend-gate) and 2 when there are fewer than two points to compare.

Unreadable or malformed input files exit 2 with the path in the message.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.bus import read_jsonl
from repro.obs.dashboard import render_dashboard
from repro.obs.diff import DEFAULT_DIFF_BINS, diff_traces, render_diff
from repro.obs.report import DEFAULT_BINS, render_report, report_dict
from repro.obs.schema import validate_trace
from repro.util.envelope import read_json, render_envelope


def _read_events(path: str) -> list:
    return list(read_jsonl(path))


def _bins(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _write_out(text: str, out: str | None, what: str) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
        print(f"{what} -> {out}")
    else:
        print(text)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability reports and causal analysis of run traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="summarise a trace.jsonl (text, JSON or HTML)")
    rep.add_argument("trace", help="path to the JSONL trace file")
    rep.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="optional metrics-snapshot JSON to append to the report",
    )
    rep.add_argument(
        "--bins", type=_bins, default=DEFAULT_BINS,
        help=f"timeline strip width in bins (default {DEFAULT_BINS})",
    )
    mode = rep.add_mutually_exclusive_group()
    mode.add_argument(
        "--json", action="store_true",
        help="emit the repro-obs-report/2 JSON envelope instead of text",
    )
    mode.add_argument(
        "--html", action="store_true",
        help="write a single-file HTML page instead of text",
    )
    rep.add_argument(
        "--title", default=None, help="--html page title (default: trace filename)"
    )
    rep.add_argument(
        "--out", default=None, metavar="PATH",
        help=(
            "write the report to PATH instead of stdout (--html default: "
            "the trace path with an .html suffix)"
        ),
    )

    dif = sub.add_parser("diff", help="diff two traces (deltas are B - A)")
    dif.add_argument("trace_a", help="baseline trace (A)")
    dif.add_argument("trace_b", help="comparison trace (B)")
    dif.add_argument(
        "--bins", type=_bins, default=DEFAULT_DIFF_BINS,
        help=f"iteration buckets in the divergence table (default {DEFAULT_DIFF_BINS})",
    )
    dif.add_argument(
        "--json", action="store_true",
        help="emit the repro-obs-diff/1 JSON envelope instead of text",
    )
    dif.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the diff to PATH instead of stdout",
    )

    val = sub.add_parser(
        "validate", help="check a trace file against the event schema"
    )
    val.add_argument("trace", help="path to the JSONL trace file")
    val.add_argument(
        "--strict", action="store_true",
        help="treat unknown event kinds as errors, not warnings",
    )

    trd = sub.add_parser("trend", help="perf-trajectory analysis of BENCH_*.json")
    trd.add_argument(
        "points", nargs="*", metavar="BENCH.json",
        help="extra bench documents appended, in order, after --root's series",
    )
    trd.add_argument(
        "--root", default=".", metavar="DIR",
        help="directory holding BENCH_<n>.json files (default .)",
    )
    trd.add_argument(
        "--threshold", type=float, default=None, metavar="F",
        help="regression threshold as a fraction (default 0.25)",
    )
    trd.add_argument(
        "--min-magnitude", type=float, default=None, metavar="F",
        help="skip comparisons where both sides are below F (default 0.05)",
    )
    trd.add_argument(
        "--check", action="store_true",
        help=(
            "exit 1 if the latest transition regressed beyond the threshold, "
            "2 if there are fewer than two points"
        ),
    )
    trd.add_argument(
        "--json", action="store_true",
        help="emit the repro-obs-trend/1 JSON envelope instead of text",
    )
    trd.add_argument(
        "--verbose", action="store_true",
        help="include informational / noisy / new keys in the table",
    )
    trd.add_argument("--out", default=None, metavar="PATH")

    args = parser.parse_args(argv)

    try:
        if args.command == "report":
            meta: dict = {}
            events = list(read_jsonl(args.trace, meta))
            metrics = read_json(args.metrics) if args.metrics else None
            out = args.out
            if args.json:
                text = render_envelope(
                    report_dict(events, metrics=metrics, bins=args.bins, meta=meta)
                )
            elif args.html:
                text = render_dashboard(
                    events, metrics=metrics, title=args.title or args.trace, meta=meta
                )
                out = out or (
                    args.trace.removesuffix(".gz").removesuffix(".jsonl") + ".html"
                )
            else:
                text = render_report(events, metrics=metrics, bins=args.bins, meta=meta)
            _write_out(text, out, "report")
            return 0

        if args.command == "diff":
            d = diff_traces(
                _read_events(args.trace_a),
                _read_events(args.trace_b),
                bins=args.bins,
                label_a=args.trace_a,
                label_b=args.trace_b,
            )
            text = json.dumps(d, indent=2, sort_keys=True) if args.json else render_diff(d)
            _write_out(text, args.out, "diff")
            return 0

        if args.command == "validate":
            verdict = validate_trace(args.trace, strict=args.strict)
            for msg in verdict["warnings"]:
                print(f"warning: {msg}", file=sys.stderr)
            for msg in verdict["errors"]:
                print(f"error: {msg}", file=sys.stderr)
            status = "OK" if verdict["ok"] else "INVALID"
            print(
                f"{args.trace}: {status} — {verdict['events']} events, "
                f"{verdict['error_count']} errors, "
                f"{verdict['warning_count']} warnings"
            )
            return 0 if verdict["ok"] else 1

        if args.command == "trend":
            from repro.obs.trend import (
                DEFAULT_MIN_MAGNITUDE,
                DEFAULT_THRESHOLD,
                analyze,
                load_points,
                render_trend,
                trend_report,
            )

            points = load_points(args.root, extra=args.points)
            if args.check and len(points) < 2:
                print(
                    f"error: trend --check needs at least two bench points, found "
                    f"{len(points)} (BENCH_<n>.json under {args.root!r} plus "
                    f"{len(args.points)} named)",
                    file=sys.stderr,
                )
                return 2
            analysis = analyze(
                points,
                threshold=(
                    DEFAULT_THRESHOLD if args.threshold is None else args.threshold
                ),
                min_magnitude=(
                    DEFAULT_MIN_MAGNITUDE
                    if args.min_magnitude is None
                    else args.min_magnitude
                ),
            )
            if args.json:
                text = json.dumps(trend_report(analysis), indent=2, sort_keys=True)
            else:
                text = render_trend(analysis, verbose=args.verbose)
            _write_out(text, args.out, "trend")
            if args.check and not analysis["ok"]:
                return 1
            return 0
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2  # pragma: no cover - unreachable (subparser is required)


if __name__ == "__main__":
    raise SystemExit(main())
