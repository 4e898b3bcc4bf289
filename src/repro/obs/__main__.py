"""``python -m repro.obs`` — the one reader of run traces.

Subcommands
-----------
``report <trace.jsonl> [--metrics m.json] [--json | --html] [--bins N] [--title T] [--out PATH]``
    Summarise a trace produced by an experiment's ``--trace`` knob (or
    :meth:`repro.obs.bus.TraceBus.write_jsonl` directly) — what
    happened (per-node timeline, blocking/staleness, rollback, warp,
    fabric, shard windows, faults) and where the simulated time went
    (per-node attribution, critical path) — and render it as text, as
    the machine-readable ``repro-obs-report/2`` envelope (``--json``)
    or as a zero-dependency single-file HTML page (``--html``; default
    output is the trace path with an ``.html`` suffix).  ``--title``
    names the HTML page and ``--bins`` sets the text/JSON timeline
    strips, so ``--title`` without ``--html`` and ``--bins`` with it
    are usage errors (exit 2).
``diff <A.jsonl> <B.jsonl> [--bins N] [--json] [--out PATH]``
    Align two runs by iteration and report where blocking, staleness,
    warp and rollback depth diverge.  All deltas are B − A.
``validate <trace.jsonl> [--strict]``
    Check a trace file against the documented event schema; exit 1 on
    violations (the CI gate for trace-producing jobs).  Accepts plain,
    gzipped and rotated traces.

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
        "--bins", type=_bins, default=None,
        help=f"text/JSON timeline strip width in bins (default {DEFAULT_BINS})",
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
        "--title", default=None, help="--html page title (default: the trace path)"
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

    args = parser.parse_args(argv)
    if args.command == "report":
        # a flag the chosen form would not honour is refused, not ignored
        if args.title is not None and not args.html:
            rep.error("argument --title: only the --html page has a title")
        if args.bins is not None and args.html:
            rep.error("argument --bins: the --html page draws no timeline strips")
        args.bins = args.bins or DEFAULT_BINS

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
                list(read_jsonl(args.trace_a)),
                list(read_jsonl(args.trace_b)),
                bins=args.bins,
                label_a=args.trace_a,
                label_b=args.trace_b,
            )
            text = json.dumps(d, indent=2, sort_keys=True) if args.json else render_diff(d)
            _write_out(text, args.out, "diff")
            return 0

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
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
