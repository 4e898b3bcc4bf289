"""``python -m repro.analysis`` — the determinism lint and the coherence analyzer.

Subcommands and exit codes (CI-friendly throughout):

``lint [paths...] [--json] [--select RPR001,...] [--exclude FRAG]``
    0 = clean, 1 = findings, 2 = unreadable/unparsable input.

``coherence [paths...] [--json] [--traces PATH] [--out FILE]``
    Static whole-program DSM coherence analysis: discovers every
    access site, classifies each location's race tolerance, checks
    declared ``dsm_contract`` staleness contracts, and (with
    ``--traces``) cross-validates against run traces.  0 = clean,
    1 = findings, 2 = the analyzer could not do its job.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.lint import DEFAULT_EXCLUDES, format_findings, lint_paths
from repro.util.envelope import write_envelope


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analysis for the repro codebase.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser("lint", help="run the RPR0xx determinism lint")
    lint.add_argument("paths", nargs="+", help="files or directories to lint")
    lint.add_argument("--json", action="store_true", help="machine-readable output")
    lint.add_argument(
        "--select",
        default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    lint.add_argument(
        "--exclude",
        action="append",
        default=None,
        help=f"extra exclude fragment (defaults: {', '.join(DEFAULT_EXCLUDES)})",
    )

    coh = sub.add_parser(
        "coherence",
        help="static DSM access classification and contract checking",
    )
    coh.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    coh.add_argument("--json", action="store_true", help="machine-readable output")
    coh.add_argument(
        "--traces",
        action="append",
        default=None,
        help="trace (.jsonl, or a gzip .jsonl.gz with its rotated parts) "
        "or directory of traces for static-dynamic cross-validation "
        "(repeatable)",
    )
    coh.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="also write the JSON envelope to FILE",
    )
    return parser


def _cmd_lint(args: argparse.Namespace) -> int:
    select = args.select.split(",") if args.select else None
    if select is not None:
        from repro.analysis.rules import ALL_RULES

        known = {r.code for r in ALL_RULES}
        unknown = sorted(set(select) - known)
        if unknown:
            # a typo'd code must not silently disable the gate
            print(
                f"error: unknown rule code(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
            return 2
    excludes = list(DEFAULT_EXCLUDES) + (args.exclude or [])
    findings, errors = lint_paths(args.paths, select=select, excludes=excludes)
    out = format_findings(findings, errors, as_json=args.json)
    if out:
        print(out)
    if errors:
        return 2
    return 1 if findings else 0


def _cmd_coherence(args: argparse.Namespace) -> int:
    from repro.analysis.coherence import render_json, render_text, run_coherence

    report = run_coherence(args.paths, traces=args.traces)
    if args.out:
        write_envelope(args.out, report.to_envelope())
    print(render_json(report) if args.json else render_text(report))
    return report.exit_code


def main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.analysis`` entry point; returns the exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "lint":
        return _cmd_lint(args)
    return _cmd_coherence(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
