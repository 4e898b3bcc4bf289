"""``python -m repro.analysis`` — lint, race classification, coherence.

Subcommands and exit codes (CI-friendly throughout):

``lint [paths...] [--json] [--select RPR001,...] [--exclude FRAG]``
    0 = clean, 1 = findings, 2 = unreadable/unparsable input.

``report [--fid --demes --age --generations --seed] [--json]``
    Runs the island GA traced in all three coherence modes, folds each
    trace into race classes and prints the classification table (with
    ``--json``, every run's summary); exits 1 unless the paper's
    expected shape holds (sync race-free, async shows unbounded races,
    `Global_Read` shows only tolerated races within its bound, no
    consistency violation anywhere), 2 on an argument it cannot run.

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
from repro.analysis.report import classify_three_modes, race_table
from repro.ga.functions import TEST_FUNCTIONS
from repro.util.envelope import make_envelope, render_envelope, write_envelope

#: schema tag of the ``report --json`` document
REPORT_SCHEMA = "repro-analysis-report/1"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analysis and race classification for the repro codebase.",
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

    report = sub.add_parser(
        "report", help="classify all three coherence modes and check the shape"
    )
    report.add_argument("--fid", type=int, default=1, help="test function id (default f1)")
    report.add_argument("--demes", type=int, default=4, help="island count (default 4)")
    report.add_argument("--age", type=int, default=10, help="Global_Read age bound")
    report.add_argument("--generations", type=int, default=60)
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--json", action="store_true", help="machine-readable output")

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


def _report_arg_error(args: argparse.Namespace) -> str | None:
    """Why ``report`` cannot run these arguments, or None when it can."""
    fids = [fn.fid for fn in TEST_FUNCTIONS]
    if args.fid not in fids:
        return f"--fid names a Table 1 function, one of {fids[0]}..{fids[-1]} (got {args.fid})"
    if args.demes < 2:
        return f"--demes must be >= 2: one deme has no peer to race with (got {args.demes})"
    if args.age < 0:
        # refused up front, as satisfies_age_bound would refuse every read
        return f"--age is a staleness tolerance and must be >= 0 (got {args.age})"
    if args.generations < 1:
        return f"--generations must be >= 1 (got {args.generations})"
    return None


def _cmd_report(args: argparse.Namespace) -> int:
    error = _report_arg_error(args)
    if error is not None:
        print(f"error: {error}")
        return 2
    runs = classify_three_modes(
        fid=args.fid,
        n_demes=args.demes,
        age=args.age,
        n_generations=args.generations,
        seed=args.seed,
    )
    sync, async_, gr = (run.summary for run in runs)
    problems = []
    if sync["tolerated_races"] or sync["unbounded_races"]:
        problems.append("synchronous run is not race-free")
    if async_["unbounded_races"] == 0:
        problems.append("asynchronous run shows no unbounded race")
    if gr["unbounded_races"] > 0:
        problems.append("Global_Read run shows unbounded races")
    if gr["tolerated_races"] == 0:
        problems.append("Global_Read run shows no tolerated race")
    if gr["max_observed_staleness"] > args.age:
        problems.append("Global_Read staleness exceeds the declared bound")
    for run in runs:
        if run.summary["consistency_violations"]:
            problems.append(f"{run.mode_label}: consistency violations")
    if args.json:
        env = make_envelope(
            REPORT_SCHEMA,
            {"runs": [r.to_dict() for r in runs], "problems": problems},
        )
        print(render_envelope(env))
    else:
        print(race_table(runs))
        for p in problems:
            print(f"PROBLEM: {p}")
        if not problems:
            print(
                "shape OK: sync race-free; async has unbounded races; "
                f"Global_Read(age={args.age}) races all tolerated within bound"
            )
    return 1 if problems else 0


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
    if args.command == "coherence":
        return _cmd_coherence(args)
    return _cmd_report(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
