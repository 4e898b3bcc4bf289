"""Shared command-line plumbing for the experiment runners.

Every runner module exposes ``python -m repro.experiments.<name>`` with
the same knobs:

``--scale``
    Run-size preset, overriding the ``REPRO_SCALE`` environment variable.
``--jobs``
    Worker processes for :func:`repro.experiments.runner.parallel_map`.
``--faults``
    A :meth:`repro.faults.plan.FaultPlan.parse` spec turning the run
    into a chaos experiment (GA-capable drivers only; see DESIGN.md §9).
``--trace PATH`` / ``--metrics PATH``
    Observability artifacts (DESIGN.md §10): after the experiment, run
    one representative traced trial matching the experiment's machine
    shape and write its JSONL event trace / metrics-snapshot JSON.
    Render the trace with ``python -m repro.obs report PATH``.  The
    trace file is the one observability artifact; host time is asked
    from outside the program (``python -m cProfile -m
    repro.experiments.<name>``, or ``perfbench/run.py --trace 1`` for
    the per-layer ledger — DESIGN.md §15).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from repro.experiments.config import Scale, current_scale
from repro.faults.plan import FaultPlan

_SCALES = {"smoke": Scale.smoke, "default": Scale.default, "full": Scale.full}


@dataclass(frozen=True)
class ExperimentArgs:
    """Resolved common options shared by every experiment driver."""

    scale: Scale
    jobs: int | None
    faults: FaultPlan | None
    trace: str | None
    metrics: str | None
    #: worker shards for the bounded-lag parallel kernel (per trial);
    #: 1 = serial kernel (repro.sim.parallel, DESIGN.md §13)
    shards: int = 1


def experiment_parser(
    description: str, faults: bool = True, shards: bool = True
) -> argparse.ArgumentParser:
    """Build the shared argument parser.

    ``faults=False`` omits the ``--faults`` knob for drivers whose run
    function takes no fault plan (table1/table2, figure2/figure3);
    ``shards=False`` omits ``--shards`` for drivers whose run function
    cannot shard (table1/table2/figure3 — the Bayes sampler runs on the
    serial kernel), so argparse rejects the flag instead of ignoring it.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default=None,
        help="run-size preset (default: the REPRO_SCALE environment variable)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the trial fan-out (default: auto)",
    )
    if faults:
        parser.add_argument(
            "--faults",
            default=None,
            metavar="SPEC",
            help=(
                "fault-injection spec, e.g. "
                "'drop=0.02,dup=0.01,reorder=0.05,seed=7,stop=2.0' "
                "(see repro.faults.plan.FaultPlan.parse)"
            ),
        )
    if shards:
        parser.add_argument(
            "--shards",
            type=int,
            default=1,
            metavar="N",
            help=(
                "run each simulated trial on the bounded-lag parallel kernel "
                "across N worker processes (bit-identical to serial; see "
                "docs/parallel-kernel.md). Orthogonal to --jobs, which fans "
                "out independent trials — prefer --jobs when there are many "
                "trials, --shards when one big trial dominates"
            ),
        )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help=(
            "write a structured JSONL event trace of one representative "
            "traced trial to PATH (render: python -m repro.obs report PATH)"
        ),
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="write the traced trial's metrics-snapshot JSON to PATH",
    )
    return parser


def parse_experiment_args(
    parser: argparse.ArgumentParser, argv: list[str] | None = None
) -> ExperimentArgs:
    """Resolve the shared options into an :class:`ExperimentArgs`."""
    args = parser.parse_args(argv)
    scale = _SCALES[args.scale]() if args.scale else current_scale()
    raw_faults = getattr(args, "faults", None)
    faults = FaultPlan.parse(raw_faults) if raw_faults else None
    if faults is not None and (faults.messages.drop > 0 or any(
        f.kind == "crash" for f in faults.node_faults
    )):
        # the GA migrant exchange has no retransmission layer: a lost
        # final update legitimately blocks its reader forever, which
        # surfaces as a DeadlockError (DESIGN.md §9). Warn, don't forbid
        # — loss plans are fine for drivers without blocking reads.
        print(
            "warning: lossy fault plan (drop/crash) — GA-based drivers may "
            "deadlock on a lost migrant update; prefer dup/delay/reorder or "
            "pause/slow node faults (see DESIGN.md §9)",
            file=sys.stderr,
        )
    shards = getattr(args, "shards", 1)
    if shards < 1:
        parser.error(f"--shards must be >= 1, got {shards}")
    return ExperimentArgs(
        scale=scale,
        jobs=args.jobs,
        faults=faults,
        trace=args.trace,
        metrics=args.metrics,
        shards=shards,
    )


def write_observability(
    args: ExperimentArgs,
    app: str,
    load_bps: float = 0.0,
    n_nodes: int = 4,
) -> None:
    """Honour ``--trace``/``--metrics``.

    Delegates to :func:`repro.obs.integration.trace_experiment` (lazy
    import: drivers that never pass the knobs pay nothing).
    """
    if not (args.trace or args.metrics):
        return
    from repro.obs.integration import trace_experiment

    trace_experiment(
        app,
        args.scale,
        args.trace,
        args.metrics,
        load_bps=load_bps,
        n_nodes=n_nodes,
        faults=args.faults,
    )
