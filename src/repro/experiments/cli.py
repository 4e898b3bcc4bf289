"""The one ``main`` behind every ``python -m repro.experiments.<driver>``.

A driver module is a cell list over :func:`~repro.experiments.runner.
run_cells`, a reducer and a formatter; its command line is one
:class:`Driver` value, whose :meth:`~Driver.main` parses, resolves the
scale, runs, prints and honours ``--trace``/``--metrics`` the same way
for every driver::

    main = Driver(
        "Table 1 — regenerate and verify the eight-function GA test bed.",
        run_table1,
        format_table1,
    ).main

Every driver takes ``--scale`` (overriding ``REPRO_SCALE``), ``--jobs N``
and ``--trace``/``--metrics`` (DESIGN.md §10: one representative traced
trial matching the experiment's machine shape; render the trace with
``python -m repro.obs report PATH``).  ``--faults`` (DESIGN.md §9) and
``--shards`` (DESIGN.md §13) appear where the run function takes them.
``--jobs`` is parsed exactly as ``REPRO_JOBS`` is, for the drivers and
``python -m repro.bench`` alike: ``0`` or ``auto`` is one worker per
CPU, a negative value is refused, and unset leaves the count to
``REPRO_JOBS`` (unset too → serial).  Host time is asked from outside
the program (``python -m cProfile``, or ``perfbench/run.py --trace 1``
for the per-layer ledger — DESIGN.md §15).
"""

from __future__ import annotations

import argparse
import inspect
import sys
from dataclasses import dataclass
from typing import Any, Callable

from repro.experiments.config import SCALES, Scale, current_scale
from repro.experiments.runner import parse_jobs
from repro.faults.plan import FaultPlan

#: the parsed options a driver's run function may name as parameters
_PASSED = ("scale", "jobs", "faults", "shards", "args")


class UsageError(Exception):
    """A flag combination a driver refuses; :meth:`Driver.main` exits 2."""


def add_jobs_option(parser: argparse.ArgumentParser) -> None:
    """Add the shared ``--jobs`` flag (parsed by :func:`parse_jobs`)."""
    parser.add_argument(
        "--jobs",
        type=parse_jobs,
        metavar="N",
        help=(
            "worker processes for the cell fan-out; 0 or 'auto' = one per "
            "CPU (default: the REPRO_JOBS environment variable, else 1)"
        ),
    )


def _fault_plan(spec: str) -> FaultPlan | None:
    """``--faults`` parser: a refused spec is a usage error naming its key."""
    try:
        return FaultPlan.parse(spec) if spec else None
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def experiment_parser(
    description: str, faults: bool = True, shards: bool = True
) -> argparse.ArgumentParser:
    """Build the shared argument parser.

    ``faults=False`` / ``shards=False`` omit ``--faults`` / ``--shards``
    for drivers whose run function takes no fault plan or cannot shard,
    so argparse rejects the flag instead of ignoring it.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.set_defaults(faults=None, shards=1)
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        help="run-size preset (default: the REPRO_SCALE environment variable)",
    )
    add_jobs_option(parser)
    if faults:
        parser.add_argument(
            "--faults",
            type=_fault_plan,
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
        metavar="PATH",
        help=(
            "write a structured JSONL event trace of one representative "
            "traced trial to PATH (render: python -m repro.obs report PATH)"
        ),
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        help="write the traced trial's metrics-snapshot JSON to PATH",
    )
    return parser


def parse_experiment_args(
    parser: argparse.ArgumentParser, argv: list[str] | None = None
) -> argparse.Namespace:
    """Parse ``argv``, resolving ``scale`` to a :class:`Scale` and
    ``faults`` to a :class:`FaultPlan` (or None)."""
    args = parser.parse_args(argv)
    args.scale = SCALES[args.scale]() if args.scale else current_scale()
    if args.faults is not None and (args.faults.messages.drop > 0 or any(
        f.kind == "crash" for f in args.faults.node_faults
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
    if args.shards < 1:
        parser.error(f"--shards must be >= 1, got {args.shards}")
    return args


@dataclass(frozen=True)
class Driver:
    """What one ``python -m repro.experiments.<name>`` runs and prints.

    The flags follow ``run``'s parameters: ``--faults`` and ``--shards``
    exist only when it takes ``faults`` / ``shards``, and it is passed
    each of ``scale``, ``jobs``, ``faults``, ``shards`` and ``args`` (the
    whole parsed namespace) that it names.
    """

    description: str
    run: Callable[..., Any]
    #: renders ``run``'s result as the text to print
    format: Callable[[Any], str] = str
    #: application of the ``--trace``/``--metrics`` representative run
    #: ("ga" / "bayes"); None when ``run`` handles those flags itself
    app: str | None = "ga"
    #: that run's node count at a given scale
    nodes: Callable[[Scale], int] = lambda scale: 4
    #: that run carries the sweep's heaviest offered load
    loaded: bool = False
    #: adds the driver's own flags to the shared parser
    flags: Callable[[argparse.ArgumentParser], None] | None = None

    def main(self, argv: list[str] | None = None) -> int:
        """Parse ``argv``, run, print, and write ``--trace``/``--metrics``."""
        takes = inspect.signature(self.run).parameters
        parser = experiment_parser(
            self.description, faults="faults" in takes, shards="shards" in takes
        )
        if self.flags is not None:
            self.flags(parser)
        args = parse_experiment_args(parser, argv)
        passed = {**vars(args), "args": args}
        if args.faults is not None:
            print(f"fault plan: {args.faults.describe()}")
        try:
            result = self.run(**{k: passed[k] for k in takes if k in _PASSED})
        except UsageError as exc:
            parser.error(str(exc))
        print(self.format(result))
        if self.app is not None and (args.trace or args.metrics):
            # lazy import: drivers that never pass the knobs pay nothing
            from repro.experiments.traced import write_traced_trial

            write_traced_trial(
                self.app,
                args.scale,
                args.trace,
                args.metrics,
                load_bps=args.scale.loads_bps[-1] if self.loaded else 0.0,
                n_nodes=self.nodes(args.scale),
                faults=args.faults,
            )
        return 0
