"""The paper's premise as a race census: one island GA in three modes.

``python -m repro.experiments.race_report [--fid --demes --age
--generations --seed] [--json]`` runs the P-node island GA traced in
all three coherence modes and folds each trace into race classes
(:func:`~repro.analysis.races.classify_races`, DESIGN.md §7).  The
synchronous organisation must classify race-free, the fully
asynchronous one must show unbounded races, and `Global_Read(age)` must
show *only* tolerated races whose staleness respects the bound, with no
consistency violation anywhere.  It prints the classification table
(with ``--json``, the ``repro-analysis-report/1`` envelope of every
run's summary) and exits 0 when that shape holds, 1 when it does not
and 2 on an argument it cannot run.  The three runs are one runner cell
each, fanned out over ``REPRO_JOBS`` workers; the scale presets and
``--trace``/``--metrics`` do not apply, so the command takes neither.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from functools import partial
from typing import Any, Sequence

from repro.analysis.races import RacePair, classify_races
from repro.cluster.machine import MachineConfig
from repro.core.coherence import CoherenceMode
from repro.experiments.reporting import text_table
from repro.experiments.runner import run_cells
from repro.experiments.traced import traced_trial
from repro.ga.functions import TEST_FUNCTIONS, get_function
from repro.ga.island import IslandGaConfig, IslandGaResult, run_island_ga
from repro.util.envelope import make_envelope, render_envelope

#: schema tag of the ``--json`` document
REPORT_SCHEMA = "repro-analysis-report/1"


@dataclass
class ClassifiedRun:
    """One traced run: the GA result plus the race verdicts of its trace."""

    mode: CoherenceMode
    age: int
    result: IslandGaResult
    pairs: list[RacePair]
    #: :func:`~repro.analysis.races.classify_races`'s summary
    summary: dict[str, Any]

    @property
    def mode_label(self) -> str:
        """Short label for the run's coherence mode (e.g. ``gr10``)."""
        if self.mode is CoherenceMode.NON_STRICT:
            return f"Global_Read(age={self.age})"
        return self.mode.value

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly dict form of the classified run."""
        return {
            "mode": self.mode.value,
            "age": self.age,
            "total_time": self.result.total_time,
            "best_fitness": self.result.best_fitness,
            **self.summary,
        }


def classify_island_run(
    mode: CoherenceMode,
    fid: int = 1,
    n_demes: int = 4,
    age: int = 10,
    n_generations: int = 60,
    seed: int = 0,
) -> ClassifiedRun:
    """Run one island-GA config traced and classify its races."""
    cfg = IslandGaConfig(
        fn=get_function(fid),
        n_demes=n_demes,
        mode=mode,
        age=age if mode is CoherenceMode.NON_STRICT else 0,
        n_generations=n_generations,
        seed=seed,
        # the run's default machine, with the trace bus on
        machine=MachineConfig(n_nodes=n_demes, seed=seed, measure_warp=True, trace=True),
    )
    result, bus = traced_trial(run_island_ga, cfg)
    pairs, summary = classify_races(bus.events, dropped=bus.dropped)
    return ClassifiedRun(mode, cfg.age, result, pairs, summary)


def classify_three_modes(
    fid: int = 1,
    n_demes: int = 4,
    age: int = 10,
    n_generations: int = 60,
    seed: int = 0,
) -> list[ClassifiedRun]:
    """The sync/async/`Global_Read` comparison on one function: one
    runner cell per mode (``REPRO_JOBS`` workers)."""
    runs = run_cells(
        (mode, partial(classify_island_run, mode, fid, n_demes, age, n_generations, seed))
        for mode in (
            CoherenceMode.SYNCHRONOUS,
            CoherenceMode.ASYNCHRONOUS,
            CoherenceMode.NON_STRICT,
        )
    )
    return [run for (run,) in runs.values()]


def race_table(runs: list[ClassifiedRun]) -> str:
    """Fixed-width classification table over a list of runs."""
    keys = (
        "reads_checked", "clean_reads", "synchronized_pairs", "tolerated_races",
        "unbounded_races", "max_observed_staleness", "consistency_violations",
    )
    return text_table(
        ["mode", "reads", "clean", "sync'd", "tolerated", "unbounded",
         "max-stale", "violations"],
        [[run.mode_label, *(str(run.summary[k]) for k in keys)] for run in runs],
    )


def shape_problems(runs: list[ClassifiedRun], age: int) -> list[str]:
    """Where the three runs depart from the paper's expected shape."""
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
    if gr["max_observed_staleness"] > age:
        problems.append("Global_Read staleness exceeds the declared bound")
    for run in runs:
        if run.summary["consistency_violations"]:
            problems.append(f"{run.mode_label}: consistency violations")
    return problems


def _arg_error(args: argparse.Namespace) -> str | None:
    """Why these arguments cannot run, or None when they can."""
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


def main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.experiments.race_report``; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.race_report",
        description="Classify all three coherence modes and check the shape.",
    )
    parser.add_argument("--fid", type=int, default=1, help="test function id (default f1)")
    parser.add_argument("--demes", type=int, default=4, help="island count (default 4)")
    parser.add_argument("--age", type=int, default=10, help="Global_Read age bound")
    parser.add_argument("--generations", type=int, default=60)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    args = parser.parse_args(argv)
    error = _arg_error(args)
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
    problems = shape_problems(runs, args.age)
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


if __name__ == "__main__":
    sys.exit(main())
