"""Run traced island-GA configs and format race-classification tables.

The acceptance experiment for the classifier is the paper's own P-node
f1 island GA in all three coherence modes: the synchronous organisation
must classify race-free, the fully asynchronous one must show unbounded
races, and `Global_Read(age)` must show *only* tolerated races whose
staleness respects the bound.  :func:`classify_island_run` runs one
mode with the trace bus on and folds its trace
(:func:`~repro.analysis.races.classify_races`);
:func:`classify_three_modes` runs the comparison the paper's premise
rests on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any

from repro.analysis.races import RacePair, classify_races
from repro.cluster.machine import MachineConfig
from repro.core.coherence import CoherenceMode
from repro.experiments.reporting import text_table
from repro.experiments.runner import run_cells
from repro.ga.functions import get_function
from repro.ga.island import IslandGaConfig, IslandGaResult, run_island_ga


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
    holder: dict[str, Any] = {}
    result = run_island_ga(cfg, instrument=lambda dsm: holder.update(dsm=dsm))
    bus = holder["dsm"].vm.kernel.obs
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
