"""Shared speedup machinery for the GA experiments.

Methodology (documented deviation from §5.1.1, see EXPERIMENTS.md): for
each (function, seed) we run the *corresponding sequential program* —
same total population N·P — for G generations and define the convergence
bar as the quality it reached at ``bar_fraction``·G; every variant's
completion time is its time-to-bar, and speedup is the serial
time-to-bar over it.  The paper instead ran the synchronous program a
fixed 1000 generations and required the asynchronous/controlled versions
to converge further; a common mid-trajectory bar measures the same
time-to-equal-quality quantity while being robust to the early quality
plateaus of island populations.

"Average performance" over functions follows the paper exactly: "the
ratio of the sum of the execution times for the serial program for all
the benchmarks to that for the parallel programs".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.machine import MachineConfig
from repro.cluster.node import NodeSpec
from repro.core.coherence import CoherenceMode
from repro.faults.plan import FaultPlan
from repro.experiments.config import Scale
from repro.experiments.runner import parallel_map
from repro.ga.functions import get_function
from repro.ga.island import IslandGaConfig, IslandGaResult, run_island_ga
from repro.ga.sga import run_serial_ga


@dataclass(frozen=True)
class GaVariant:
    """One bar of Figure 2/4: a coherence mode plus (for NON_STRICT) an age."""

    label: str
    mode: CoherenceMode
    age: int = 0

    @classmethod
    def standard_set(cls, ages: tuple[int, ...]) -> list["GaVariant"]:
        """The paper's variant sweep: sync, async, and Global_Read at each age."""
        out = [
            cls("sync", CoherenceMode.SYNCHRONOUS),
            cls("async", CoherenceMode.ASYNCHRONOUS),
        ]
        out += [cls(f"gr{a}", CoherenceMode.NON_STRICT, a) for a in ages]
        return out


VARIANTS = GaVariant.standard_set((0, 5, 10, 20, 30))


@dataclass
class GaTrial:
    """Serial-vs-variants measurements for one (function, seed, P, load)."""

    fid: int
    n_demes: int
    seed: int
    serial_time: float
    #: per-variant time-to-bar; None = did not converge within the cap
    times: dict[str, float | None]
    results: dict[str, IslandGaResult]


def machine_for(
    scale: Scale,
    P: int,
    seed: int,
    load_bps: float = 0.0,
    faults: FaultPlan | None = None,
) -> MachineConfig:
    """Machine config with the scale's load-skew model and optional loader."""
    rng = np.random.default_rng(seed)
    speeds = tuple(float(x) for x in rng.normal(1.0, scale.hetero_sigma, P))
    cfg = MachineConfig(
        n_nodes=P,
        seed=seed,
        node_spec=NodeSpec(jitter_sigma=scale.jitter_sigma),
        speed_factors=speeds,
        measure_warp=True,
        faults=faults,
    )
    return cfg.with_load(load_bps)


def run_ga_trial(
    scale: Scale,
    fid: int,
    P: int,
    seed: int,
    variants: list[GaVariant],
    load_bps: float = 0.0,
    faults: FaultPlan | None = None,
    shards: int = 1,
) -> GaTrial:
    """One seed's serial baseline + every variant on P demes.

    ``shards > 1`` runs each variant on the bounded-lag parallel kernel
    (:mod:`repro.sim.parallel`) — bit-identical results, wall-clock
    parallelism within the trial instead of across trials.
    """
    fn = get_function(fid)
    G = scale.ga_generations
    serial = run_serial_ga(fn, seed=seed, n_generations=G, population_size=50 * P)
    bar = float(serial.best_history[int(scale.bar_fraction * G)])
    serial_time = serial.time_to_target(bar)
    times: dict[str, float | None] = {}
    results: dict[str, IslandGaResult] = {}
    for variant in variants:
        cfg = IslandGaConfig(
            fn=fn,
            n_demes=P,
            mode=variant.mode,
            age=variant.age,
            n_generations=scale.ga_cap_factor * G,
            seed=seed,
            target=bar,
            machine=machine_for(scale, P, seed, load_bps, faults),
        )
        r = run_island_ga(cfg, shards=shards)
        times[variant.label] = r.completion_time
        results[variant.label] = r
    return GaTrial(
        fid=fid, n_demes=P, seed=seed, serial_time=serial_time,
        times=times, results=results,
    )


def speedups_over_trials(trials: list[GaTrial], labels: list[str]) -> dict[str, float]:
    """Ratio-of-sums speedups (the paper's averaging rule).

    A non-converged variant run is charged its full capped time, which
    both penalises it and keeps the ratio finite.
    """
    out: dict[str, float] = {}
    serial_total = sum(t.serial_time for t in trials)
    for label in labels:
        total = 0.0
        for t in trials:
            time = t.times[label]
            total += time if time is not None else t.results[label].total_time
        out[label] = serial_total / total if total > 0 else 0.0
    return out


def best_competitor_gain(speedups: dict[str, float]) -> tuple[str, float]:
    """Best Global_Read variant vs best of {serial, sync, async}.

    Returns ``(best_gr_label, gain)`` where gain is the fractional
    improvement (0.34 = "34% faster than the best competitor", the
    paper's headline statistic).  Serial enters the comparison with
    speedup 1.0 by definition.
    """
    gr = {k: v for k, v in speedups.items() if k.startswith("gr")}
    rivals = {k: v for k, v in speedups.items() if not k.startswith("gr")}
    rivals["serial"] = 1.0
    best_gr_label = max(gr, key=gr.__getitem__)
    best_rival = max(rivals.values())
    return best_gr_label, gr[best_gr_label] / best_rival - 1.0


def speedup_rows(
    scale: Scale,
    cells: list[tuple[dict, int, float]],
    jobs: int | None = None,
    faults: FaultPlan | None = None,
    shards: int = 1,
) -> list[dict]:
    """The Figure 2/4 sweep: one row per cell ``(row head, P, load_bps)``.

    Each row carries its head (the swept axis value) plus the per-variant
    speedups for the best-case function (the scale's first) and the
    all-function average, and the best-Global_Read-vs-best-competitor
    gain of each.  The (cell × function × seed) replicas are
    independent; they fan out across cores via
    :func:`~repro.experiments.runner.parallel_map` (``REPRO_JOBS``) and
    are merged in configuration-key order, so the rows are bit-identical
    to a serial run.
    """
    variants = GaVariant.standard_set(scale.ages)
    labels = [v.label for v in variants]
    keys = [
        (i, fid, r)
        for i in range(len(cells))
        for fid in scale.ga_functions
        for r in range(scale.ga_runs)
    ]
    trials = parallel_map(
        run_ga_trial,
        [
            (scale, fid, cells[i][1], 1000 * r + fid, variants, cells[i][2],
             faults, shards)
            for (i, fid, r) in keys
        ],
        jobs=jobs,
    )
    by_cell: dict[tuple[int, int], list[GaTrial]] = {}
    for (i, fid, _r), trial in zip(keys, trials):
        by_cell.setdefault((i, fid), []).append(trial)
    best_fid = scale.ga_functions[0]  # function 1 when present
    rows = []
    for i, (head, _P, _load) in enumerate(cells):
        best_case = speedups_over_trials(by_cell[(i, best_fid)], labels)
        average = speedups_over_trials(
            [t for fid in scale.ga_functions for t in by_cell[(i, fid)]], labels
        )
        best_case_label, best_case_gain = best_competitor_gain(best_case)
        best_label, gain = best_competitor_gain(average)
        rows.append(
            {
                **head,
                "best_case_fid": best_fid,
                "best_case": best_case,
                "average": average,
                "best_gr": best_label,
                "gain_over_best_competitor": gain,
                "best_case_gr": best_case_label,
                "best_case_gain": best_case_gain,
            }
        )
    return rows
