"""Solution-quality metrics (§4.3).

"The number of runs (out of 25) in which the global optimum is found and
the average fitness of the population at the end of each of the 25 runs
determines the solution quality."

The paper reports these in its technical-report companion [21]; this
runner computes them for any variant set, including the paper's
secondary observation that quality *improves* with more processors
(total population scales with P, §4.2.1).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.experiments.config import Scale, current_scale
from repro.experiments.reporting import text_table
from repro.experiments.runner import run_cells
from repro.experiments.speedup import GaVariant
from repro.ga.functions import get_function
from repro.ga.sga import run_serial_ga


def _quality_run(
    scale: Scale, fid: int, P: int, variant: GaVariant | None, seed: int
) -> float:
    """Final best fitness of one (P, variant, seed) replica."""
    fn = get_function(fid)
    if variant is None:  # the serial baseline
        s = run_serial_ga(
            fn, seed=seed, n_generations=scale.ga_generations,
            population_size=50 * P,
        )
        return s.best_fitness
    return variant.run(scale, fn, P, seed, scale.ga_generations).best_fitness


def run_quality(
    scale: Scale | None = None,
    fid: int | None = None,
    processor_counts: tuple[int, ...] | None = None,
    jobs: int | None = None,
) -> list[dict]:
    """Per (P, variant): optimum-found count and mean final best fitness.

    One cell per (P × variant × seed) run, keyed by (P, variant); the
    serial baseline is the variant None.
    """
    scale = scale or current_scale()
    fid = fid or scale.ga_functions[0]
    fn = get_function(fid)
    by_cell = run_cells(
        (
            ((P, variant), partial(_quality_run, scale, fid, P, variant, 1000 * r + fid))
            for P in processor_counts or scale.processor_counts
            for variant in [None, *GaVariant.standard_set(scale.ages)]
            for r in range(scale.ga_runs)
        ),
        jobs,
    )
    return [
        {
            "P": P,
            "variant": variant.label if variant else "serial",
            "optimum_found": sum(int(b <= fn.optimum_threshold) for b in bests),
            "runs": scale.ga_runs,
            "mean_final_best": float(np.mean(bests)),
        }
        for (P, variant), bests in by_cell.items()
    ]


def format_quality(rows: list[dict], fid: int) -> str:
    """Render Q1 solution-quality rows as a text table."""
    return text_table(
        ["P", "variant", "optimum found", "runs", "mean final best"],
        [
            [r["P"], r["variant"], r["optimum_found"], r["runs"], r["mean_final_best"]]
            for r in rows
        ],
        title=f"Q1 — GA solution quality (f{fid}), §4.3 metrics",
        float_fmt="{:.4g}",
    )
