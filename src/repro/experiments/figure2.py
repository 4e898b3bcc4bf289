"""Figure 2 — GA speedups on the unloaded network.

For each processor count the paper plots, per variant (synchronous,
asynchronous, Global_Read at ages 0/5/10/20/30): the speedup over the
corresponding serial program, for the best case (function 1) and the
average over the function set; plus the "best partially asynchronous vs
best competitor" bar (the last white bar of Figure 2).
"""

from __future__ import annotations

from repro.experiments.cli import Driver
from repro.experiments.config import Scale, current_scale
from repro.experiments.speedup import format_speedup_rows, speedup_rows


def run_figure2(
    scale: Scale | None = None, jobs: int | None = None, shards: int = 1
) -> list[dict]:
    """One row per processor count: per-variant speedups for f1 and the
    all-function average, plus the best-vs-competitor gain
    (:func:`~repro.experiments.speedup.speedup_rows`)."""
    scale = scale or current_scale()
    return speedup_rows(
        scale,
        [({"P": P}, P, 0.0) for P in scale.processor_counts],
        jobs=jobs,
        shards=shards,
    )


def format_figure2(rows: list[dict]) -> str:
    """Render Figure 2 rows as the best-case and average text tables."""
    if not rows:
        return "Figure 2: no rows"
    title = "Figure 2 — GA speedups, unloaded network"
    return format_speedup_rows(
        rows,
        "P",
        "P",
        (
            f"{title} (best case (f{rows[0]['best_case_fid']}))",
            f"{title} (average over functions)",
        ),
    )


main = Driver(
    "Figure 2 — GA speedups over the serial baseline on the unloaded "
    "network, per processor count and coherence variant.",
    run_figure2,
    format_figure2,
    nodes=lambda scale: scale.processor_counts[-1],
).main

if __name__ == "__main__":
    raise SystemExit(main())
