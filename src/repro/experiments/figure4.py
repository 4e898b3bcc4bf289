"""Figure 4 — GA speedups on the loaded network.

4-node configuration plus a dedicated loader node pair injecting 0.5, 1
or 2 Mbps of background traffic (§5.2, "due to node allocation policies,
we were restricted to studying only a 4-node configuration (plus 2 nodes
for the network loader program)").  Rows report, per offered load, the
per-variant speedups for the best-case function and the all-function
average, and the gain of the best Global_Read setting over the best
competitor — the paper's observation is that this gain *grows* with
load, reaching ~70 % at 2 Mbps for the best case.
"""

from __future__ import annotations

from repro.experiments.cli import Driver
from repro.experiments.config import Scale, current_scale
from repro.experiments.speedup import format_speedup_rows, speedup_rows
from repro.faults.plan import FaultPlan

FIGURE4_PROCS = 4


def run_figure4(
    scale: Scale | None = None,
    jobs: int | None = None,
    faults: FaultPlan | None = None,
    shards: int = 1,
) -> list[dict]:
    """One row per offered load: per-variant speedups on the loaded 4-node
    machine (:func:`~repro.experiments.speedup.speedup_rows`)."""
    scale = scale or current_scale()
    return speedup_rows(
        scale,
        [
            ({"load_mbps": load / 1e6}, FIGURE4_PROCS, load)
            for load in (0.0, *scale.loads_bps)
        ],
        jobs=jobs,
        faults=faults,
        shards=shards,
    )


def format_figure4(rows: list[dict]) -> str:
    """Render Figure 4 rows as the best-case and average text tables."""
    return format_speedup_rows(
        rows,
        "load (Mbps)",
        "load_mbps",
        tuple(
            f"Figure 4 — GA speedups, loaded network, 4 nodes ({kind})"
            for kind in ("best_case", "average")
        ),
    )


main = Driver(
    "Figure 4 — GA speedups under background network load, optionally "
    "with seeded fault injection (--faults).",
    run_figure4,
    format_figure4,
    nodes=lambda scale: FIGURE4_PROCS,
    # the traced run takes the sweep's heaviest load — the regime where
    # blocked time and warp are most informative
    loaded=True,
).main

if __name__ == "__main__":
    raise SystemExit(main())
