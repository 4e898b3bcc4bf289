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

from repro.experiments.config import Scale, current_scale
from repro.experiments.reporting import text_table
from repro.experiments.speedup import speedup_rows
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
    labels = list(rows[0]["average"].keys())
    out = []
    for kind, label_key, gain_key in (
        ("best_case", "best_case_gr", "best_case_gain"),
        ("average", "best_gr", "gain_over_best_competitor"),
    ):
        out.append(
            text_table(
                ["load (Mbps)", *labels, "best GR vs best competitor"],
                [
                    [
                        r["load_mbps"],
                        *[r[kind][label] for label in labels],
                        f"{r[label_key]} +{100 * r[gain_key]:.0f}%",
                    ]
                    for r in rows
                ],
                title=f"Figure 4 — GA speedups, loaded network, 4 nodes ({kind})",
            )
        )
    return "\n\n".join(out)


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.experiments.figure4`` — run and print Figure 4."""
    from repro.experiments.cli import (
        experiment_parser,
        parse_experiment_args,
        write_observability,
    )

    parser = experiment_parser(
        "Figure 4 — GA speedups under background network load, optionally "
        "with seeded fault injection (--faults)."
    )
    args = parse_experiment_args(parser, argv)
    if args.faults is not None:
        print(f"fault plan: {args.faults.describe()}")
    print(
        format_figure4(
            run_figure4(
                args.scale, jobs=args.jobs, faults=args.faults, shards=args.shards
            )
        )
    )
    # the traced representative run uses the sweep's heaviest load — the
    # regime where blocked time and warp are most informative
    write_observability(
        args,
        app="ga",
        load_bps=args.scale.loads_bps[-1],
        n_nodes=FIGURE4_PROCS,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
