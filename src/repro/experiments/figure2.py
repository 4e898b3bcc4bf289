"""Figure 2 — GA speedups on the unloaded network.

For each processor count the paper plots, per variant (synchronous,
asynchronous, Global_Read at ages 0/5/10/20/30): the speedup over the
corresponding serial program, for the best case (function 1) and the
average over the function set; plus the "best partially asynchronous vs
best competitor" bar (the last white bar of Figure 2).
"""

from __future__ import annotations

from repro.experiments.config import Scale, current_scale
from repro.experiments.reporting import text_table
from repro.experiments.speedup import speedup_rows


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
    labels = list(rows[0]["average"].keys())
    out = []
    for kind in ("best_case", "average"):
        title = (
            f"Figure 2 — GA speedups, unloaded network "
            f"({'best case (f%d)' % rows[0]['best_case_fid'] if kind == 'best_case' else 'average over functions'})"
        )
        out.append(
            text_table(
                ["P", *labels, "best GR vs best competitor"],
                [
                    [
                        r["P"],
                        *[r[kind][label] for label in labels],
                        (
                            f"{r['best_case_gr']} +{100 * r['best_case_gain']:.0f}%"
                            if kind == "best_case"
                            else f"{r['best_gr']} +{100 * r['gain_over_best_competitor']:.0f}%"
                        ),
                    ]
                    for r in rows
                ],
                title=title,
            )
        )
    return "\n\n".join(out)


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.experiments.figure2`` — run and print Figure 2."""
    from repro.experiments.cli import (
        experiment_parser,
        parse_experiment_args,
        write_observability,
    )

    parser = experiment_parser(
        "Figure 2 — GA speedups over the serial baseline on the unloaded "
        "network, per processor count and coherence variant.",
        faults=False,
    )
    args = parse_experiment_args(parser, argv)
    print(format_figure2(run_figure2(args.scale, jobs=args.jobs, shards=args.shards)))
    write_observability(
        args, app="ga", n_nodes=args.scale.processor_counts[-1]
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
