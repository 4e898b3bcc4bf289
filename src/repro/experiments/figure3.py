"""Figure 3 — Bayesian-network speedups on the unloaded network.

P = 2 (the paper's small networks "did not exhibit enough parallelism to
be run on larger configurations"); per network {A, AA, C, Hailfinder}
and per variant: speedup of the parallel sampler over the serial one,
plus the average row (ratio of summed serial times to summed parallel
times) and the best-Global_Read-vs-best-competitor gain.
"""

from __future__ import annotations

from repro.bayes.logic_sampling import run_serial_logic_sampling
from repro.bayes.parallel import ParallelLsConfig, run_parallel_logic_sampling
from repro.core.coherence import CoherenceMode
from repro.experiments.config import Scale, current_scale
from repro.experiments.reporting import text_table
from repro.experiments.runner import parallel_map
from repro.experiments.speedup import best_competitor_gain, machine_for
from repro.experiments.table2 import NETWORK_NAMES, build_network, pick_query


def _variants(scale: Scale) -> list[tuple[str, CoherenceMode, int]]:
    out = [
        ("sync", CoherenceMode.SYNCHRONOUS, 0),
        ("async", CoherenceMode.ASYNCHRONOUS, 0),
    ]
    out += [(f"gr{a}", CoherenceMode.NON_STRICT, a) for a in scale.ages]
    return out


def _figure3_cell(
    scale: Scale,
    net_name: str,
    r: int,
    variants: list[tuple[str, CoherenceMode, int]],
    n_procs: int,
) -> tuple[float, dict[str, float]]:
    """One (network × run) replica: serial time plus per-variant time.

    Rebuilds the network from its name (deterministic, cheap) so the
    replica is self-contained and picklable for the parallel runner.
    """
    net = build_network(net_name)
    seed = 500 * r + 7
    query = pick_query(net, seed=0)
    serial = run_serial_logic_sampling(net, query=query, seed=seed)
    par: dict[str, float] = {}
    for label, mode, age in variants:
        pr = run_parallel_logic_sampling(
            ParallelLsConfig(
                net=net,
                query=query,
                n_procs=n_procs,
                mode=mode,
                age=age,
                seed=seed,
                machine=machine_for(scale, n_procs, seed),
                max_iterations=scale.bn_max_iterations,
            )
        )
        # a non-converged run is charged the time it spent
        par[label] = (
            pr.completion_time
            if pr.completion_time is not None
            else serial.sim_time * 10.0
        )
    return serial.sim_time, par


def run_figure3(
    scale: Scale | None = None, n_procs: int = 2, jobs: int | None = None
) -> list[dict]:
    """One row per network plus the average row: per-variant speedups at ``n_procs``."""
    scale = scale or current_scale()
    variants = _variants(scale)
    keys = [(name, r) for name in NETWORK_NAMES for r in range(scale.bn_runs)]
    cells = parallel_map(
        _figure3_cell,
        [(scale, name, r, variants, n_procs) for (name, r) in keys],
        jobs=jobs,
    )
    by_net: dict[str, list[tuple[float, dict[str, float]]]] = {}
    for (name, _r), cell in zip(keys, cells):
        by_net.setdefault(name, []).append(cell)
    rows = []
    totals: dict[str, float] = {label: 0.0 for label, _, _ in variants}
    serial_total = 0.0
    for net_name in NETWORK_NAMES:
        serial_times = [c[0] for c in by_net[net_name]]
        par_times: dict[str, list[float]] = {
            label: [c[1][label] for c in by_net[net_name]] for label, _, _ in variants
        }
        serial_sum = sum(serial_times)
        serial_total += serial_sum
        speedups = {}
        for label, _, _ in variants:
            total = sum(par_times[label])
            totals[label] += total
            speedups[label] = serial_sum / total if total else 0.0
        best_label, gain = best_competitor_gain(speedups)
        rows.append(
            {
                "network": net_name,
                "speedups": speedups,
                "best_gr": best_label,
                "gain_over_best_competitor": gain,
            }
        )
    avg = {label: serial_total / totals[label] for label in totals}
    best_label, gain = best_competitor_gain(avg)
    rows.append(
        {
            "network": "average",
            "speedups": avg,
            "best_gr": best_label,
            "gain_over_best_competitor": gain,
        }
    )
    return rows


def format_figure3(rows: list[dict]) -> str:
    """Render Figure 3 rows as a text table."""
    labels = list(rows[0]["speedups"].keys())
    return text_table(
        ["network", *labels, "best GR vs best competitor"],
        [
            [
                r["network"],
                *[r["speedups"][label] for label in labels],
                f"{r['best_gr']} +{100 * r['gain_over_best_competitor']:.0f}%",
            ]
            for r in rows
        ],
        title="Figure 3 — Bayesian-network speedups, 2 processors, unloaded network",
    )


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.experiments.figure3`` — run and print Figure 3."""
    from repro.experiments.cli import (
        experiment_parser,
        parse_experiment_args,
        write_observability,
    )

    parser = experiment_parser(
        "Figure 3 — Bayesian-network inference speedups over the serial "
        "sampler, 2 processors, unloaded network.",
        faults=False,
        shards=False,
    )
    args = parse_experiment_args(parser, argv)
    print(format_figure3(run_figure3(args.scale, jobs=args.jobs)))
    write_observability(args, app="bayes", n_nodes=2)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
