"""Figure 3 — Bayesian-network speedups on the unloaded network.

P = 2 (the paper's small networks "did not exhibit enough parallelism to
be run on larger configurations"); per network {A, AA, C, Hailfinder}
and per variant: speedup of the parallel sampler over the serial one,
plus the average row (ratio of summed serial times to summed parallel
times) and the best-Global_Read-vs-best-competitor gain.
"""

from __future__ import annotations

from functools import partial

from repro.bayes.logic_sampling import run_serial_logic_sampling
from repro.bayes.parallel import ParallelLsConfig, run_parallel_logic_sampling
from repro.experiments.cli import Driver
from repro.experiments.config import Scale, current_scale
from repro.experiments.runner import run_cells
from repro.experiments.speedup import GaVariant, best_competitor_gain, machine_for, speedup_table
from repro.experiments.table2 import NETWORK_NAMES, build_network, pick_query


def _figure3_cell(
    scale: Scale, net_name: str, r: int, variants: list[GaVariant], n_procs: int
) -> tuple[float, dict[str, float]]:
    """One (network × run) replica: serial time plus per-variant time.

    Rebuilds the network from its name (deterministic, cheap) so the
    cell is self-contained and picklable.
    """
    net = build_network(net_name)
    seed = 500 * r + 7
    query = pick_query(net, seed=0)
    serial = run_serial_logic_sampling(net, query=query, seed=seed)
    par: dict[str, float] = {}
    for v in variants:
        pr = run_parallel_logic_sampling(
            ParallelLsConfig(
                net=net,
                query=query,
                n_procs=n_procs,
                mode=v.mode,
                age=v.age,
                seed=seed,
                machine=machine_for(scale, n_procs, seed),
                max_iterations=scale.bn_max_iterations,
            )
        )
        # a non-converged run is charged the time it spent
        par[v.label] = (
            pr.completion_time
            if pr.completion_time is not None
            else serial.sim_time * 10.0
        )
    return serial.sim_time, par


def _row(network: str, speedups: dict[str, float]) -> dict:
    best_label, gain = best_competitor_gain(speedups)
    return {
        "network": network,
        "speedups": speedups,
        "best_gr": best_label,
        "gain_over_best_competitor": gain,
    }


def run_figure3(
    scale: Scale | None = None, n_procs: int = 2, jobs: int | None = None
) -> list[dict]:
    """One row per network plus the average row: per-variant speedups at ``n_procs``.

    One cell per (network × run), keyed by network; a row's speedup is
    the ratio of its summed serial times to its summed parallel times.
    """
    scale = scale or current_scale()
    variants = GaVariant.standard_set(scale.ages)
    labels = [v.label for v in variants]
    by_net = run_cells(
        (
            (name, partial(_figure3_cell, scale, name, r, variants, n_procs))
            for name in NETWORK_NAMES
            for r in range(scale.bn_runs)
        ),
        jobs,
    )
    rows = []
    totals = dict.fromkeys(labels, 0.0)
    serial_total = 0.0
    for net_name, runs in by_net.items():
        serial_sum = sum(serial for serial, _ in runs)
        serial_total += serial_sum
        speedups = {}
        for label in labels:
            total = sum(par[label] for _, par in runs)
            totals[label] += total
            speedups[label] = serial_sum / total if total else 0.0
        rows.append(_row(net_name, speedups))
    rows.append(_row("average", {k: serial_total / totals[k] for k in labels}))
    return rows


def format_figure3(rows: list[dict]) -> str:
    """Render Figure 3 rows as a text table."""
    return speedup_table(
        rows, "network", "network",
        "Figure 3 — Bayesian-network speedups, 2 processors, unloaded network",
        kind="speedups",
    )


main = Driver(
    "Figure 3 — Bayesian-network inference speedups over the serial "
    "sampler, 2 processors, unloaded network.",
    run_figure3,
    format_figure3,
    app="bayes",
    nodes=lambda scale: 2,
).main

if __name__ == "__main__":
    raise SystemExit(main())
