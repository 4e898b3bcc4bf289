"""Table 2 — the four belief networks.

Builds A, AA, C and the synthetic Hailfinder, partitions each two ways
with the repository's partitioner, and measures (a) the structural
statistics, (b) the 2-way edge-cut, and (c) the uniprocessor inference
time under the paper's stopping rule — the complete Table 2 row set.
"""

from __future__ import annotations

from functools import partial

from repro.bayes.hailfinder import make_hailfinder
from repro.bayes.logic_sampling import run_serial_logic_sampling
from repro.bayes.network import BayesianNetwork
from repro.bayes.random_nets import make_table2_network
from repro.experiments.cli import Driver
from repro.experiments.reporting import text_table
from repro.experiments.runner import run_cells
from repro.partition.metrics import edge_cut
from repro.partition.multilevel import best_of

#: the paper's Table 2 values, for the side-by-side report
PAPER_TABLE2 = {
    "A": {"edge_cut": 24, "inference_time": 11.12},
    "AA": {"edge_cut": 30, "inference_time": 11.19},
    "C": {"edge_cut": 24, "inference_time": 11.81},
    "Hailfinder": {"edge_cut": 4, "inference_time": 3.15},
}

#: Table 2's row order
NETWORK_NAMES = ("A", "AA", "C", "Hailfinder")


def build_network(name: str, seed: int = 0) -> BayesianNetwork:
    """Deterministically (re)build one Table 2 network by name.

    Runner cells rebuild networks from (name, seed) instead of pickling
    them across the pool — same seed, same network.
    """
    if name == "Hailfinder":
        return make_hailfinder(seed=seed)
    return make_table2_network(name, seed=seed)


def pick_query(net: BayesianNetwork, seed: int = 0) -> int:
    """Deterministic query choice: the sink-most node with the widest
    posterior spread (inference on near-certain nodes is trivially fast
    and uninformative)."""
    marginals = net.prior_marginals(seed=seed)
    sinks = [v for v in net.nodes if not net.children(v)] or list(net.nodes)
    return max(sinks, key=lambda v: (1.0 - max(marginals[v]), v))


def _table2_row(name: str, seed: int) -> dict:
    """One network's complete Table 2 row (one cell of the runner)."""
    net = build_network(name, seed)
    skeleton = net.skeleton()
    parts = best_of(skeleton, 2, tries=4, seed=seed)
    cut = edge_cut(skeleton, parts)
    query = pick_query(net, seed)
    serial = run_serial_logic_sampling(net, query=query, seed=seed)
    paper = PAPER_TABLE2[net.name]
    return {
        "name": net.name,
        "nodes": net.n_nodes,
        "edges_per_node": net.edges_per_node,
        "values_per_node": net.max_values_per_node,
        "edge_cut": cut,
        "paper_edge_cut": paper["edge_cut"],
        "inference_time": serial.sim_time,
        "paper_inference_time": paper["inference_time"],
        "query": query,
        "runs": serial.n_runs,
        "converged": serial.converged,
    }


def run_table2(seed: int = 0, jobs: int | None = None) -> list[dict]:
    """One row per network: structure metrics, edge cut, serial inference time."""
    cells = [(name, partial(_table2_row, name, seed)) for name in NETWORK_NAMES]
    return [row for (row,) in run_cells(cells, jobs).values()]


def format_table2(rows: list[dict]) -> str:
    """Render Table 2 rows as a text table."""
    return text_table(
        [
            "network", "nodes", "edges/node", "values/node",
            "cut", "cut (paper)", "t_serial (s)", "t (paper)", "runs",
        ],
        [
            [
                r["name"], r["nodes"], r["edges_per_node"], r["values_per_node"],
                r["edge_cut"], r["paper_edge_cut"],
                r["inference_time"], r["paper_inference_time"], r["runs"],
            ]
            for r in rows
        ],
        title="Table 2 — four Bayesian belief networks (measured vs paper)",
    )


main = Driver(
    "Table 2 — the four Bayesian belief networks: structure metrics, "
    "partition edge cuts and serial inference times vs the paper.",
    run_table2,
    format_table2,
    app="bayes",
    nodes=lambda scale: 2,
).main

if __name__ == "__main__":
    raise SystemExit(main())
