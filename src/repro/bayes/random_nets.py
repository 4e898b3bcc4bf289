"""Random belief-network generation (networks A, AA and C of Table 2).

§4.2.2: "The first three networks—A, AA, and C—are randomly generated,
i.e., a completely interconnected graph of a given number of nodes was
first built and then edges were removed randomly until it had a required
number of edges."

We generate the same object directly: choose a random topological order,
then draw the required number of edges from the ordered pairs.
:data:`LOCALITY` biases edges toward nearby positions in the order —
random inference networks are locally clustered, and locality is what
makes the paper's 2-way edge-cuts (24/30/24 on ~119/130/108 edges)
achievable; a fully uniform edge distribution would cut nearly half the
edges.  CPT rows are Dirichlet-distributed with concentration
:data:`DIRICHLET_ALPHA`.
"""

from __future__ import annotations

import numpy as np

from repro.bayes.network import BayesianNetwork, BayesNode

#: Table 2's structural parameters for the three random networks
TABLE2_RANDOM = {
    "A": {"n_nodes": 54, "edges_per_node": 2.2, "n_values": 2},
    "AA": {"n_nodes": 54, "edges_per_node": 2.4, "n_values": 2},
    "C": {"n_nodes": 54, "edges_per_node": 2.0, "n_values": 2},
}

#: mean of the geometric-ish distance between an edge's endpoints in the
#: topological order; small values cluster edges locally (smaller
#: partition cuts)
LOCALITY = 6.0
#: CPT rows ~ Dirichlet(alpha, ...); alpha = 1 is uniform on the simplex
DIRICHLET_ALPHA = 1.0
#: in-degree cap, keeping CPTs tractable (real diagnostic networks are
#: sparse in parents)
MAX_PARENTS = 4


def make_random_network(
    n_nodes: int,
    n_edges: int,
    n_values: int = 2,
    seed: int = 0,
    name: str = "random",
) -> BayesianNetwork:
    """Generate a random DAG belief network (edge locality
    :data:`LOCALITY`, at most :data:`MAX_PARENTS` parents a node, CPT
    rows ~ Dirichlet(:data:`DIRICHLET_ALPHA`))."""
    max_edges = n_nodes * (n_nodes - 1) // 2
    if not 0 <= n_edges <= max_edges:
        raise ValueError(f"n_edges must be in [0, {max_edges}]")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n_nodes)

    parents: dict[int, list[int]] = {int(v): [] for v in range(n_nodes)}
    edges: set[tuple[int, int]] = set()
    attempts = 0
    while len(edges) < n_edges and attempts < 200 * n_edges:
        attempts += 1
        child_pos = int(rng.integers(1, n_nodes))
        gap = 1 + int(rng.geometric(min(1.0, 1.0 / LOCALITY)))
        parent_pos = child_pos - gap
        if parent_pos < 0:
            continue
        u = int(order[parent_pos])
        v = int(order[child_pos])
        if (u, v) in edges or len(parents[v]) >= MAX_PARENTS:
            continue
        edges.add((u, v))
        parents[v].append(u)
    if len(edges) < n_edges:
        raise RuntimeError(
            f"could not place {n_edges} edges under MAX_PARENTS={MAX_PARENTS}"
        )

    nodes = []
    for v in range(n_nodes):
        ps = tuple(sorted(parents[v]))
        shape = tuple(n_values for _ in ps) + (n_values,)
        cpt = rng.dirichlet([DIRICHLET_ALPHA] * n_values, size=shape[:-1]).reshape(shape)
        nodes.append(BayesNode(name=v, n_values=n_values, parents=ps, cpt=cpt))
    return BayesianNetwork(nodes, name=name)


def make_table2_network(which: str, seed: int = 0) -> BayesianNetwork:
    """Networks A, AA or C with Table 2's structural parameters."""
    try:
        spec = TABLE2_RANDOM[which]
    except KeyError:
        raise KeyError(
            f"unknown random network {which!r}; choose from {sorted(TABLE2_RANDOM)}"
        ) from None
    # Table 2's "edges per node" is edges/nodes; invert it exactly.
    n_edges = int(round(spec["n_nodes"] * spec["edges_per_node"]))
    return make_random_network(
        n_nodes=spec["n_nodes"],
        n_edges=n_edges,
        n_values=spec["n_values"],
        seed=seed + {"A": 11, "AA": 22, "C": 33}[which],
        name=which,
    )
