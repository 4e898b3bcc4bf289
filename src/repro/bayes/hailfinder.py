"""Synthetic stand-in for the Hailfinder belief network.

The real Hailfinder (a 56-node weather-forecasting network from the
Decision Systems Laboratory, University of Pittsburgh [1]) is the one
real network in the paper's Table 2; its full CPTs are not reproducible
here, so we synthesise a network matching every structural statistic
Table 2 reports — and those statistics are all the experiments depend on
(DESIGN.md §2):

=====================  ======  =========
statistic              paper   this module
nodes                  56      56
edges per node         1.2     1.2  (67 edges)
values per node        4       4
edge-cut, 2 parts      4       4 (by construction: two 28-node clusters
                                  joined by exactly 4 cross edges)
=====================  ======  =========

Real diagnostic networks are causally skewed — most events strongly
follow their parents — so CPTs use a small Dirichlet concentration,
which also reproduces Hailfinder's comparatively short uniprocessor
inference time (3.15 s vs ~11 s; skewed posteriors need fewer samples
for a ±0.01 confidence interval) and its high default-value hit rate in
the asynchronous sampler.
"""

from __future__ import annotations

import numpy as np

from repro.bayes.network import BayesianNetwork, BayesNode

N_NODES = 56
CLUSTER = 28
N_EDGES = 67  # 56 * 1.2 = 67.2 -> 67
N_CROSS = 4
N_VALUES = 4
DIRICHLET_ALPHA = 0.12  # each CPT row's concentration, before the dominant bias


def make_hailfinder(seed: int = 0) -> BayesianNetwork:
    """Build the synthetic Hailfinder-like network (deterministic in seed)."""
    rng = np.random.default_rng(seed)
    parents: dict[int, list[int]] = {v: [] for v in range(N_NODES)}
    edges: set[tuple[int, int]] = set()

    # Within-cluster edges: a chain backbone (27 edges, keeping the DAG a
    # single causal spine as diagnostic networks have) plus random forward
    # chords.  The chain+chord structure makes any balanced split of a
    # cluster cost >= 2 internal edges, so the cheapest balanced bisection
    # of the whole network is the cluster split cutting the 4 cross edges
    # (as METIS found for the real Hailfinder).
    per_cluster = (N_EDGES - N_CROSS) // 2  # 31 each, +1 remainder below
    remainder = (N_EDGES - N_CROSS) - 2 * per_cluster
    for c, extra in ((0, remainder), (1, 0)):
        base = c * CLUSTER
        want = per_cluster + extra
        for i in range(CLUSTER - 1):  # chain backbone
            u, v = base + i, base + i + 1
            edges.add((u, v))
            parents[v].append(u)
        placed = CLUSTER - 1
        while placed < want:
            u, v = sorted(rng.integers(base, base + CLUSTER, size=2))
            u, v = int(u), int(v)
            if u == v or (u, v) in edges or len(parents[v]) >= 3:
                continue
            edges.add((u, v))
            parents[v].append(u)
            placed += 1

    # Exactly four cross edges from cluster 0 into cluster 1 (forward in
    # node order, so the graph stays a DAG); these are the only edges a
    # balanced bisection must cut.
    while sum(1 for (u, v) in edges if u < CLUSTER <= v) < N_CROSS:
        u = int(rng.integers(0, CLUSTER))
        v = int(rng.integers(CLUSTER, N_NODES))
        if (u, v) in edges or len(parents[v]) >= 3:
            continue
        edges.add((u, v))
        parents[v].append(u)

    # Dominant-outcome CPTs: every node has one dominant state that most
    # CPT rows favour (rare-event semantics — a diagnostic node is "normal"
    # under most parent combinations).  This gives the skewed *marginals*
    # real diagnostic networks have, which is what produces (a) the short
    # uniprocessor inference time (skewed posteriors need fewer samples
    # for ±0.01) and (b) the high default-value hit rate that §3.2's
    # gamble exploits.
    nodes = []
    for v in range(N_NODES):
        ps = tuple(sorted(parents[v]))
        shape = tuple(N_VALUES for _ in ps) + (N_VALUES,)
        dominant = int(rng.integers(0, N_VALUES))
        n_rows = int(np.prod(shape[:-1])) if ps else 1
        rows = rng.dirichlet([DIRICHLET_ALPHA] * N_VALUES, size=n_rows)
        bias = np.zeros(N_VALUES)
        bias[dominant] = 1.0
        rows = 0.12 * rows + 0.88 * bias  # rows sum to 1 by construction
        cpt = rows.reshape(shape)
        nodes.append(BayesNode(name=v, n_values=N_VALUES, parents=ps, cpt=cpt))
    net = BayesianNetwork(nodes, name="Hailfinder")
    assert net.n_edges == N_EDGES
    return net
