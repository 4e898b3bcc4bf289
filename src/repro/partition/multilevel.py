"""Multilevel bisection and k-way partitioning (the METIS recipe).

Three phases:

1. **Coarsening** — repeated heavy-edge matching: visit vertices in
   random order (named RNG stream, reproducible), match each unmatched
   vertex with the unmatched neighbour sharing the heaviest edge, and
   contract matched pairs.  Stops at :data:`COARSE_SIZE` nodes, after
   :data:`MAX_LEVELS` levels, or when the graph stops shrinking.
2. **Initial partition** — greedy region growth plus KL on the coarsest
   graph.
3. **Uncoarsening** — project the bisection back level by level, running
   KL refinement at every level.

K-way partitions come from recursive bisection, which is how METIS 3
(pmetis) produced the paper's partitions.
"""

from __future__ import annotations

import numpy as np

from repro.partition.graph import Graph
from repro.partition.greedy import greedy_bisection
from repro.partition.kl import kl_refine
from repro.partition.metrics import edge_cut

#: coarsening stops once the graph has at most this many nodes
COARSE_SIZE = 20
#: and after at most this many levels
MAX_LEVELS = 10


def _heavy_edge_matching(graph: Graph, rng: np.random.Generator):
    """One coarsening level; returns (coarse_graph, projection map)."""
    order = list(graph.adj)
    rng.shuffle(order)
    matched: set = set()
    merge_into: dict = {}
    for v in order:
        if v in matched:
            continue
        best_nb, best_w = None, -1.0
        for nb, w in graph.adj[v].items():
            if nb in matched or nb == v:
                continue
            if w > best_w:
                best_nb, best_w = nb, w
        matched.add(v)
        if best_nb is not None:
            matched.add(best_nb)
            merge_into[best_nb] = v
        merge_into.setdefault(v, v)

    coarse = Graph()
    rep = {v: merge_into.get(v, v) for v in graph.adj}
    for v, r in rep.items():
        coarse.add_node(r, size=0)
        coarse.size[r] += graph.size[v]
    for u, v, w in graph.edges():
        ru, rv = rep[u], rep[v]
        if ru != rv:
            coarse.add_edge(ru, rv, coarse.adj[ru].get(rv, 0.0) + w)
    return coarse, rep


def multilevel_bisection(graph: Graph, seed: int = 0) -> dict:
    """METIS-style multilevel 2-way partition; returns {node: 0|1}."""
    if len(graph) <= 2:
        nodes = sorted(graph.adj, key=str)
        return {v: i % 2 for i, v in enumerate(nodes)}
    rng = np.random.default_rng(seed)
    levels: list[tuple[Graph, dict]] = []
    g = graph
    for _ in range(MAX_LEVELS):
        if len(g) <= COARSE_SIZE:
            break
        coarse, rep = _heavy_edge_matching(g, rng)
        if len(coarse) >= len(g):
            break  # no progress (e.g. no edges left)
        levels.append((g, rep))
        g = coarse

    parts = greedy_bisection(g)
    parts = kl_refine(g, parts)
    # uncoarsen with refinement at each level
    for fine, rep in reversed(levels):
        parts = {v: parts[rep[v]] for v in fine.adj}
        parts = kl_refine(fine, parts)
    parts = _rebalance(graph, parts)
    return kl_refine(graph, parts)


def _rebalance(graph: Graph, parts: dict) -> dict:
    """Move cheapest vertices from the larger side until sizes differ by at
    most one (KL preserves sizes, so this runs once at the end)."""
    parts = dict(parts)
    while True:
        a = [v for v in graph.adj if parts[v] == 0]
        b = [v for v in graph.adj if parts[v] == 1]
        if abs(len(a) - len(b)) <= 1:
            return parts
        src, dst = (0, 1) if len(a) > len(b) else (1, 0)
        movers = a if src == 0 else b
        best_v, best_delta = None, None
        for v in movers:
            delta = 0.0
            for nb, w in graph.adj[v].items():
                delta += w if parts[nb] == src else -w
            if best_delta is None or delta < best_delta:
                best_v, best_delta = v, delta
        parts[best_v] = dst


def partition(graph: Graph, k: int, seed: int = 0) -> dict:
    """K-way partition by recursive multilevel bisection."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return {v: 0 for v in graph.adj}
    if k > len(graph):
        raise ValueError(f"cannot cut {len(graph)} nodes into {k} parts")
    halves = multilevel_bisection(graph, seed=seed)
    left_nodes = [v for v in graph.adj if halves[v] == 0]
    right_nodes = [v for v in graph.adj if halves[v] == 1]
    k_left = k // 2 + k % 2
    k_right = k // 2
    # keep part sizes sane when k is odd
    if len(left_nodes) < k_left or len(right_nodes) < k_right:
        left_nodes = sorted(graph.adj, key=str)[: len(graph) // 2 + len(graph) % 2]
        taken = set(left_nodes)
        right_nodes = [v for v in graph.adj if v not in taken]
    out: dict = {}
    left = partition(graph.subgraph(left_nodes), k_left, seed=seed + 1)
    right = partition(graph.subgraph(right_nodes), k_right, seed=seed + 2)
    for v, p in left.items():
        out[v] = p
    for v, p in right.items():
        out[v] = p + k_left
    return out


def best_of(graph: Graph, k: int, tries: int = 4, seed: int = 0) -> dict:
    """Run ``partition`` with several seeds and keep the smallest cut
    (METIS similarly retries its randomised phases)."""
    if tries < 1:
        raise ValueError(f"tries must be >= 1, got {tries}")
    best_parts, best_cut = None, float("inf")
    for t in range(tries):
        parts = partition(graph, k, seed=seed + 1000 * t)
        cut = edge_cut(graph, parts)
        if cut < best_cut:
            best_parts, best_cut = parts, cut
    return best_parts
