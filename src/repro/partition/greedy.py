"""Greedy BFS region-growth bisection.

The classic graph-growing heuristic (used by METIS for its coarsest-level
initial partition): start from a pseudo-peripheral vertex, grow part 0 by
repeatedly absorbing the frontier vertex with the best gain (fewest new
cut edges) until half the total vertex weight is absorbed; everything
else is part 1.
"""

from __future__ import annotations

import heapq
import itertools

from repro.partition.graph import Graph


def _pseudo_peripheral(graph: Graph, start) -> object:
    """Vertex roughly farthest from ``start`` (two BFS sweeps)."""
    node = start
    for _ in range(2):
        dist = {node: 0}
        frontier = [node]
        while frontier:
            nxt = []
            for u in frontier:
                for v in graph.adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        node = max(dist, key=lambda n: (dist[n], str(n)))
    return node


def greedy_bisection(graph: Graph) -> dict:
    """Bisect ``graph`` by BFS region growth; returns {node: 0|1}.

    Vertex-weight aware: a node's ``size`` (default 1) counts toward the
    growth target, so bisecting a coarsened graph balances the
    underlying fine vertices, not the coarse node count.  Deterministic:
    ties in gain are broken by insertion order.  Handles disconnected
    graphs by restarting growth from the smallest-label unabsorbed vertex.
    """
    adj = graph.adj
    if not adj:
        return {}
    if len(adj) == 1:
        return {next(iter(adj)): 0}
    nodes_sorted = sorted(adj, key=str)
    seed_node = _pseudo_peripheral(graph, nodes_sorted[0])
    target = sum(graph.size.values()) // 2
    in_zero: set = set()
    grown = 0
    counter = itertools.count()
    # max-gain frontier: gain = (internal neighbours) - (external neighbours)
    heap: list = []

    def push(node):
        internal = sum(1 for nb in adj[node] if nb in in_zero)
        gain = 2 * internal - len(adj[node])
        heapq.heappush(heap, (-gain, next(counter), node))

    push(seed_node)
    while grown < target:
        while heap:
            _, _, node = heapq.heappop(heap)
            if node not in in_zero:
                break
        else:
            # disconnected: restart from an unabsorbed vertex
            for cand in nodes_sorted:
                if cand not in in_zero:
                    node = cand
                    break
        in_zero.add(node)
        grown += graph.size[node]
        for nb in adj[node]:
            if nb not in in_zero:
                push(nb)
    return {node: (0 if node in in_zero else 1) for node in adj}
