"""Kernighan–Lin bisection refinement.

The classical pairwise-swap improvement pass: repeatedly compute, for the
current bisection, the best sequence of (a, b) swaps by greedy D-value
selection with tentative locking, and commit the prefix of the sequence
with the largest cumulative gain.  Stops when a pass yields no positive
gain or ``max_passes`` is reached.

Used both standalone and as the refinement step of the multilevel scheme.
Runs in O(passes · n² log n) on dense graphs, plenty for the paper's
54–56-node belief networks (and the property tests keep it honest on
random graphs up to a few hundred nodes).
"""

from __future__ import annotations

from repro.partition.graph import Graph
from repro.partition.metrics import validate_partition


def _d_values(graph: Graph, parts: dict) -> dict:
    """D(v) = external cost - internal cost for every vertex."""
    d = {}
    for v, nbrs in graph.adj.items():
        internal = external = 0.0
        for nb, w in nbrs.items():
            if parts[nb] == parts[v]:
                internal += w
            else:
                external += w
        d[v] = external - internal
    return d


def kl_refine(graph: Graph, parts: dict, max_passes: int = 10) -> dict:
    """Refine a bisection in place-of (returns a new dict); cut never worsens."""
    k = validate_partition(graph, parts)
    if k == 1:
        return dict(parts)
    if k != 2:
        raise ValueError(f"KL refines bisections only, got {k} parts")
    parts = dict(parts)
    adj = graph.adj

    for _ in range(max_passes):
        d = _d_values(graph, parts)
        # the unlocked vertices of each side, in node order
        side_a = [v for v in adj if parts[v] == 0]
        side_b = [v for v in adj if parts[v] == 1]
        locked: set = set()
        swaps: list[tuple] = []
        gains: list[float] = []

        for _ in range(min(len(side_a), len(side_b))):
            # greedy best pair among unlocked vertices; the first pair
            # found keeps a tie.  Weights are >= 0, so no pair of ``a``
            # gains more than d[a] + max d[b]: an ``a`` whose bound cannot
            # strictly beat the best so far is skipped (DESIGN.md §8)
            max_d_b = max(d[b] for b in side_b)
            best = None
            for a in side_a:
                d_a = d[a]
                if best is not None and d_a + max_d_b <= best[0]:
                    continue
                adj_a = adj[a]
                for b in side_b:
                    gain = d_a + d[b] - 2.0 * adj_a.get(b, 0.0)
                    if best is None or gain > best[0]:
                        best = (gain, a, b)
            gain, a, b = best
            swaps.append((a, b))
            gains.append(gain)
            locked.update((a, b))
            side_a.remove(a)
            side_b.remove(b)
            # update D-values as if (a, b) were swapped; a vertex adjacent
            # to neither would add exactly 0.0
            adj_a, adj_b = adj[a], adj[b]
            for v in adj_a.keys() | adj_b.keys():
                if v in locked:
                    continue
                w_va = adj_a.get(v, 0.0)
                w_vb = adj_b.get(v, 0.0)
                if parts[v] == 0:
                    d[v] += 2.0 * w_va - 2.0 * w_vb
                else:
                    d[v] += 2.0 * w_vb - 2.0 * w_va

        # commit the best prefix
        best_prefix, best_total = 0, 0.0
        running = 0.0
        for i, g in enumerate(gains):
            running += g
            if running > best_total:
                best_total, best_prefix = running, i + 1
        if best_prefix == 0:
            break
        for a, b in swaps[:best_prefix]:
            parts[a], parts[b] = 1, 0
    return parts
