"""Partition-quality metrics: edge-cut, balance, validity."""

from __future__ import annotations

from repro.partition.graph import Graph


def validate_partition(graph: Graph, parts: dict) -> int:
    """Check ``parts`` covers exactly the graph's nodes; return #parts."""
    if set(parts) != set(graph.adj):
        missing = set(graph.adj) - set(parts)
        extra = set(parts) - set(graph.adj)
        raise ValueError(
            f"partition does not match graph (missing={sorted(missing)[:5]}, "
            f"extra={sorted(extra)[:5]})"
        )
    labels = set(parts.values())
    if not labels:
        raise ValueError("empty partition")
    return len(labels)


def edge_cut(graph: Graph, parts: dict) -> float:
    """Total weight of edges whose endpoints lie in different parts.

    This is the quantity Table 2 reports ("Edge-cut for 2 partitions");
    unweighted graphs count each cut edge as 1.
    """
    validate_partition(graph, parts)
    cut = 0.0
    for u, v, w in graph.edges():
        if parts[u] != parts[v]:
            cut += w
    return cut


def balance(graph: Graph, parts: dict) -> float:
    """Largest part size divided by ideal size (1.0 = perfectly balanced)."""
    k = validate_partition(graph, parts)
    sizes: dict = {}
    for node, p in parts.items():
        sizes[p] = sizes.get(p, 0) + 1
    ideal = len(graph) / k
    return max(sizes.values()) / ideal if ideal > 0 else float("inf")
