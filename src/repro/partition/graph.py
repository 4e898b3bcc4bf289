"""The partitioner's graph: plain dicts with pinned iteration orders.

``adj[u][v]`` is the weight of edge ``{u, v}`` (stored under both
endpoints) and ``size[v]`` a vertex weight (1 unless a coarsening level
merged vertices).  The partitioner's tie-breaks read these orders, and
its owner maps feed pinned digests, so each order is the one the
partitioner had when its graphs were third-party graph objects
(DESIGN.md §8; ``tests/partition/parity_pin.json``):

* ``add_node`` / ``add_edge`` append a node or neighbour the first time
  it is seen; re-adding an edge updates its weight in place;
* :meth:`Graph.edges` yields ``(u, v, w)`` for ``u`` in node order and
  ``v`` in ``adj[u]`` order, skipping a ``v`` already visited as a ``u``;
* :meth:`Graph.subgraph` copies the induced subgraph in the *filter
  set's* order when it holds under half the graph, else in the graph's
  node order.
"""

from __future__ import annotations


class Graph:
    """Undirected weighted graph of dict adjacency."""

    __slots__ = ("adj", "size")

    def __init__(self) -> None:
        self.adj: dict = {}
        self.size: dict = {}

    def __len__(self) -> int:
        return len(self.adj)

    def add_node(self, v, size: int = 1) -> None:
        """Add ``v`` with vertex weight ``size``; a known node is left as is."""
        if v not in self.adj:
            self.adj[v] = {}
            self.size[v] = size

    def add_edge(self, u, v, weight: float = 1.0) -> None:
        """Add edge ``{u, v}`` (and any missing endpoint), or reweight it.

        A negative or NaN weight is refused: KL's pruned scan bounds a
        pair's gain by assuming every weight is >= 0.
        """
        if not weight >= 0:
            raise ValueError(f"edge ({u!r}, {v!r}): weight must be >= 0, got {weight!r}")
        self.add_node(u)
        self.add_node(v)
        self.adj[u][v] = weight
        self.adj[v][u] = weight

    def edges(self):
        """Each edge once, as ``(u, v, weight)``."""
        seen = set()
        for u, nbrs in self.adj.items():
            for v, w in nbrs.items():
                if v not in seen:
                    yield u, v, w
            seen.add(u)

    def subgraph(self, nodes) -> Graph:
        """A copy of the subgraph induced by ``nodes``.

        Node order is the pinned filtered-view rule: when the kept set
        holds fewer than half the graph's nodes it is iterated in set
        order, which for the int and int-tuple nodes used here is fixed
        by the nodes and their insertion order alone (their hashes are
        not salted).  Each copied edge is then added in ``adj`` order.
        """
        keep = set(v for v in nodes if v in self.adj)
        if 2 * len(keep) < len(self.adj):
            order = list(keep)
        else:
            order = [v for v in self.adj if v in keep]
        sub = Graph()
        for v in order:
            sub.add_node(v, self.size[v])
        for u in order:
            for v, w in self.adj[u].items():
                if v in keep:
                    sub.add_edge(u, v, w)
        return sub
