"""Bayesian belief network representation.

A network is a DAG of discrete nodes; each node carries a conditional
probability table (CPT) over its values given every combination of parent
values (Figure 1 of the paper shows a five-node example).  The class
validates acyclicity and CPT shape/normalisation at construction and
provides the structural statistics Table 2 reports, vectorised ancestral
sampling for the serial sampler, and the undirected skeleton used by the
graph partitioner.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.inputs import at_least, check_fields, unconstrained
from repro.partition.graph import Graph

PRIOR_SAMPLES = 2000  # ancestral samples behind BayesianNetwork.prior_marginals


@dataclass
class BayesNode:
    """One event node: ``cpt[parent_state_1, ..., parent_state_k, value]``.

    ``cpt`` has one leading axis per parent (in ``parents`` order, sized by
    that parent's arity) and a trailing axis of size ``n_values`` that sums
    to 1.  A parentless node's CPT is just its prior (shape
    ``(n_values,)``).
    """

    name: int = unconstrained("BayesianNetwork checks the names are 0..n-1, which needs n")
    n_values: int = at_least(2)
    parents: tuple[int, ...] = at_least(0, each=True)
    cpt: np.ndarray

    def __post_init__(self) -> None:
        self.parents = tuple(self.parents)
        self.cpt = np.asarray(self.cpt, dtype=np.float64)
        check_fields(self)
        if self.cpt.shape[-1] != self.n_values:
            raise ValueError(
                f"node {self.name}: CPT last axis {self.cpt.shape[-1]} != "
                f"n_values {self.n_values}"
            )
        if self.cpt.ndim != len(self.parents) + 1:
            raise ValueError(
                f"node {self.name}: CPT rank {self.cpt.ndim} != "
                f"{len(self.parents)} parents + 1"
            )
        if np.any(self.cpt < 0):
            raise ValueError(f"node {self.name}: negative probability")
        sums = self.cpt.sum(axis=-1)
        if not np.allclose(sums, 1.0, atol=1e-9):
            raise ValueError(f"node {self.name}: CPT rows must sum to 1")


class BayesianNetwork:
    """A validated belief network with sampling support; its ``n`` nodes
    are named by the integers ``0..n-1``."""

    def __init__(self, nodes: list[BayesNode], name: str = "bn") -> None:
        self.name = name
        self.nodes: dict[int, BayesNode] = {}
        for node in nodes:
            # the parallel samplers store a run as a list indexed by node
            if not isinstance(node.name, int) or not 0 <= node.name < len(nodes):
                raise ValueError(
                    f"node {node.name!r}: names must be the integers 0..{len(nodes) - 1}"
                )
            if node.name in self.nodes:
                raise ValueError(f"duplicate node {node.name}")
            self.nodes[node.name] = node
        for node in nodes:
            for p in node.parents:
                if p not in self.nodes:
                    raise ValueError(f"node {node.name}: unknown parent {p}")
                if self.nodes[p].n_values != node.cpt.shape[node.parents.index(p)]:
                    raise ValueError(
                        f"node {node.name}: CPT axis for parent {p} has size "
                        f"{node.cpt.shape[node.parents.index(p)]} but parent "
                        f"has {self.nodes[p].n_values} values"
                    )
            if len(set(node.parents)) != len(node.parents):
                raise ValueError(f"node {node.name}: duplicate parent")
        #: out-edges per node, in the order the edges were declared (the
        #: skeleton's adjacency order, which the partitioner reads)
        self._succ: dict[int, list[int]] = {v: [] for v in self.nodes}
        for node in nodes:
            for p in node.parents:
                self._succ[p].append(node.name)
        self._children = {v: sorted(cs) for v, cs in self._succ.items()}
        #: deterministic topological order: ties broken by node name
        self.topo_order: list[int] = self._topological_order()
        # cumulative CPTs, last entry of every row pinned to exactly 1.0:
        # float cumsum can end at 0.9999999999999998, and a draw in
        # [that, 1) would otherwise sample the invalid value n_values
        self._cum_cpt: dict[int, np.ndarray] = {}
        for n in nodes:
            cum = n.cpt.cumsum(axis=-1)
            cum[..., -1] = 1.0
            self._cum_cpt[n.name] = cum
        #: the same tables as nested python lists, indexed by parent value
        #: then searched with ``bisect_right`` — the parallel samplers'
        #: per-node path (no numpy call per sampled node, DESIGN.md §5)
        self.cum_rows: dict[int, list] = {
            name: cum.tolist() for name, cum in self._cum_cpt.items()
        }

    # -- structure (Table 2's rows) --------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of nodes in the network."""
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        """Number of directed edges in the network."""
        return sum(len(cs) for cs in self._succ.values())

    @property
    def edges_per_node(self) -> float:
        """Mean out-degree — Table 2's ``edges/node`` column."""
        return self.n_edges / self.n_nodes

    @property
    def max_values_per_node(self) -> int:
        """Largest node cardinality — Table 2's ``values/node`` column."""
        return max(n.n_values for n in self.nodes.values())

    def children(self, name: int) -> list[int]:
        """The node ids with an incoming edge from ``name``, ascending
        (one shared list per node: do not mutate)."""
        return self._children[name]

    def descendants(self, name: int) -> set[int]:
        """Every node reachable from ``name`` along directed edges."""
        seen: set[int] = set()
        stack = list(self._succ[name])
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(self._succ[v])
        return seen

    def skeleton(self) -> Graph:
        """Undirected skeleton, the input to the graph partitioner: each
        node's neighbours in the order its edges were first declared,
        scanning nodes in order and each node's children as declared."""
        g = Graph()
        for v in self._succ:
            g.add_node(v)
        for u, cs in self._succ.items():
            for v in cs:
                g.add_edge(u, v)
        return g

    def _topological_order(self) -> list[int]:
        """Kahn's algorithm, always taking the smallest ready node id;
        raises :class:`ValueError` naming one cycle's edges."""
        indegree = {v: len(node.parents) for v, node in self.nodes.items()}
        ready = [v for v, d in indegree.items() if d == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            u = heapq.heappop(ready)
            order.append(u)
            for v in self._succ[u]:
                indegree[v] -= 1
                if indegree[v] == 0:
                    heapq.heappush(ready, v)
        if len(order) == len(indegree):
            return order
        # every node left has a parent that is left too: walk parents
        # until one repeats, and report that loop in edge direction
        walk: list[int] = []
        at: dict[int, int] = {}
        v = next(v for v, d in indegree.items() if d)
        while v not in at:
            at[v] = len(walk)
            walk.append(v)
            v = next(p for p in self.nodes[v].parents if indegree[p])
        loop = [v] + walk[at[v] + 1:][::-1]
        edges = [(u, loop[(i + 1) % len(loop)]) for i, u in enumerate(loop)]
        raise ValueError(f"network contains a cycle: {edges}")

    # -- sampling ---------------------------------------------------------
    def sample_node(
        self, name: int, parent_values: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample node ``name`` for a batch given ``(batch, k)`` parent values."""
        cum = self._cum_cpt[name]
        parent_values = np.atleast_2d(parent_values)
        if parent_values.shape[1]:
            cum = cum[tuple(parent_values.T)]
        u = rng.random(parent_values.shape[0])
        return (cum < u[:, None]).sum(axis=1).astype(np.int64)

    def ancestral_samples(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` full joint samples; returns ``(n, n_nodes)`` indexed by
        position in a name-sorted node list."""
        names = sorted(self.nodes)
        col = {name: i for i, name in enumerate(names)}
        out = np.empty((n, len(names)), dtype=np.int64)
        for name in self.topo_order:
            node = self.nodes[name]
            if node.parents:
                pv = out[:, [col[p] for p in node.parents]]
            else:
                pv = np.empty((n, 0), dtype=np.int64)
            out[:, col[name]] = self.sample_node(name, pv, rng)
        return out

    def prior_marginals(self, seed: int = 0) -> dict[int, np.ndarray]:
        """Monte-Carlo estimate of each node's marginal distribution.

        Used to choose the *default values* of the asynchronous sampler:
        "The default values for the interface nodes are determined on the
        basis of the conditional probability distribution of the nodes"
        (§3.2 — e.g. A defaults to false because p(A=false)=0.80).
        """
        rng = np.random.default_rng(seed)
        samples = self.ancestral_samples(PRIOR_SAMPLES, rng)
        names = sorted(self.nodes)
        out = {}
        for i, name in enumerate(names):
            counts = np.bincount(samples[:, i], minlength=self.nodes[name].n_values)
            out[name] = counts / PRIOR_SAMPLES
        return out

    def default_values(self, seed: int = 0) -> dict[int, int]:
        """Modal value of each node's prior marginal (the async gamble)."""
        return {
            name: int(np.argmax(marg))
            for name, marg in self.prior_marginals(seed).items()
        }
