"""Partitioner tests: metrics, greedy, KL, multilevel, k-way, properties.

networkx (a dev dependency) still generates inputs, copied into a
:class:`Graph` in its own iteration order, and serves as the reference
for the orders the partitioner's tie-breaks read.
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition import (
    Graph,
    balance,
    edge_cut,
    greedy_bisection,
    kl_refine,
    multilevel_bisection,
    partition,
    validate_partition,
)
from repro.partition.kl import kl_bisection
from repro.partition.multilevel import best_of


def from_nx(g):
    """A :class:`Graph` with ``g``'s nodes and adjacency, in ``g``'s order."""
    out = Graph()
    for u, nbrs in g.adj.items():
        out.add_node(u)
        out.adj[u] = {v: data.get("weight", 1.0) for v, data in nbrs.items()}
    return out


def orders(g):
    """Node order and every neighbour order of a :class:`Graph`."""
    return [(u, list(nbrs)) for u, nbrs in g.adj.items()]


def two_cliques(n=10, bridges=1):
    """Two n-cliques joined by `bridges` edges: optimal cut == bridges."""
    g = Graph()
    for base in (0, n):
        for i in range(n):
            for j in range(i + 1, n):
                g.add_edge(base + i, base + j)
    for b in range(bridges):
        g.add_edge(b, n + b)
    return g


class TestGraph:
    def test_readding_an_edge_reweights_in_place(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_edge(0, 2, 3.0)
        g.add_edge(1, 0, 2.0)
        assert orders(g) == [(0, [1, 2]), (1, [0]), (2, [0])]
        assert g.adj[0][1] == g.adj[1][0] == 2.0
        assert list(g.edges()) == [(0, 1, 2.0), (0, 2, 3.0)]

    def test_add_node_keeps_an_existing_size(self):
        g = Graph()
        g.add_node("a", size=3)
        g.add_node("a")
        assert g.size == {"a": 3} and len(g) == 1

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=70),
        p=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=10_000),
        data=st.data(),
    )
    def test_edges_and_subgraph_follow_networkx_order(self, n, p, seed, data):
        # shuffled labels and edge directions, so set order, node order
        # and neighbour order all differ; small kept sets hit the
        # filter-set branch, large ones the node-order branch
        nxg = nx.gnp_random_graph(n, p, seed=seed)
        labels = data.draw(st.permutations(range(3 * n)))[:n]
        nxg = nx.relabel_nodes(nxg, dict(enumerate(labels)))
        g = from_nx(nxg)
        assert [(u, v) for u, v, _ in g.edges()] == list(nxg.edges)
        keep = data.draw(st.lists(st.sampled_from(labels), max_size=n)) + [-1]
        assert orders(g.subgraph(keep)) == orders(from_nx(nxg.subgraph(keep).copy()))


class TestMetrics:
    def test_edge_cut_counts_cross_edges(self):
        g = from_nx(nx.path_graph(4))  # 0-1-2-3
        parts = {0: 0, 1: 0, 2: 1, 3: 1}
        assert edge_cut(g, parts) == 1

    def test_edge_cut_respects_weights(self):
        g = Graph()
        g.add_edge(0, 1, 5.0)
        assert edge_cut(g, {0: 0, 1: 1}) == 5.0

    def test_balance_perfect_and_skewed(self):
        g = from_nx(nx.empty_graph(4))
        assert balance(g, {0: 0, 1: 0, 2: 1, 3: 1}) == 1.0
        assert balance(g, {0: 0, 1: 0, 2: 0, 3: 1}) == pytest.approx(1.5)

    def test_validate_rejects_mismatch(self):
        g = from_nx(nx.path_graph(3))
        with pytest.raises(ValueError):
            edge_cut(g, {0: 0, 1: 1})


class TestGreedy:
    def test_two_cliques_found(self):
        g = two_cliques(8)
        parts = greedy_bisection(g)
        assert edge_cut(g, parts) <= 3
        assert balance(g, parts) <= 1.1

    def test_trivial_graphs(self):
        assert greedy_bisection(Graph()) == {}
        g1 = Graph()
        g1.add_node("a")
        assert greedy_bisection(g1) == {"a": 0}

    def test_disconnected_graph_covered(self):
        g = from_nx(nx.disjoint_union(nx.path_graph(3), nx.path_graph(3)))
        parts = greedy_bisection(g)
        assert validate_partition(g, parts) == 2

    def test_deterministic(self):
        g = from_nx(nx.random_regular_graph(4, 30, seed=1))
        assert greedy_bisection(g) == greedy_bisection(g)


class TestKL:
    def test_never_worsens_cut(self):
        g = from_nx(nx.random_regular_graph(4, 40, seed=2))
        nodes = sorted(g.adj)
        initial = {v: (0 if i < 20 else 1) for i, v in enumerate(nodes)}
        refined = kl_refine(g, initial)
        assert edge_cut(g, refined) <= edge_cut(g, initial)

    def test_improves_bad_split_of_cliques(self):
        g = two_cliques(8)
        # worst-case initial: half of each clique on each side
        initial = {v: v % 2 for v in g.adj}
        refined = kl_refine(g, initial)
        assert edge_cut(g, refined) <= 1

    def test_preserves_side_sizes(self):
        g = from_nx(nx.random_regular_graph(4, 20, seed=3))
        initial = {v: (0 if v < 10 else 1) for v in g.adj}
        refined = kl_refine(g, initial)
        assert sum(refined.values()) == sum(initial.values())

    def test_rejects_kway_input(self):
        g = from_nx(nx.path_graph(3))
        with pytest.raises(ValueError):
            kl_refine(g, {0: 0, 1: 1, 2: 2})

    def test_single_part_is_noop(self):
        g = from_nx(nx.path_graph(3))
        parts = {0: 0, 1: 0, 2: 0}
        assert kl_refine(g, parts) == parts

    def test_kl_bisection_default_start(self):
        g = two_cliques(6)
        parts = kl_bisection(g)
        assert edge_cut(g, parts) <= 2


class TestMultilevel:
    def test_two_cliques_optimal(self):
        g = two_cliques(12, bridges=2)
        parts = multilevel_bisection(g, seed=0)
        assert edge_cut(g, parts) == 2
        assert balance(g, parts) == 1.0

    def test_grid_cut_reasonable(self):
        g = from_nx(nx.grid_2d_graph(8, 8))
        parts = multilevel_bisection(g, seed=1)
        # optimal cut of an 8x8 grid bisection is 8
        assert edge_cut(g, parts) <= 12
        assert balance(g, parts) <= 1.15

    def test_kway_partition_counts(self):
        g = from_nx(nx.grid_2d_graph(8, 8))
        parts = partition(g, 4, seed=0)
        assert validate_partition(g, parts) == 4
        sizes = [list(parts.values()).count(p) for p in range(4)]
        assert max(sizes) - min(sizes) <= 4

    def test_k1_and_invalid_k(self):
        g = from_nx(nx.path_graph(5))
        assert set(partition(g, 1).values()) == {0}
        with pytest.raises(ValueError):
            partition(g, 0)
        with pytest.raises(ValueError):
            partition(g, 10)

    def test_best_of_refuses_tries_below_one(self):
        g = two_cliques(4)
        for tries in (0, -1):
            with pytest.raises(ValueError, match="tries"):
                best_of(g, 2, tries=tries)

    def test_best_of_not_worse_than_single(self):
        g = from_nx(nx.random_regular_graph(6, 50, seed=5))
        single = edge_cut(g, partition(g, 2, seed=0))
        multi = edge_cut(g, best_of(g, 2, tries=4, seed=0))
        assert multi <= single

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=60),
        p=st.floats(min_value=0.05, max_value=0.4),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_property_valid_balanced_bisection(self, n, p, seed):
        nxg = nx.gnp_random_graph(n, p, seed=seed)
        g = from_nx(nxg)
        parts = multilevel_bisection(g, seed=seed)
        assert validate_partition(g, parts) in (1, 2)
        sizes = [list(parts.values()).count(q) for q in sorted(set(parts.values()))]
        assert max(sizes) - min(sizes) <= max(2, n // 4)
        # cut is never worse than cutting every edge
        assert edge_cut(g, parts) <= nxg.number_of_edges()
