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
    edge_cut,
    greedy_bisection,
    kl_refine,
    multilevel,
    multilevel_bisection,
    partition,
    validate_partition,
)
from repro.partition.multilevel import best_of


def balance(graph, parts):
    """Largest part size divided by ideal size (1.0 = perfectly balanced)."""
    k = validate_partition(graph, parts)
    sizes = {}
    for p in parts.values():
        sizes[p] = sizes.get(p, 0) + 1
    return max(sizes.values()) / (len(graph) / k)


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

    @pytest.mark.parametrize("weight", [-1.0, -1e-300, float("nan")])
    def test_add_edge_refuses_negative_and_nan_weights(self, weight):
        g = Graph()
        with pytest.raises(ValueError, match=r"edge \(3, 'x'\)"):
            g.add_edge(3, "x", weight)
        assert len(g) == 0
        g.add_edge(3, "x", 0.0)
        assert g.adj == {3: {"x": 0.0}, "x": {3: 0.0}}

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
        nodes = sorted(g.adj, key=str)
        start = {v: int(i >= len(nodes) // 2) for i, v in enumerate(nodes)}
        parts = kl_refine(g, start)
        assert edge_cut(g, parts) <= 2 <= edge_cut(g, start)


def exhaustive_kl_refine(graph, parts, max_passes=10):
    """KL with every unlocked pair scanned and every D-value updated
    after each swap: the reference the pruned scan must reproduce."""
    if validate_partition(graph, parts) == 1:
        return dict(parts)
    parts = dict(parts)
    adj = graph.adj
    for _ in range(max_passes):
        d = {}
        for v, nbrs in adj.items():
            internal = external = 0.0
            for nb, w in nbrs.items():
                if parts[nb] == parts[v]:
                    internal += w
                else:
                    external += w
            d[v] = external - internal
        side_a = [v for v in adj if parts[v] == 0]
        side_b = [v for v in adj if parts[v] == 1]
        locked, swaps, gains = set(), [], []
        for _ in range(min(len(side_a), len(side_b))):
            best = None
            for a in side_a:
                if a in locked:
                    continue
                for b in side_b:
                    if b in locked:
                        continue
                    gain = d[a] + d[b] - 2.0 * adj[a].get(b, 0.0)
                    if best is None or gain > best[0]:
                        best = (gain, a, b)
            gain, a, b = best
            swaps.append((a, b))
            gains.append(gain)
            locked.update((a, b))
            for v, nbrs in adj.items():
                if v in locked:
                    continue
                w_va = nbrs.get(a, 0.0)
                w_vb = nbrs.get(b, 0.0)
                if parts[v] == 0:
                    d[v] += 2.0 * w_va - 2.0 * w_vb
                else:
                    d[v] += 2.0 * w_vb - 2.0 * w_va
        best_prefix, best_total, running = 0, 0.0, 0.0
        for i, g in enumerate(gains):
            running += g
            if running > best_total:
                best_total, best_prefix = running, i + 1
        if best_prefix == 0:
            break
        for a, b in swaps[:best_prefix]:
            parts[a], parts[b] = 1, 0
    return parts


@st.composite
def tie_heavy_graphs(draw):
    """4-40 nodes inserted in shuffled order, integer weights 0-3 (so
    equal gains are common), and an uneven starting bisection."""
    n = draw(st.integers(min_value=4, max_value=40))
    nodes = draw(st.permutations(range(n)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(
            st.tuples(st.sampled_from(pairs), st.integers(min_value=0, max_value=3)),
            max_size=4 * n,
        )
    )
    g = Graph()
    for v in nodes:
        g.add_node(v)
    for (u, v), w in edges:
        g.add_edge(u, v, float(w))
    sides = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return g, dict(zip(nodes, sides))


class TestPrunedScan:
    """The bound-pruned, neighbour-updated KL pass against the exhaustive
    scan: the same swaps, so the same parts and owner maps."""

    @settings(max_examples=150, deadline=None)
    @given(case=tie_heavy_graphs())
    def test_kl_refine_matches_the_exhaustive_scan(self, case):
        g, initial = case
        assert kl_refine(g, initial) == exhaustive_kl_refine(g, initial)

    @settings(max_examples=40, deadline=None)
    @given(case=tie_heavy_graphs(), seed=st.integers(min_value=0, max_value=1000))
    def test_best_of_owner_maps_match_the_exhaustive_scan(self, case, seed):
        g, _ = case
        for k in (2, 3, 5):
            if k > len(g):
                continue
            got = best_of(g, k, tries=4, seed=seed)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(multilevel, "kl_refine", exhaustive_kl_refine)
                want = best_of(g, k, tries=4, seed=seed)
            assert list(got.items()) == list(want.items()), k


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
