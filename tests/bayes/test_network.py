"""BayesianNetwork representation: validation, sampling, statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bayes import (
    BayesianNetwork,
    BayesNode,
    make_hailfinder,
    make_table2_network,
)


def paper_figure1_network():
    """The five-node medical-diagnosis example of the paper's Figure 1.

    p(A=true)=0.20; B and C depend on A; D depends on B and C — with
    p(D=true | B=true, C=true) = 0.80 as the paper states.
    """
    # value order: index 0 = false, 1 = true
    a = BayesNode(0, 2, (), np.array([0.80, 0.20]))
    b = BayesNode(1, 2, (0,), np.array([[0.90, 0.10], [0.30, 0.70]]))
    c = BayesNode(2, 2, (0,), np.array([[0.75, 0.25], [0.40, 0.60]]))
    d = BayesNode(
        3, 2, (1, 2),
        np.array([[[0.95, 0.05], [0.60, 0.40]], [[0.50, 0.50], [0.20, 0.80]]]),
    )
    e = BayesNode(4, 2, (2,), np.array([[0.85, 0.15], [0.35, 0.65]]))
    return BayesianNetwork([a, b, c, d, e], name="figure1")


class TestValidation:
    def test_figure1_builds(self):
        net = paper_figure1_network()
        assert net.n_nodes == 5
        assert net.n_edges == 5
        assert net.nodes[3].cpt[1, 1, 1] == 0.80

    def test_cpt_rows_must_normalise(self):
        with pytest.raises(ValueError, match="sum to 1"):
            BayesNode(0, 2, (), np.array([0.5, 0.6]))

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            BayesNode(0, 2, (), np.array([1.2, -0.2]))

    def test_cpt_rank_must_match_parents(self):
        with pytest.raises(ValueError, match="rank"):
            BayesNode(0, 2, (1,), np.array([0.5, 0.5]))

    def test_parent_arity_checked(self):
        a = BayesNode(0, 3, (), np.array([0.2, 0.3, 0.5]))
        # CPT axis for parent 0 sized 2, but parent has 3 values
        b = BayesNode(1, 2, (0,), np.array([[0.5, 0.5], [0.4, 0.6]]))
        with pytest.raises(ValueError, match="values"):
            BayesianNetwork([a, b])

    def test_cycle_rejected(self):
        a = BayesNode(0, 2, (1,), np.array([[0.5, 0.5], [0.4, 0.6]]))
        b = BayesNode(1, 2, (0,), np.array([[0.5, 0.5], [0.4, 0.6]]))
        with pytest.raises(ValueError, match="cycle"):
            BayesianNetwork([a, b])

    def test_cycle_error_names_a_cycle_in_edge_order(self):
        cpt = np.array([[0.5, 0.5], [0.4, 0.6]])
        nodes = [
            BayesNode(0, 2, (), np.array([0.5, 0.5])),
            BayesNode(1, 2, (3,), cpt),
            BayesNode(2, 2, (1,), cpt),
            BayesNode(3, 2, (2,), cpt),
            BayesNode(4, 2, (3,), cpt),
        ]
        with pytest.raises(ValueError, match=r"cycle: \[\(1, 2\), \(2, 3\), \(3, 1\)\]"):
            BayesianNetwork(nodes)

    def test_duplicate_parent_rejected(self):
        a = BayesNode(0, 2, (), np.array([0.5, 0.5]))
        b = BayesNode(1, 2, (0, 0), np.full((2, 2, 2), 0.5))
        with pytest.raises(ValueError, match="duplicate parent"):
            BayesianNetwork([a, b])

    def test_unknown_parent_rejected(self):
        a = BayesNode(0, 2, (9,), np.array([[0.5, 0.5], [0.4, 0.6]]))
        with pytest.raises(ValueError, match="unknown parent"):
            BayesianNetwork([a])

    def test_duplicate_node_rejected(self):
        a = BayesNode(0, 2, (), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="duplicate"):
            BayesianNetwork([a, a])

    def test_single_value_node_rejected(self):
        with pytest.raises(ValueError):
            BayesNode(0, 1, (), np.array([1.0]))

    @pytest.mark.parametrize("bad", [-1, "x", 2, 1.0])
    def test_names_other_than_0_to_n_minus_1_rejected(self, bad):
        # a run is a list indexed by node id: -1 would alias the last slot
        a = BayesNode(0, 2, (), np.array([0.5, 0.5]))
        b = BayesNode(bad, 2, (0,), np.array([[0.5, 0.5], [0.4, 0.6]]))
        with pytest.raises(ValueError, match=r"names must be the integers 0\.\.1"):
            BayesianNetwork([a, b])


class TestStructure:
    def test_topo_order_respects_edges(self):
        net = paper_figure1_network()
        pos = {v: i for i, v in enumerate(net.topo_order)}
        for v in net.nodes:
            for p in net.nodes[v].parents:
                assert pos[p] < pos[v]

    def test_children_and_skeleton(self):
        net = paper_figure1_network()
        assert net.children(0) == [1, 2]
        assert net.children(4) == []
        sk = net.skeleton()
        assert sk.adj[0] == {1: 1.0, 2: 1.0} and sk.adj[1][0] == 1.0
        assert len(list(sk.edges())) == 5

    @pytest.mark.parametrize("which", ["A", "AA", "C", "hailfinder"])
    def test_dag_matches_networkx(self, which):
        # networkx (a dev dependency) is the reference the DAG replaced
        import networkx as nx

        net = make_hailfinder() if which == "hailfinder" else make_table2_network(which)
        dag = nx.DiGraph()
        dag.add_nodes_from(net.nodes)
        for v, node in net.nodes.items():
            dag.add_edges_from((p, v) for p in node.parents)
        assert net.topo_order == list(nx.lexicographical_topological_sort(dag))
        assert net.n_edges == dag.number_of_edges()
        for v in net.nodes:
            assert net.children(v) == sorted(dag.successors(v))
            assert net.descendants(v) == nx.descendants(dag, v)
        sk, ref = net.skeleton(), dag.to_undirected()
        assert [(u, list(n)) for u, n in sk.adj.items()] == [(u, list(ref[u])) for u in ref]

    def test_table2_row(self):
        row = paper_figure1_network().table2_row()
        assert row["nodes"] == 5
        assert row["values_per_node"] == 2
        assert row["edges_per_node"] == 1.0


class TestSampling:
    def test_marginal_of_root_matches_prior(self):
        net = paper_figure1_network()
        rng = np.random.default_rng(0)
        samples = net.ancestral_samples(20000, rng)
        p_a_true = samples[:, 0].mean()
        assert p_a_true == pytest.approx(0.20, abs=0.01)

    def test_conditional_structure_respected(self):
        """P(B=true) = 0.8*0.10 + 0.2*0.70 = 0.22 by total probability."""
        net = paper_figure1_network()
        rng = np.random.default_rng(1)
        samples = net.ancestral_samples(30000, rng)
        assert samples[:, 1].mean() == pytest.approx(0.22, abs=0.01)

    def test_scalar_sampler_agrees_with_batch(self):
        net = paper_figure1_network()
        rng = np.random.default_rng(2)
        # P(D=true | B=true, C=true) = 0.80: scalar path, direct check
        hits = sum(
            net.sample_node_scalar(3, (1, 1), rng.random()) for _ in range(20000)
        )
        assert hits / 20000 == pytest.approx(0.80, abs=0.01)

    def test_default_values_pick_modal_state(self):
        net = paper_figure1_network()
        defaults = net.default_values(seed=0)
        # paper: "A will sample the value false in four-fifths ... which is
        # therefore used as the default value for A"
        assert defaults[0] == 0

    def test_prior_marginals_are_distributions(self):
        net = paper_figure1_network()
        for marg in net.prior_marginals(seed=0).values():
            assert marg.sum() == pytest.approx(1.0)
            assert np.all(marg >= 0)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=99))
    def test_property_samples_within_arity(self, seed):
        net = paper_figure1_network()
        samples = net.ancestral_samples(200, np.random.default_rng(seed))
        assert samples.min() >= 0
        assert samples.max() <= 1


# ---------------------------------------------------------------------------
# The compiled scalar path against numpy, row by row
# ---------------------------------------------------------------------------

#: the draw just below 1.0 — the largest value ``rng.random()`` can return
TOP = float(np.nextafter(1.0, 0.0))


def table2_networks():
    return [make_table2_network(n) for n in ("A", "AA", "C")] + [make_hailfinder()]


def reference_rows(node):
    """``(parent values, cumulative row)`` for every CPT row of ``node``,
    computed here from ``node.cpt`` (last entry pinned to 1.0)."""
    cum = node.cpt.cumsum(axis=-1)
    cum[..., -1] = 1.0
    return [(pv, cum[pv]) for pv in np.ndindex(*cum.shape[:-1])]


class _TopRng:
    """Stands in for a Generator whose every draw is :data:`TOP`."""

    def random(self, n):
        return np.full(n, TOP)


class TestCompiledScalarPath:
    @pytest.mark.parametrize("net", table2_networks(), ids=lambda n: n.name)
    def test_scalar_equals_searchsorted_on_every_row(self, net):
        draws = np.random.default_rng(11).random(1000)
        for name, node in net.nodes.items():
            for pv, row in reference_rows(node):
                us = np.concatenate([
                    [0.0], row, np.nextafter(row, 0.0), np.nextafter(row, 2.0), draws,
                ])
                expected = np.searchsorted(row, us, side="right")
                got = [net.sample_node_scalar(name, pv, u) for u in us.tolist()]
                assert got == expected.tolist(), (net.name, name, pv)

    @pytest.mark.parametrize("net", table2_networks(), ids=lambda n: n.name)
    def test_top_draw_stays_in_range_on_both_paths(self, net):
        """Float cumsum leaves some rows ending at 0.9999999999999998; a
        draw in [that, 1) used to sample the invalid value ``n_values``."""
        short_rows = 0
        for name, node in net.nodes.items():
            combos = np.array(list(np.ndindex(*node.cpt.shape[:-1])), dtype=np.int64)
            batch = net.sample_node(name, combos.reshape(len(combos), -1), _TopRng())
            assert 0 <= batch.min() and batch.max() < node.n_values, name
            for pv in map(tuple, combos.tolist()):
                assert 0 <= net.sample_node_scalar(name, pv, TOP) < node.n_values
            short_rows += int((node.cpt.cumsum(axis=-1)[..., -1] < 1.0).sum())
        if net.name in ("A", "C"):
            assert short_rows > 0  # the case is real on the Figure-3 networks

    def test_batch_path_stream_unchanged(self):
        """Gathering precomputed cumulative rows samples exactly what
        cumulating the gathered CPT rows did, draw for draw."""
        net = make_table2_network("A")
        pick = np.random.default_rng(5)
        for name, node in net.nodes.items():
            pv = np.stack(
                [pick.integers(0, n, size=64) for n in node.cpt.shape[:-1]], axis=1
            ) if node.parents else np.empty((64, 0), dtype=np.int64)
            got = net.sample_node(name, pv, np.random.default_rng(name))
            probs = node.cpt[tuple(pv.T)] if node.parents else node.cpt[None, :]
            u = np.random.default_rng(name).random(64)
            assert got.tolist() == (probs.cumsum(axis=1) < u[:, None]).sum(axis=1).tolist()
