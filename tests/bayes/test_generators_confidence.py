"""Network generators (Table 2 structures), confidence estimator, serial LS."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bayes import (
    PosteriorEstimator,
    make_hailfinder,
    make_random_network,
    make_table2_network,
    run_serial_logic_sampling,
)
from repro.bayes import logic_sampling, random_nets
from repro.bayes.confidence import MIN_SAMPLES
from repro.bayes.hailfinder import N_CROSS, N_EDGES
from repro.partition import edge_cut
from repro.partition.multilevel import best_of


def _edges(net):
    return {(u, c) for u in net.nodes for c in net.children(u)}


class TestRandomNets:
    def test_table2_structures(self):
        for which, epn in (("A", 2.2), ("AA", 2.4), ("C", 2.0)):
            net = make_table2_network(which)
            assert net.n_nodes == 54
            assert net.edges_per_node == pytest.approx(epn, abs=0.05)
            assert net.max_values_per_node == 2

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            make_table2_network("Z")

    def test_deterministic_in_seed(self):
        a = make_random_network(20, 30, seed=5)
        b = make_random_network(20, 30, seed=5)
        assert _edges(a) == _edges(b)
        c = make_random_network(20, 30, seed=6)
        assert _edges(a) != _edges(c)

    def test_edge_count_exact(self):
        net = make_random_network(30, 44, seed=1)
        assert net.n_edges == 44

    def test_max_parents_respected(self, monkeypatch):
        monkeypatch.setattr(random_nets, "MAX_PARENTS", 3)
        net = make_random_network(40, 100, seed=2)
        assert max(len(n.parents) for n in net.nodes.values()) <= 3

    def test_invalid_edge_count_rejected(self):
        with pytest.raises(ValueError):
            make_random_network(5, 100)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=50))
    def test_property_generated_networks_are_valid_dags(self, seed):
        net = make_random_network(25, 40, seed=seed)
        # construction validated acyclicity + CPTs; check sampling works
        s = net.ancestral_samples(10, np.random.default_rng(0))
        assert s.shape == (10, 25)


class TestHailfinder:
    def test_table2_row(self):
        hf = make_hailfinder()
        # the structural columns of Table 2
        assert hf.n_nodes == 56
        assert hf.max_values_per_node == 4
        assert hf.edges_per_node == pytest.approx(1.2, abs=0.01)
        assert hf.n_edges == N_EDGES

    def test_two_way_cut_is_four(self):
        hf = make_hailfinder()
        parts = best_of(hf.skeleton(), 2, tries=4, seed=0)
        assert edge_cut(hf.skeleton(), parts) == N_CROSS

    def test_marginals_are_skewed(self):
        """Diagnostic networks have dominant outcomes -> high modal mass."""
        hf = make_hailfinder()
        modal = np.mean([max(m) for m in hf.prior_marginals(seed=1).values()])
        assert modal > 0.8


class TestPosteriorEstimator:
    def test_converges_at_expected_sample_count(self):
        est = PosteriorEstimator(2, precision=0.01)
        rng = np.random.default_rng(0)
        while not est.converged:
            est.add(int(rng.random() < 0.5))
        # worst case p=0.5 needs about (1.645/0.01)^2 * 0.25 ~ 6765
        assert 5500 <= est.n <= 8000

    def test_skewed_posterior_converges_faster(self):
        def runs_needed(p):
            est = PosteriorEstimator(2, precision=0.01)
            rng = np.random.default_rng(1)
            while not est.converged:
                est.add(int(rng.random() < p))
            return est.n

        assert runs_needed(0.05) < runs_needed(0.4) / 2

    def test_min_samples_guard(self):
        est = PosteriorEstimator(2)
        for _ in range(MIN_SAMPLES - 1):
            est.add(0)
        assert not est.converged  # all-one-value would otherwise converge

    def test_posterior_and_halfwidths(self):
        est = PosteriorEstimator(2)
        with pytest.raises(ValueError):
            est.posterior
        assert np.all(np.isinf(est.half_widths()))
        est.add_batch(np.array([0, 0, 1, 0]))
        assert est.posterior.tolist() == [0.75, 0.25]

    def test_validation(self):
        with pytest.raises(ValueError):
            PosteriorEstimator(1)
        with pytest.raises(ValueError):
            PosteriorEstimator(2, precision=0.7)



class TestSerialLogicSampling:
    def test_estimates_known_marginal(self):
        from tests.bayes.test_network import paper_figure1_network

        net = paper_figure1_network()
        r = run_serial_logic_sampling(net, query=1, seed=0)
        assert r.converged
        # P(B=true) = 0.22 (total probability over A)
        assert r.posterior[1] == pytest.approx(0.22, abs=0.02)

    def test_sim_time_scales_with_network_size(self):
        small = make_random_network(10, 12, seed=1)
        big = make_random_network(54, 119, seed=1)
        rs = run_serial_logic_sampling(small, query=max(small.nodes), seed=2)
        rb = run_serial_logic_sampling(big, query=max(big.nodes), seed=2)
        assert rb.sim_time > rs.sim_time

    def test_argument_validation(self):
        from tests.bayes.test_network import paper_figure1_network

        net = paper_figure1_network()
        with pytest.raises(KeyError):
            run_serial_logic_sampling(net, query=99)

    def test_max_runs_cap(self, monkeypatch):
        from tests.bayes.test_network import paper_figure1_network

        monkeypatch.setattr(logic_sampling, "MAX_RUNS", 128)
        net = paper_figure1_network()
        r = run_serial_logic_sampling(net, query=1, seed=0)
        assert not r.converged
        assert r.n_runs <= 128
