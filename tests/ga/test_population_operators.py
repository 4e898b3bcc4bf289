"""Population container and generational operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ga.operators import (
    GaParams,
    ScalingWindow,
    mutate,
    roulette_select,
    selection_weights,
    single_point_crossover,
)
from repro.ga.population import Population


def make_pop(fit):
    fit = np.asarray(fit, dtype=float)
    rng = np.random.default_rng(0)
    return Population(rng.integers(0, 2, size=(fit.size, 12), dtype=np.uint8), fit)


class TestPopulation:
    def test_best_worst_queries(self):
        pop = make_pop([3.0, 1.0, 2.0])
        assert pop.best_fitness == 1.0
        assert pop.mean_fitness == pytest.approx(2.0)
        assert pop.size == 3

    def test_best_individuals_sorted(self):
        pop = make_pop([3.0, 1.0, 2.0])
        g, f = pop.best_individuals(2)
        assert f.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError):
            pop.best_individuals(0)
        with pytest.raises(ValueError):
            pop.best_individuals(4)

    def test_replace_worst_improves(self):
        pop = make_pop([10.0, 20.0, 30.0])
        migr_g = np.ones((2, 12), dtype=np.uint8)
        migr_g[1, 0] = 0  # make them distinct
        installed = pop.replace_worst(migr_g, np.array([5.0, 15.0]))
        assert installed == 2
        assert sorted(pop.fitness.tolist()) == [5.0, 10.0, 15.0]

    def test_replace_worst_never_degrades(self):
        pop = make_pop([1.0, 2.0, 3.0])
        before = pop.fitness.copy()
        installed = pop.replace_worst(
            np.ones((2, 12), dtype=np.uint8), np.array([50.0, 60.0])
        )
        assert installed == 0
        assert np.array_equal(pop.fitness, before)

    def test_replace_worst_skips_duplicates(self):
        pop = make_pop([10.0, 20.0])
        dup = pop.genomes[0].copy()
        installed = pop.replace_worst(dup[None, :], np.array([0.5]))
        assert installed == 0  # identical chromosome not reinstalled

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Population(np.zeros((3, 4), dtype=np.uint8), np.zeros(2))
        with pytest.raises(ValueError):
            Population(np.zeros(4, dtype=np.uint8), np.zeros(1))
        pop = make_pop([1.0, 2.0])
        with pytest.raises(ValueError):
            pop.replace_worst(np.zeros((2, 12), dtype=np.uint8), np.zeros(1))


class TestScalingWindow:
    def test_w1_uses_current_generation(self):
        w = ScalingWindow(window=1)
        w.update(10.0)
        assert w.scaling_baseline == 10.0
        w.update(5.0)
        assert w.scaling_baseline == 5.0

    def test_w3_remembers_recent_worst(self):
        w = ScalingWindow(window=3)
        for v in (10.0, 7.0, 5.0):
            w.update(v)
        assert w.scaling_baseline == 10.0
        w.update(4.0)  # 10.0 falls out of the window
        assert w.scaling_baseline == 7.0

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            ScalingWindow().scaling_baseline


class TestSelection:
    def test_weights_favor_fitter_minimisation(self):
        f = np.array([1.0, 5.0, 9.0])
        w = selection_weights(f, baseline=9.0)
        assert w[0] > w[1] > w[2] == 0.0
        assert w.sum() == pytest.approx(1.0)

    def test_flat_population_uniform(self):
        w = selection_weights(np.array([3.0, 3.0]), baseline=3.0)
        assert np.allclose(w, 0.5)

    def test_roulette_distribution(self):
        rng = np.random.default_rng(0)
        f = np.array([0.0, 10.0])
        idx = roulette_select(f, baseline=10.0, n=2000, rng=rng)
        assert np.all(idx == 0)  # second has zero weight


class TestCrossoverMutation:
    def test_crossover_rate_zero_copies_parents(self):
        rng = np.random.default_rng(1)
        a = np.zeros((5, 10), dtype=np.uint8)
        b = np.ones((5, 10), dtype=np.uint8)
        ca, cb = single_point_crossover(a, b, rate=0.0, rng=rng)
        assert np.array_equal(ca, a) and np.array_equal(cb, b)

    def test_crossover_rate_one_swaps_suffixes(self):
        rng = np.random.default_rng(2)
        a = np.zeros((20, 10), dtype=np.uint8)
        b = np.ones((20, 10), dtype=np.uint8)
        ca, cb = single_point_crossover(a, b, rate=1.0, rng=rng)
        for row_a, row_b in zip(ca, cb):
            # each child is a prefix of one parent + suffix of the other
            k = int(np.argmax(row_a == 1)) if row_a.any() else 10
            assert np.all(row_a[:k] == 0) and np.all(row_a[k:] == 1)
            assert np.all(row_b[:k] == 1) and np.all(row_b[k:] == 0)
            assert 1 <= k <= 9 or not row_a.any() is False

    def test_crossover_preserves_multiset_of_bits_per_column(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 2, (30, 16), dtype=np.uint8)
        b = rng.integers(0, 2, (30, 16), dtype=np.uint8)
        ca, cb = single_point_crossover(a, b, rate=0.7, rng=rng)
        assert np.array_equal(ca + cb, a + b)

    def test_mutation_rate_statistics(self):
        rng = np.random.default_rng(4)
        g = np.zeros((100, 100), dtype=np.uint8)
        m = mutate(g, rate=0.01, rng=rng)
        flipped = m.sum()
        assert 50 <= flipped <= 150  # ~100 expected
        assert not np.shares_memory(m, g)

    def test_mutation_zero_is_identity(self):
        rng = np.random.default_rng(5)
        g = rng.integers(0, 2, (10, 20), dtype=np.uint8)
        assert np.array_equal(mutate(g, 0.0, rng), g)


class TestParams:
    def test_paper_defaults(self):
        p = GaParams()
        assert (p.population_size, p.crossover_rate, p.mutation_rate) == (50, 0.6, 0.001)
        assert p.scaling_window == 1 and p.elitist

    def test_validation(self):
        with pytest.raises(ValueError):
            GaParams(population_size=1)
        with pytest.raises(ValueError):
            GaParams(crossover_rate=1.5)
        with pytest.raises(ValueError):
            GaParams(mutation_rate=-0.1)
        with pytest.raises(ValueError):
            GaParams(generation_gap=0.5)
        with pytest.raises(ValueError):
            GaParams(scaling_window=0)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=40),
    rate=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=500),
)
def test_property_crossover_children_bits_come_from_parents(n, rate, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, (n, 24), dtype=np.uint8)
    b = rng.integers(0, 2, (n, 24), dtype=np.uint8)
    ca, cb = single_point_crossover(a, b, rate, rng)
    # column-wise conservation: crossover only exchanges aligned bits
    assert np.array_equal(np.sort(np.stack([ca, cb]), axis=0),
                          np.sort(np.stack([a, b]), axis=0))
