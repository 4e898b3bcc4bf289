"""Fitness cache and serial GA behaviour."""

import numpy as np
import pytest

from repro.ga import FitnessCache, get_function, run_serial_ga
from repro.ga import costs, fitness_cache


class TestFitnessCache:
    def test_caches_identical_genomes(self):
        calls = []

        def ev(g):
            calls.append(g.shape[0])
            return g.sum(axis=1).astype(float)

        cache = FitnessCache(ev)
        g = np.array([[1, 0], [1, 0], [0, 1]], dtype=np.uint8)
        out1 = cache(g)
        assert out1.tolist() == [1.0, 1.0, 1.0]
        assert cache.misses == 2 and cache.hits == 1  # [1,0] evaluated once
        out2 = cache(g)
        assert np.array_equal(out1, out2)
        assert cache.hits == 4
        assert sum(calls) == 2

    def test_disabled_cache_is_passthrough(self):
        cache = FitnessCache(lambda g: g.sum(axis=1).astype(float), enabled=False)
        g = np.zeros((3, 4), dtype=np.uint8)
        cache(g)
        cache(g)
        assert cache.misses == 6 and cache.hits == 0
        assert len(cache) == 0

    def test_lru_bound(self, monkeypatch):
        monkeypatch.setattr(fitness_cache, "MAX_ENTRIES", 4)
        cache = FitnessCache(lambda g: g.sum(axis=1).astype(float))
        rng = np.random.default_rng(0)
        for _ in range(10):
            cache(rng.integers(0, 2, (3, 16), dtype=np.uint8))
        assert len(cache) <= 4

    def test_keys_are_row_bytes_for_any_memory_layout(self):
        """One ``tobytes()`` sliced per row keys exactly like per-row
        ``tobytes()``, including for strided views and wider dtypes."""
        cache = FitnessCache(lambda g: g.sum(axis=1).astype(float))
        wide = np.arange(60, dtype=np.int64).reshape(6, 10)
        view = wide[::2, 1::3]  # non-contiguous rows
        assert not view.flags.c_contiguous
        cache(view)
        assert list(cache._store) == [row.tobytes() for row in view]
        cache(np.ascontiguousarray(view))
        assert cache.misses == 3 and cache.hits == 3

    def test_hit_rate(self):
        cache = FitnessCache(lambda g: g.sum(axis=1).astype(float))
        assert cache.hit_rate == 0.0
        g = np.zeros((1, 4), dtype=np.uint8)
        cache(g)
        cache(g)
        assert cache.hit_rate == 0.5


class TestCostModel:
    def test_eval_cost_grows_with_dims_and_transcendentals(self):
        assert costs.eval_cost(get_function(4)) > costs.eval_cost(get_function(1))
        # rastrigin (20 vars, transcendental) costs more than sphere (3 vars)
        assert costs.eval_cost(get_function(6)) > 2 * costs.eval_cost(get_function(1))

    def test_generation_cost_components(self):
        fn = get_function(1)
        c0 = costs.generation_cost(fn, population=50, evaluations=0)
        c10 = costs.generation_cost(fn, population=50, evaluations=10)
        assert c10 - c0 == pytest.approx(10 * costs.eval_cost(fn))
        assert c0 == pytest.approx(50 * (costs.GENOP_PER_INDIVIDUAL + costs.CACHE_LOOKUP))


class TestSerialGa:
    def test_deterministic_given_seed(self):
        fn = get_function(1)
        a = run_serial_ga(fn, seed=3, n_generations=40)
        b = run_serial_ga(fn, seed=3, n_generations=40)
        assert a.best_fitness == b.best_fitness
        assert a.sim_time == b.sim_time
        c = run_serial_ga(fn, seed=4, n_generations=40)
        assert c.best_fitness != a.best_fitness or c.sim_time != a.sim_time

    def test_best_history_monotone_nonincreasing(self):
        r = run_serial_ga(get_function(6), seed=1, n_generations=60)
        assert np.all(np.diff(r.best_history) <= 1e-12)
        assert np.all(np.diff(r.time_history) > 0)

    def test_sphere_converges_toward_zero(self):
        r = run_serial_ga(get_function(1), seed=0, n_generations=150)
        assert r.best_fitness < 0.05
        assert r.best_fitness <= 0.05

    def test_elitism_from_params(self):
        """With the paper's S=E the running best never regresses (checked
        via history)."""
        r = run_serial_ga(get_function(2), seed=5, n_generations=80)
        assert r.best_history[-1] <= r.best_history[0]

    def test_cache_active_for_deterministic_functions(self):
        r = run_serial_ga(get_function(1), seed=1, n_generations=100)
        assert 0.0 < r.cache_hit_rate < 1.0
        assert r.evaluations < 101 * 50  # strictly fewer than no-cache

    def test_noisy_f4_disables_cache(self):
        r = run_serial_ga(get_function(4), seed=1, n_generations=20)
        assert r.cache_hit_rate == 0.0
        assert r.evaluations == 21 * 50

    def test_time_to_target(self):
        r = run_serial_ga(get_function(1), seed=2, n_generations=100)
        assert r.time_to_target(r.best_fitness) <= r.sim_time
        assert r.time_to_target(-1.0) is None
        # a loose target is hit earlier than a tight one
        t_loose = r.time_to_target(r.best_history[0])
        t_tight = r.time_to_target(r.best_fitness)
        assert t_loose <= t_tight

    def test_population_size_override(self):
        small = run_serial_ga(get_function(1), seed=1, n_generations=10)
        big = run_serial_ga(get_function(1), seed=1, n_generations=10, population_size=200)
        assert big.sim_time > small.sim_time
