"""The optimised serial GA baseline.

§5: "Speedups for the parallel programs are reported with respect to
corresponding sequential programs, which we optimized to a good extent
(e.g. ... a software caching technique to reduce the recomputation of
fitness values of surviving individuals)."

The serial GA runs the identical generational machinery the demes use and
accounts simulated time through the same :class:`GaCostModel`, so serial
vs. parallel completion times are directly comparable.  Its trajectory
(best-so-far per generation with timestamps) provides both the speedup
denominator and the convergence *target* the asynchronous variants must
reach (§5.1.1: convergence "further than the synchronous version").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ga.costs import GaCostModel
from repro.ga.encoding import BinaryEncoding
from repro.ga.fitness_cache import FitnessCache
from repro.ga.functions import TestFunction, reseed_f4
from repro.ga.operators import GaParams, ScalingWindow, evolve_one_generation
from repro.ga.population import Population


@dataclass
class SerialGaResult:
    """Trajectory and totals of one serial run."""

    fid: int
    n_generations: int
    sim_time: float
    best_fitness: float
    mean_fitness: float
    #: best-so-far after each generation
    best_history: np.ndarray = field(repr=False, default=None)
    #: simulated completion time of each generation
    time_history: np.ndarray = field(repr=False, default=None)
    evaluations: int = 0
    cache_hit_rate: float = 0.0

    def time_to_target(self, target: float) -> float | None:
        """Earliest simulated time at which best-so-far <= target."""
        hit = np.nonzero(self.best_history <= target)[0]
        return float(self.time_history[hit[0]]) if hit.size else None


def run_serial_ga(
    fn: TestFunction,
    seed: int = 0,
    n_generations: int = 1000,
    params: GaParams | None = None,
    costs: GaCostModel | None = None,
    gray: bool = False,
    population_size: int | None = None,
) -> SerialGaResult:
    """Run the serial GA on ``fn`` and return its full trajectory.

    Deterministic in ``seed`` (including F4's evaluation noise, reseeded
    per run).  ``population_size`` overrides the DeJong N=50 when the
    caller scales total population (the parallel experiments keep the
    serial baseline at N=50, as the paper does).
    """
    params = params or GaParams()
    if population_size is not None:
        params = GaParams(
            population_size=population_size,
            crossover_rate=params.crossover_rate,
            mutation_rate=params.mutation_rate,
            scaling_window=params.scaling_window,
            elitist=params.elitist,
        )
    costs = costs or GaCostModel()
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(fn.fid,)))
    reseed_f4(seed * 8 + fn.fid)
    enc = BinaryEncoding.for_function(fn, gray=gray)
    cache = FitnessCache(lambda g: fn(enc.decode(g)), enabled=not fn.noisy)

    genomes = enc.random_population(params.population_size, rng)
    pop = Population(genomes, cache(genomes))
    scaling = ScalingWindow(window=params.scaling_window)
    cols = np.arange(enc.length)

    sim_time = 0.0
    best_hist = np.empty(n_generations + 1)
    time_hist = np.empty(n_generations + 1)
    best_so_far = pop.best_fitness
    sim_time += costs.generation_cost(fn, params.population_size, cache.misses)
    best_hist[0], time_hist[0] = best_so_far, sim_time

    for g in range(1, n_generations + 1):
        misses_before = cache.misses
        pop = evolve_one_generation(pop, params, scaling, cache, rng, cols)
        new_evals = cache.misses - misses_before
        sim_time += costs.generation_cost(fn, params.population_size, new_evals)
        best_so_far = min(best_so_far, pop.best_fitness)
        best_hist[g], time_hist[g] = best_so_far, sim_time

    return SerialGaResult(
        fid=fn.fid,
        n_generations=n_generations,
        sim_time=sim_time,
        best_fitness=best_so_far,
        mean_fitness=pop.mean_fitness,
        best_history=best_hist,
        time_history=time_hist,
        evaluations=cache.misses,
        cache_hit_rate=cache.hit_rate,
    )
