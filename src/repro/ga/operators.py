"""Generational GA operators with DeJong's parameterisation.

§4.2.1: "Our experiments are limited to a particular class of GAs
characterized by the following six parameters: population size (N),
crossover rate (C), mutation rate (M), generation gap (G), scaling window
(W), selection strategy (S).  Based on DeJong's work, the parameter
settings which we use in our experiments are: N=50, C=0.6, M=0.001, G=1,
W=1, and S=E."

* Selection: roulette wheel on scaled fitness.  Minimisation objective
  ``f`` becomes selection weight ``f_worst - f``, where ``f_worst`` is
  the worst objective over the last ``W`` generations (the *scaling
  window*).  W=1 means "the worst of the current generation".
* Crossover: single-point at rate C over mating pairs.
* Mutation: independent bit flips at rate M.
* S=E (elitist): the best individual of generation *t* replaces the worst
  of generation *t+1* if it did not survive.
* G=1: full generational replacement (the elitist slot aside).

Only N varies between runs, so it is the one field of :class:`GaParams`;
C and M are module constants, and W=1, S=E and G=1 are the shape of
:func:`evolve_one_generation`.  All operators are numpy-vectorised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ga.population import Population
from repro.inputs import at_least, check_fields

#: DeJong's crossover rate C
CROSSOVER_RATE = 0.6
#: DeJong's mutation rate M
MUTATION_RATE = 0.001


@dataclass
class GaParams:
    """DeJong's population size N (default = the paper's 50), the one GA
    parameter a run varies."""

    population_size: int = at_least(2, default=50)

    def __post_init__(self) -> None:
        check_fields(self)


def selection_weights(fitness: np.ndarray, baseline: float) -> np.ndarray:
    """Scaled roulette weights for minimisation: ``baseline - f``, clipped
    at 0, uniform fallback when the population is flat."""
    w = np.maximum(baseline - fitness, 0.0)
    total = w.sum()
    if total <= 0.0:
        return np.full(fitness.shape, 1.0 / fitness.size)
    return w / total


def roulette_select(
    fitness: np.ndarray, baseline: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Indices of ``n`` parents drawn by fitness-proportionate selection.

    The inverse-CDF draw ``Generator.choice(size=n, p=weights)`` makes,
    without its argument checks: same indices, same stream position
    (DESIGN.md §8).
    """
    cdf = selection_weights(fitness, baseline).cumsum()
    total = cdf[-1]
    if total != total:
        raise ValueError("probabilities contain NaN")
    cdf /= total
    return cdf.searchsorted(rng.random(n), side="right")


def single_point_crossover(
    parents_a: np.ndarray,
    parents_b: np.ndarray,
    rate: float,
    rng: np.random.Generator,
    cols: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised single-point crossover over paired parent arrays
    (``cols`` is the caller's ``np.arange(L)``)."""
    n, length = parents_a.shape
    do = rng.random(n) < rate
    # a pair that does not cross cuts past the last column
    points = np.where(do, rng.integers(1, length, size=n), length)
    # the children differ from their parents where the parents differ
    # at or after the cut
    diff = (parents_a ^ parents_b) * (cols >= points[:, None])
    return parents_a ^ diff, parents_b ^ diff


def mutate(genomes: np.ndarray, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Independent bit flips at ``rate`` (returns a new array)."""
    return genomes ^ (rng.random(genomes.shape) < rate)


def evolve_one_generation(
    pop: Population,
    evaluate,
    rng: np.random.Generator,
    cols: np.ndarray,
) -> Population:
    """One full generational step (select -> crossover -> mutate -> elitism).

    ``evaluate`` maps an (n, L) genome array to (n,) objective values
    (n = ``pop.size``); the caller supplies a fitness-cache-wrapped
    evaluator so surviving individuals are not re-evaluated (the
    software-caching optimisation of [19]).

    Four draws per generation, in this order, are the pinned stream
    (DESIGN.md §8): ``random(2h)``, ``random(h)``, ``integers(1, L, h)``
    and ``random((n, L))`` with ``h = ceil(n / 2)``.
    """
    genomes, fitness = pop.genomes, pop.fitness
    n = fitness.size
    # W=1: the scaling baseline is the worst of this generation
    idx = roulette_select(fitness, float(fitness.max()), n + (n % 2), rng)
    parents = genomes[idx]
    ca, cb = single_point_crossover(
        parents[0::2], parents[1::2], CROSSOVER_RATE, rng, cols
    )
    children = mutate(np.concatenate([ca, cb])[:n], MUTATION_RATE, rng)
    new_pop = Population(children, evaluate(children))
    best = fitness.argmin()
    if fitness[best] < new_pop.fitness.min():
        worst = new_pop.fitness.argmax()
        new_pop.genomes[worst] = genomes[best]
        new_pop.fitness[worst] = fitness[best]
    return new_pop
