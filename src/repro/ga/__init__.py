"""Genetic algorithms: the paper's first driver application (§3.1, §4.2.1).

Implements, from scratch:

* the eight-function minimisation test bed of Table 1
  (:mod:`repro.ga.functions` — DeJong F1–F5 plus Mühlenbein's Rastrigin,
  Schwefel and Griewank),
* binary chromosome encoding/decoding (:mod:`repro.ga.encoding`),
* DeJong-parameterised generational GA machinery — roulette selection
  with scaling window, single-point crossover, bit mutation, elitism
  (:mod:`repro.ga.operators`),
* the software fitness cache of [19] (:mod:`repro.ga.fitness_cache`),
* the optimised *serial* GA baseline (:mod:`repro.ga.sga`),
* the island-model parallel GA in its synchronous, fully asynchronous and
  Global_Read (partially asynchronous) forms (:mod:`repro.ga.island`),
* the calibrated compute-cost model (:mod:`repro.ga.costs`).

Paper parameter settings (§4.2.1): N=50, C=0.6, M=0.001, G=1, W=1, S=E.
"""

from repro.ga.functions import TEST_FUNCTIONS, TestFunction, get_function
from repro.ga.encoding import BinaryEncoding
from repro.ga.population import Population
from repro.ga.operators import GaParams, evolve_one_generation
from repro.ga.fitness_cache import FitnessCache
from repro.ga.sga import SerialGaResult, run_serial_ga
from repro.ga.island import IslandGaConfig, IslandGaResult, run_island_ga

__all__ = [
    "TEST_FUNCTIONS",
    "TestFunction",
    "get_function",
    "BinaryEncoding",
    "Population",
    "GaParams",
    "evolve_one_generation",
    "FitnessCache",
    "SerialGaResult",
    "run_serial_ga",
    "IslandGaConfig",
    "IslandGaResult",
    "run_island_ga",
]
