"""Calibrated compute-cost model for the GA programs.

The simulation charges per-operation *baseline seconds* (reference node =
the paper's 77 MHz RS/6000-591).  Absolute constants cannot be recovered
from the paper (it reports no uniprocessor GA times), so they are
calibrated to place the experiment in the operating regime the paper
describes — see DESIGN.md and EXPERIMENTS.md:

* DeJong test functions are cheap (tens of microseconds of C at 77 MHz),
  so a deme's per-generation compute is a few **milliseconds** — the same
  order as a single PVM message's software + wire cost.  This is the
  "high communication-to-computation ratio" (§1, §6) that makes these
  benchmarks interesting on a 10 Mbps Ethernet: migration traffic
  dominates as the node count grows, reproducing Figure 2's
  "synchronous and asynchronous versions do not scale well above 8";
* the software fitness cache [19] absorbs most evaluations once the
  population starts converging, so generation cost is dominated by the
  per-individual operator/bookkeeping term.

Evaluation cost is charged per cache *miss* (see
:mod:`repro.ga.fitness_cache`); genetic-operator cost per individual per
generation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ga.functions import TestFunction
from repro.inputs import check_fields, nonnegative, positive


@dataclass(frozen=True)
class GaCostModel:
    """Baseline-seconds costs for GA operations on the reference node."""

    #: fixed cost of one fitness evaluation (decode + call overhead)
    eval_base: float = nonnegative(default=0.08e-3)
    #: additional evaluation cost per variable (loops over dimensions)
    eval_per_var: float = nonnegative(default=0.008e-3)
    #: extra factor for transcendental-heavy functions (sin/cos/sqrt)
    transcendental_factor: float = positive(default=2.0)
    #: selection + crossover + mutation cost per individual per generation
    genop_per_individual: float = nonnegative(default=0.08e-3)
    #: migrant incorporation cost per migrant considered
    incorporate_per_migrant: float = nonnegative(default=0.005e-3)
    #: fitness-cache lookup cost per individual (hits still pay this)
    cache_lookup: float = nonnegative(default=0.004e-3)

    def __post_init__(self) -> None:
        check_fields(self)  # a negative cost would die mid-run, in a deme

    def eval_cost(self, fn: TestFunction) -> float:
        """Baseline seconds for ONE fitness evaluation of ``fn``."""
        base = self.eval_base + self.eval_per_var * fn.n_vars
        if fn.fid in (5, 6, 7, 8):  # foxholes/rastrigin/schwefel/griewank
            base *= self.transcendental_factor
        return base

    def generation_cost(
        self, fn: TestFunction, population: int, evaluations: int
    ) -> float:
        """Baseline seconds for one generation: ``evaluations`` cache
        misses plus genetic operators and cache lookups over the whole
        population."""
        return (
            evaluations * self.eval_cost(fn)
            + population * (self.genop_per_individual + self.cache_lookup)
        )
