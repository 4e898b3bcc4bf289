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
generation.  The constants are the calibration, fixed like the paper's
testbed: no run varies them.
"""

from __future__ import annotations

from repro.ga.functions import TestFunction

#: baseline seconds of one fitness evaluation (decode + call overhead)
EVAL_BASE = 0.08e-3
#: additional evaluation cost per variable (loops over dimensions)
EVAL_PER_VAR = 0.008e-3
#: extra factor for transcendental-heavy functions (sin/cos/sqrt)
TRANSCENDENTAL_FACTOR = 2.0
#: selection + crossover + mutation cost per individual per generation
GENOP_PER_INDIVIDUAL = 0.08e-3
#: migrant incorporation cost per migrant considered
INCORPORATE_PER_MIGRANT = 0.005e-3
#: fitness-cache lookup cost per individual (hits still pay this)
CACHE_LOOKUP = 0.004e-3


def eval_cost(fn: TestFunction) -> float:
    """Baseline seconds for ONE fitness evaluation of ``fn``."""
    base = EVAL_BASE + EVAL_PER_VAR * fn.n_vars
    if fn.fid in (5, 6, 7, 8):  # foxholes/rastrigin/schwefel/griewank
        base *= TRANSCENDENTAL_FACTOR
    return base


def generation_cost(fn: TestFunction, population: int, evaluations: int) -> float:
    """Baseline seconds for one generation: ``evaluations`` cache misses
    plus genetic operators and cache lookups over the whole population."""
    return (
        evaluations * eval_cost(fn)
        + population * (GENOP_PER_INDIVIDUAL + CACHE_LOOKUP)
    )
