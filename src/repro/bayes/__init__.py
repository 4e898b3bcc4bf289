"""Probabilistic inference in Bayesian belief networks (§3.2, §4.2.2).

Implements, from scratch:

* belief-network representation with CPT validation
  (:mod:`repro.bayes.network`),
* the four Table 2 networks — random A/AA/C generators and a synthetic
  Hailfinder with matching structural statistics
  (:mod:`repro.bayes.random_nets`, :mod:`repro.bayes.hailfinder`),
* serial *logic sampling* [Pearl 1988] with the paper's 90 % ±0.01
  confidence stopping rule (:mod:`repro.bayes.logic_sampling`,
  :mod:`repro.bayes.confidence`),
* the parallel samplers (:mod:`repro.bayes.parallel`): synchronous
  (staged lock-step exchange), fully asynchronous with default-value
  gambling and rollback via corrections/anti-messages
  (:mod:`repro.bayes.rollback` — "synchronization via rollback" [2]),
  and the Global_Read-throttled partially asynchronous version,
* the calibrated cost model (:mod:`repro.bayes.costs`) reproducing
  Table 2's uniprocessor inference times.
"""

from repro.bayes.network import BayesianNetwork, BayesNode
from repro.bayes.random_nets import make_random_network, make_table2_network
from repro.bayes.hailfinder import make_hailfinder
from repro.bayes.confidence import PosteriorEstimator
from repro.bayes.logic_sampling import SerialLsResult, run_serial_logic_sampling
from repro.bayes.parallel import ParallelLsConfig, ParallelLsResult, run_parallel_logic_sampling

__all__ = [
    "BayesianNetwork",
    "BayesNode",
    "make_random_network",
    "make_table2_network",
    "make_hailfinder",
    "PosteriorEstimator",
    "SerialLsResult",
    "run_serial_logic_sampling",
    "ParallelLsConfig",
    "ParallelLsResult",
    "run_parallel_logic_sampling",
]
