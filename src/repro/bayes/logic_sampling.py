"""Serial logic sampling (the uniprocessor baseline of Table 2).

Pearl's logic-sampling algorithm: draw full ancestral samples of the
network; the posterior of a query node is the frequency of its values
over the runs.  Table 2 and Figure 3 infer with no evidence, so every run
counts (with evidence, runs that disagree with the observation would be
rejected — the algorithm's classic weakness).

Simulated time is charged per node-sample via :mod:`repro.bayes.costs`,
reproducing Table 2's uniprocessor inference times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bayes.confidence import PosteriorEstimator
from repro.bayes.costs import CI_CHECK, COMMIT_PER_ITER, iteration_cost
from repro.bayes.network import BayesianNetwork

#: runs sampled per vectorised batch; the CI check runs once per batch
BATCH = 64
#: hard cap on the runs of one inference
MAX_RUNS = 500_000


@dataclass
class SerialLsResult:
    """Outcome of one serial inference run."""

    network: str
    query: int
    posterior: np.ndarray
    n_runs: int
    sim_time: float
    converged: bool


def run_serial_logic_sampling(
    net: BayesianNetwork,
    query: int,
    seed: int = 0,
    precision: float = 0.01,
) -> SerialLsResult:
    """Estimate ``P(query)`` to the paper's precision.

    Samples in batches of :data:`BATCH` runs; the CI check runs once per
    batch (charged via the cost model), for at most :data:`MAX_RUNS` runs.
    """
    if query not in net.nodes:
        raise KeyError(f"unknown query node {query}")
    rng = np.random.default_rng(seed)
    qcol = sorted(net.nodes).index(query)

    est = PosteriorEstimator(net.nodes[query].n_values, precision=precision)
    sim_time = 0.0
    n_runs = 0
    while n_runs < MAX_RUNS:
        samples = net.ancestral_samples(BATCH, rng)
        n_runs += BATCH
        sim_time += BATCH * iteration_cost(net.n_nodes)
        est.add_batch(samples[:, qcol])
        sim_time += BATCH * COMMIT_PER_ITER
        sim_time += CI_CHECK
        if est.converged:
            break
    return SerialLsResult(
        network=net.name,
        query=query,
        posterior=est.posterior,
        n_runs=n_runs,
        sim_time=sim_time,
        converged=est.converged,
    )
