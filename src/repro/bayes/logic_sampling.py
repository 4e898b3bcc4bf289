"""Serial logic sampling (the uniprocessor baseline of Table 2).

Pearl's logic-sampling algorithm: draw full ancestral samples of the
network; the posterior of a query node is the frequency of its values
over accepted runs.  With evidence, runs whose evidence nodes disagree
with the observation are rejected (the algorithm's classic weakness —
and one reason real networks "tend to be large and complex" to infer
on, motivating the parallel implementations).

Simulated time is charged per node-sample via :class:`LsCostModel`,
reproducing Table 2's uniprocessor inference times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bayes.confidence import PosteriorEstimator
from repro.bayes.costs import LsCostModel
from repro.bayes.network import BayesianNetwork


@dataclass
class SerialLsResult:
    """Outcome of one serial inference run."""

    network: str
    query: int
    posterior: np.ndarray
    n_runs: int
    n_accepted: int
    sim_time: float
    converged: bool


def run_serial_logic_sampling(
    net: BayesianNetwork,
    query: int,
    evidence: dict[int, int] | None = None,
    seed: int = 0,
    precision: float = 0.01,
    costs: LsCostModel | None = None,
    batch: int = 64,
    max_runs: int = 500_000,
) -> SerialLsResult:
    """Estimate ``P(query | evidence)`` to the paper's precision.

    Samples in vectorised batches; the CI check runs once per batch
    (charged via the cost model).  ``max_runs`` bounds pathological
    evidence whose acceptance rate would make the run unbounded.
    """
    if query not in net.nodes:
        raise KeyError(f"unknown query node {query}")
    evidence = dict(evidence or {})
    for e in evidence:
        if e not in net.nodes:
            raise KeyError(f"unknown evidence node {e}")
        if not 0 <= evidence[e] < net.nodes[e].n_values:
            raise ValueError(f"evidence value out of range for node {e}")
    if query in evidence:
        raise ValueError("query node cannot also be evidence")
    costs = costs or LsCostModel()
    rng = np.random.default_rng(seed)
    names = sorted(net.nodes)
    qcol = names.index(query)
    ecols = [(names.index(e), v) for e, v in sorted(evidence.items())]

    est = PosteriorEstimator(net.nodes[query].n_values, precision=precision)
    sim_time = 0.0
    n_runs = 0
    while n_runs < max_runs:
        samples = net.ancestral_samples(batch, rng)
        n_runs += batch
        sim_time += batch * costs.iteration_cost(net.n_nodes)
        accept = np.ones(batch, dtype=bool)
        for col, v in ecols:
            accept &= samples[:, col] == v
        accepted = samples[accept, qcol]
        if accepted.size:
            est.add_batch(accepted)
            sim_time += accepted.size * costs.commit_per_iter
        sim_time += costs.ci_check
        if est.converged:
            break
    return SerialLsResult(
        network=net.name,
        query=query,
        posterior=est.posterior if est.n else np.array([]),
        n_runs=n_runs,
        n_accepted=est.n,
        sim_time=sim_time,
        converged=est.converged,
    )
