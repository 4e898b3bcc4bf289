"""Calibrated cost model for logic sampling.

Calibrated against Table 2's uniprocessor inference times: the random
54-node binary networks take 11.12–11.81 s and Hailfinder 3.15 s on the
77 MHz reference node.  With the paper's stopping rule (90 % CI to
±0.01), a mid-range posterior needs ≈ (1.645/0.01)²·p(1−p) ≈ up to
≈ 6.8 k samples; 6.8 k samples × 54 nodes × ~30 µs/node-sample ≈ 11 s —
so ~30 µs per node-sample (≈ 2300 cycles at 77 MHz for a CPT row lookup,
a random draw and bookkeeping) reproduces the random-network row, and
Hailfinder's skewed posteriors need fewer samples, reproducing its 3.15 s
without any extra tuning.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.inputs import check_fields, nonnegative


@dataclass(frozen=True)
class LsCostModel:
    """Baseline-seconds costs of logic-sampling operations."""

    #: sampling one node for one run (CPT lookup + random draw)
    sample_per_node: float = nonnegative(default=30e-6)
    #: recomputing one node during a rollback (same work as sampling)
    resample_per_node: float = nonnegative(default=30e-6)
    #: folding one committed run into the posterior counts
    commit_per_iter: float = nonnegative(default=2e-6)
    #: one confidence-interval convergence check
    ci_check: float = nonnegative(default=20e-6)
    #: processing one arriving interface-value batch (unpack + compare)
    apply_batch_base: float = nonnegative(default=10e-6)
    apply_batch_per_value: float = nonnegative(default=1e-6)

    def __post_init__(self) -> None:
        check_fields(self)  # a negative cost would die mid-run, in a processor

    def iteration_cost(self, n_nodes: int) -> float:
        """Sampling one full run over ``n_nodes`` local nodes."""
        return self.sample_per_node * n_nodes
