"""Calibrated cost model for logic sampling.

Calibrated against Table 2's uniprocessor inference times: the random
54-node binary networks take 11.12–11.81 s and Hailfinder 3.15 s on the
77 MHz reference node.  With the paper's stopping rule (90 % CI to
±0.01), a mid-range posterior needs ≈ (1.645/0.01)²·p(1−p) ≈ up to
≈ 6.8 k samples; 6.8 k samples × 54 nodes × ~30 µs/node-sample ≈ 11 s —
so ~30 µs per node-sample (≈ 2300 cycles at 77 MHz for a CPT row lookup,
a random draw and bookkeeping) reproduces the random-network row, and
Hailfinder's skewed posteriors need fewer samples, reproducing its 3.15 s
without any extra tuning.  The constants are the calibration, fixed like
the paper's testbed: no run varies them.
"""

from __future__ import annotations

#: baseline seconds of sampling one node for one run (CPT lookup + draw)
SAMPLE_PER_NODE = 30e-6
#: folding one committed run into the posterior counts
COMMIT_PER_ITER = 2e-6
#: one confidence-interval convergence check
CI_CHECK = 20e-6
#: processing one arriving interface-value batch (unpack + compare)
APPLY_BATCH_BASE = 10e-6
APPLY_BATCH_PER_VALUE = 1e-6


def iteration_cost(n_nodes: int) -> float:
    """Sampling one full run over ``n_nodes`` local nodes."""
    return SAMPLE_PER_NODE * n_nodes
