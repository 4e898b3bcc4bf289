"""Posterior estimation with the paper's confidence stopping rule.

§4.3: "we run the programs to estimate the posterior conditional
probability distribution of the query nodes in the belief network with
90% confidence intervals to a precision of ±0.01."

The estimator counts committed runs per query-node value and stops when
the normal-approximation CI half-width ``z * sqrt(p(1-p)/n)`` of every
value's frequency is within the precision (z = 1.645 for 90 %).  A
minimum sample count guards the normal approximation at extreme p.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.inputs import at_least, check_fields, positive

#: two-sided z for a 90 % confidence interval
Z_90 = 1.6448536269514722
#: no verdict before this many committed runs (guards the normal
#: approximation at extreme p)
MIN_SAMPLES = 100


@dataclass
class PosteriorEstimator:
    """Running posterior estimate for one query node."""

    n_values: int = at_least(2)
    precision: float = positive(below=0.5, default=0.01)
    counts: np.ndarray = field(init=False)
    n: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        check_fields(self)
        self.counts = np.zeros(self.n_values, dtype=np.int64)

    def add(self, value: int) -> None:
        """Fold one committed run's query-node value in."""
        self.counts[value] += 1
        self.n += 1

    def add_batch(self, values: np.ndarray) -> None:
        """Fold a batch of accepted sample values into the running posterior."""
        self.counts += np.bincount(values, minlength=self.n_values)
        self.n += len(values)

    @property
    def posterior(self) -> np.ndarray:
        """Current normalized posterior estimate over the query's values."""
        if self.n == 0:
            raise ValueError("no committed samples yet")
        return self.counts / self.n

    def half_widths(self) -> np.ndarray:
        """CI half-width of each value's estimated frequency."""
        if self.n == 0:
            return np.full(self.n_values, np.inf)
        p = self.posterior
        return Z_90 * np.sqrt(p * (1.0 - p) / self.n)

    @property
    def converged(self) -> bool:
        """True when every value's CI is within the target precision."""
        if self.n < MIN_SAMPLES:
            return False
        return bool(np.all(self.half_widths() <= self.precision))
