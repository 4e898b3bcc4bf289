"""Golden end-to-end digests: one small GA config, one small Bayes config.

These pin the *application-visible* results of the simulator — any
kernel "optimisation" that reorders same-instant events, changes RNG
consumption order, or alters signal wakeup order will shift them.
"""

from repro.bayes.parallel import run_parallel_logic_sampling
from repro.check import GOLDEN, bayes_digest, ga_digest, golden_bayes, golden_ga
from repro.ga.island import run_island_ga
from repro.util import digest_values


def test_ga_digest_matches_golden():
    assert ga_digest(run_island_ga(golden_ga())) == GOLDEN["ga_result"]


def test_bayes_digest_matches_golden():
    result = run_parallel_logic_sampling(golden_bayes())
    assert bayes_digest(result) == GOLDEN["bayes_result"]


def test_digest_values_canonicalises_numpy_scalars():
    import numpy as np

    assert digest_values(1.5, [2.0, 3.0]) == digest_values(
        np.float64(1.5), np.array([2.0, 3.0])
    )
    assert digest_values(7) == digest_values(np.int64(7))
    assert digest_values(1.5) != digest_values(1.5000001)
