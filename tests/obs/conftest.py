"""Shared fixtures: one traced GA run and one traced Bayes run.

The traced runs are module-scoped because they are the expensive part;
every test in this package reads from the same bus/result pair, which
is itself a determinism statement (the assertions about event ordering
and metric stability hold on whichever run the session built first).
"""

from dataclasses import replace

import pytest

from repro.experiments import traced
from repro.experiments.config import current_scale
from repro.experiments.traced import traced_bayes_run, traced_ga_run


def two_deme_ga_run(seed: int, **scale_fields) -> traced.TracedRun:
    """``traced_ga_run(n_demes=2)`` with its seed patched to ``seed``, on
    the current scale with ``scale_fields`` (``ages``, ``ga_generations``)
    replaced."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(traced, "GA_SEED", seed)
        return traced_ga_run(replace(current_scale(), **scale_fields), n_demes=2)


@pytest.fixture(scope="session")
def ga_run():
    """One traced 2-deme smoke-scale GA run (Global_Read, age=last)."""
    return two_deme_ga_run(7)


@pytest.fixture(scope="session")
def bayes_run():
    """One traced 2-processor smoke-scale Hailfinder run."""
    return traced_bayes_run(current_scale(), n_procs=2)
