"""Shared fixtures: one traced GA run and one traced Bayes run.

The traced runs are module-scoped because they are the expensive part;
every test in this package reads from the same bus/result pair, which
is itself a determinism statement (the assertions about event ordering
and metric stability hold on whichever run the session built first).
"""

import pytest

from repro.experiments.traced import traced_bayes_run, traced_ga_run


@pytest.fixture(scope="session")
def ga_run():
    """One traced 2-deme smoke-scale GA run (Global_Read, age=last)."""
    return traced_ga_run(n_demes=2, seed=7)


@pytest.fixture(scope="session")
def bayes_run():
    """One traced 2-processor smoke-scale Hailfinder run."""
    return traced_bayes_run(n_procs=2, seed=7)
