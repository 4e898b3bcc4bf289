"""The sampler's work-conservation contract (ROADMAP item 21(a)).

The simulated seconds the sampling code charges under the ``sample``
label must equal the work it counts times its unit constant: every run
a processor sampled costs ``SAMPLE_PER_NODE`` per node it owns, and
every node a rollback re-sampled costs ``SAMPLE_PER_NODE`` once more.
A loop that does modelled work without charging it fails here.
"""

from dataclasses import replace

import pytest

from repro.bayes import costs
from repro.bayes.parallel import run_parallel_logic_sampling
from repro.check import golden_bayes
from repro.core.coherence import CoherenceMode
from repro.experiments.traced import traced_trial
from repro.partition.multilevel import best_of


def _charged_and_counted(mode: CoherenceMode) -> tuple[float, float, float]:
    """The ``sample`` seconds charged, and the two counted terms: runs
    sampled x own nodes, and nodes a rollback re-sampled, each times
    ``SAMPLE_PER_NODE``."""
    cfg = golden_bayes(max_iterations=2000, mode=mode)
    cfg = replace(cfg, machine=replace(cfg.machine, trace=True))
    result, bus = traced_trial(run_parallel_logic_sampling, cfg)
    assert bus.dropped == 0
    charged = sum(
        ev.get("baseline") for ev in bus.events
        if ev.kind == "node.compute" and ev.get("op") == "sample"
    )
    # the same partition the sampler makes (bayes/parallel.py)
    owner = best_of(cfg.net.skeleton(), cfg.n_procs, tries=4, seed=cfg.seed)
    own = [sum(1 for w in owner.values() if w == p) for p in range(cfg.n_procs)]
    sampled = sum(runs * n for runs, n in zip(result.iterations_sampled, own))
    unit = costs.SAMPLE_PER_NODE
    return charged, unit * sampled, unit * result.rollback.nodes_resampled


def test_synchronous_sampling_charges_every_node_it_samples():
    charged, sampled, resampled = _charged_and_counted(CoherenceMode.SYNCHRONOUS)
    assert resampled == 0
    assert charged == pytest.approx(sampled, rel=1e-9)


@pytest.mark.parametrize("mode", [CoherenceMode.NON_STRICT, CoherenceMode.ASYNCHRONOUS])
def test_optimistic_runs_charge_every_owned_node(mode):
    """A run is charged per node the processor owns, not per node the
    sampling plan evaluates (the plan skips nodes nothing reads): with
    the rollback term left out, charged equals counted."""
    charged, sampled, resampled = _charged_and_counted(mode)
    assert resampled > 0
    assert charged == pytest.approx(sampled, rel=1e-9)


@pytest.mark.xfail(
    strict=True,
    reason="rollback redo is not charged: no Compute covers the "
    "SAMPLE_PER_NODE x rollback.nodes_resampled term (ROADMAP item 21(b))",
)
def test_non_strict_sampling_charges_every_node_it_samples():
    charged, sampled, resampled = _charged_and_counted(CoherenceMode.NON_STRICT)
    assert resampled > 0
    assert charged == pytest.approx(sampled + resampled, rel=1e-9)
