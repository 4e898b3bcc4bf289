"""The workload table: what runs, in which order, how often, and why.

Imports nothing from ``repro`` so the runner, ``compare.py`` and the
tests can read the table without building a simulator; the scenarios
themselves live in ``scenarios.py``.

Sizes are cut from the ones ISSUE 12 measured (precision 0.01, 200
generations, 4096 demes) because one run of one workload, with its
set-ups, has to fit in about 20 s and still hold a dozen repetitions; the per-iteration work, and so each
layer's share, is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

#: default ``--seed``; the only seed whose digests are pinned below
SEED = 7

#: fresh child processes per measured run; each pays import + input
#: build + one cold execution (a ``setup_s`` sample) and then times
#: repetitions for ``--seconds / CHILDREN`` seconds.  The runner stops
#: spawning early once ``--seconds`` of timed work and ``MIN_TIMED``
#: repetitions are in hand, which today only ``ga_sharded_2`` (21 s per
#: execution, so two children of one repetition each) triggers.
CHILDREN = 3

#: a run's value is its best repetition, so it needs at least two: with
#: one, ``cpu_s`` of ``ga_sharded_2`` spread 25 % over ten runs
MIN_TIMED = 2


@dataclass(frozen=True)
class Workload:
    """One row of the table."""

    name: str
    why: str
    #: sha256 of the canonical simulated statistics at ``SEED``
    pinned: str


#: children run in this order, one after another
WORKLOADS = (
    Workload(
        "bayes_gr_rollback",
        "Figure-3 headline: network A, 2 processors, Global_Read age 10, rollback sampler "
        "(precision 0.02, cut from 0.01 to fit the run cap); repro.bayes does ~85 % of the work",
        pinned="886f9cacd4513fa02911b01ff8abe91fc3be510336f2f0a07130efdf39372615",
    ),
    Workload(
        "bayes_sync_staged",
        "same network, machine and seed run SYNCHRONOUS: barrier + staged exchange, no rollbacks, "
        "so kernel/pvm/Ethernet/DSM carry the time; a rollback optimisation must leave it flat",
        pinned="02a939cbe4be39e0a109e4bdd5582ab8d9bd620c2e103a8ae28dbe34c364094c",
    ),
    Workload(
        "ga_ethernet_16",
        "Figure-2/4 shape: f1, 16 demes all-to-all, age 10, 80 generations (cut from 200), "
        "10 Mbps shared Ethernet with a 1 Mbps loader; the full stack under contention",
        pinned="eae279ba2a16c0537bbe88892084f0473a69c1293546ac6d914b0a71ed470f2f",
    ),
    Workload(
        "ga_ethernet_16_traced",
        "the same scenario with the TraceBus on, then build_spans + attribute + critical_path; "
        "instrumentation on beside off, so a gain for the obs-off path that costs obs-on shows",
        pinned="eae279ba2a16c0537bbe88892084f0473a69c1293546ac6d914b0a71ed470f2f",
    ),
    Workload(
        "ga_switched_1024",
        "f1, 1024-deme ring on the hierarchical switched fabric, age 2, 2 generations, N=8 "
        "(a quarter of the ROADMAP's 4096-deme ring, to fit the run cap): per-deme set-up, wide event queue, memory",
        pinned="9cde3ad2834c50e4dabaeded9d860bbe14d4550e1688076214f39d51b08cf6dd",
    ),
    Workload(
        "ga_sharded_2",
        "f1, 64-deme torus on the switched fabric, age 5, 12 generations, shards=2 against a serial "
        "reference; the only workload that runs repro.sim.parallel, and its first recorded number",
        pinned="c2d9828c17927a8dc877f8c675b23860b624c93096b6152482f56d1e14ed1417",
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}
