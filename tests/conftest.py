"""Suite-wide fixtures.

``sanitize_dsm`` is inert by default; run ``REPRO_SANITIZE=1 pytest``
to attach the happens-before race classifier to every DSM built in any
test and fail on consistency-invariant violations (see
:mod:`repro.analysis.fixtures`).

The scenario builders (``island_cfg`` / ``run_island`` /
``golden_island``) are the shared way tests construct island-GA runs —
one place owns the deme-count / migration-topology / fabric
parametrization, so a new machine knob means one fixture edit, not a
sweep over copy-pasted ``IslandGaConfig`` literals.
"""

import pytest

from repro.analysis.fixtures import sanitize_dsm  # noqa: F401


def build_island_cfg(
    mode=None,
    age=0,
    demes=3,
    gens=25,
    seed=4,
    topology="all",
    fabric=None,
    hw_multicast=False,
    radix=4,
    **kw,
):
    """One island-GA scenario.

    ``fabric=None`` keeps the machine the config's default (shared
    Ethernet unless the caller passes ``machine=``); naming a switched
    fabric ("single" / "hierarchical" / "fat-tree") builds the matching
    switched machine.  ``topology`` selects the migration wiring
    (:mod:`repro.ga.topology`).
    """
    from repro.cluster.machine import MachineConfig
    from repro.core.coherence import CoherenceMode
    from repro.ga import IslandGaConfig, get_function
    from repro.network.switched import SwitchedConfig

    if mode is None:
        mode = CoherenceMode.NON_STRICT
    if fabric is not None or hw_multicast:
        assert "machine" not in kw, "pass fabric= or machine=, not both"
        kw["machine"] = MachineConfig(
            n_nodes=demes,
            seed=seed,
            interconnect="switched",
            switched=SwitchedConfig(fabric=fabric or "single", radix=radix),
            hw_multicast=hw_multicast,
        )
    return IslandGaConfig(
        fn=kw.pop("fn", get_function(1)),
        n_demes=demes,
        mode=mode,
        age=age,
        n_generations=gens,
        seed=seed,
        topology=topology,
        **kw,
    )


@pytest.fixture
def island_cfg():
    """Factory fixture: :func:`build_island_cfg`."""
    return build_island_cfg


@pytest.fixture
def run_island():
    """Factory fixture: build and run one island-GA scenario."""
    from repro.ga import run_island_ga

    def _run(mode=None, shards=1, **kw):
        return run_island_ga(build_island_cfg(mode=mode, **kw), shards=shards)

    return _run


@pytest.fixture
def golden_island():
    """Factory fixture: :func:`repro.check.golden_ga`, the recipe of the
    pinned ``ga_*`` rows (optionally with a fault plan) — tests of the
    parallel kernel and the chaos rows both anchor on it."""
    from repro.check import golden_ga

    return golden_ga


@pytest.fixture(scope="session")
def check_report():
    """One :func:`repro.check.run_checks` report shared by the session
    (every row, every shard count, both traced identity checks: ~12 s)."""
    from repro.check import run_checks

    return run_checks()
