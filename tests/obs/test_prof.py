"""Host-time profiler: self-time accounting and determinism neutrality.

The profiler's load-bearing promise mirrors the trace bus's: turning it
on must not move a single golden digest (a shared-Ethernet and a
switched row of the golden table are pinned here with profiling *on*), while its self-time accounting must
sum exactly to the profiled interval so ``attributed_fraction`` means
what the acceptance criterion says it means.
"""

from repro.obs.prof import (
    ROOT,
    HostProfiler,
    activate,
    category_of,
    category_of_module,
    current,
    deactivate,
    prof_section,
    profile_html,
    profile_report,
    render_profile,
)


class _FakeClock:
    """Deterministic clock: each read advances by 1.0."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_self_time_sums_to_interval():
    prof = HostProfiler(clock=_FakeClock())
    prof.start()
    with prof.section("kernel.loop"):
        with prof.section("proc.step"):
            pass
        with prof.section("network"):
            pass
    prof.stop()
    snap = prof.snapshot()
    assert abs(sum(s["self_s"] for s in snap["sections"].values())
               - snap["total_s"]) < 1e-9
    assert set(snap["sections"]) >= {
        "kernel.loop", "kernel.loop/proc.step", "kernel.loop/network",
    }
    assert snap["sections"]["kernel.loop/proc.step"]["calls"] == 1
    assert 0.0 < snap["attributed_fraction"] <= 1.0


def test_stop_unwinds_open_sections():
    prof = HostProfiler(clock=_FakeClock())
    prof.push("a")
    prof.push("b")
    prof.stop()
    assert not prof.running
    snap = prof.snapshot()
    assert "a/b" in snap["sections"]


def test_category_mapping():
    assert category_of_module("repro.sim.parallel.channel") == "par.harness"
    assert category_of_module("repro.sim.kernel") == "proc.step"
    assert category_of_module("repro.network.switched") == "network"
    assert category_of_module("repro.ga.island") == "app.ga"
    assert category_of_module("repro.obs.bus") == "obs.io"
    assert category_of_module("") == "proc.step"  # bound generator frames
    assert category_of_module("numpy.core") == "other"
    assert category_of(test_category_mapping) == "other"


def test_ambient_sections_noop_without_profiler():
    assert current() is None
    with prof_section("numpy.ga"):
        pass  # must not raise or allocate a profiler
    assert current() is None
    prof = activate(HostProfiler(clock=_FakeClock()))
    with prof_section("numpy.ga"):
        pass
    assert deactivate() is prof
    assert current() is None
    assert "numpy.ga" in prof.snapshot()["sections"]


def test_envelope_and_renderings():
    prof = HostProfiler(clock=_FakeClock())
    prof.start()
    with prof.section("kernel.loop"):
        pass
    prof.stop()
    env = profile_report(prof.snapshot(), [dict(prof.snapshot(), shard=0)],
                         meta={"app": "test"})
    assert env["schema"] == "repro-obs-prof/1"
    text = render_profile(env)
    assert "kernel.loop" in text and "Shard 0 worker" in text
    html = profile_html(env)
    assert "profrow" in html and "kernel.loop" in html


def test_golden_digest_unmoved_with_profiling_on():
    """The golden GA, profiled + traced: digest identical."""
    from repro.check import GOLDEN, ga_digest, golden_ga
    from repro.ga.island import run_island_ga

    prof = activate(HostProfiler())
    try:
        result = run_island_ga(golden_ga(trace=True))
    finally:
        deactivate()
    assert ga_digest(result) == GOLDEN["ga_result"]
    snap = prof.snapshot()
    assert snap["sections"].get("kernel.loop/proc.step/numpy.ga")
    # the event loop attributes the bulk of host time to named sections
    assert snap["attributed_fraction"] > 0.5


def test_switched_golden_unmoved_with_profiling_on():
    from repro.check import GOLDEN, ga_digest, ga_rows
    from repro.ga.island import run_island_ga

    cfg = ga_rows()["ring-hierarchical"]
    prof = activate(HostProfiler())
    try:
        result = run_island_ga(cfg)
    finally:
        deactivate()
    assert ga_digest(result) == GOLDEN["ring-hierarchical"]
    assert "kernel.loop" in prof.snapshot()["sections"]


def test_bayes_sampling_attributed_from_both_call_sites():
    """The golden Global_Read Bayes run, profiled: digest identical, and
    ``sample.bayes`` brackets the forward pass *and* every rollback
    recompute (the larger half of the node samples)."""
    from repro.bayes.parallel import run_parallel_logic_sampling
    from repro.check import GOLDEN, bayes_digest, golden_bayes

    prof = activate(HostProfiler())
    try:
        result = run_parallel_logic_sampling(golden_bayes())
    finally:
        deactivate()
    assert bayes_digest(result) == GOLDEN["bayes_result"]
    recomputes = sum(result.rollback.depth_histogram.values())
    assert recomputes > 0
    sampling = [
        s for path, s in prof.snapshot()["sections"].items()
        if path.endswith("/sample.bayes")
    ]
    assert sum(s["calls"] for s in sampling) == (
        sum(result.iterations_sampled) + recomputes
    )
    assert all(s["self_s"] > 0.0 for s in sampling)


def test_sharded_run_ships_per_shard_profiles():
    """An ambient profiler in the coordinating process turns one on in
    every shard worker; without one the run ships no snapshots."""
    from repro.check import ga_digest
    from repro.core.coherence import CoherenceMode
    from repro.ga.functions import get_function
    from repro.ga.island import IslandGaConfig, run_island_ga

    cfg = IslandGaConfig(
        fn=get_function(1), n_demes=4, mode=CoherenceMode.NON_STRICT,
        age=8, n_generations=10, seed=3,
    )
    unprofiled = run_island_ga(cfg, shards=2)
    activate(HostProfiler())
    try:
        result = run_island_ga(cfg, shards=2)
    finally:
        deactivate()
    # profiling is determinism-neutral
    assert ga_digest(result) == ga_digest(unprofiled) == ga_digest(run_island_ga(cfg))
    info = result.metrics["parallel"]
    if not info["sharded"]:  # platform without worker processes
        return
    assert "prof" not in unprofiled.metrics["parallel"]
    profs = info["prof"]
    assert len(profs) == 2
    for k, snap in enumerate(profs):
        assert snap["shard"] == k
        assert snap["total_s"] > 0.0
        assert "kernel.loop" in snap["sections"]
        assert any("par.ipc" in path for path in snap["sections"])


def test_traced_profiled_trial_attribution():
    from repro.obs.integration import traced_ga_run

    run = traced_ga_run(n_demes=2, seed=7, profile=True)
    env = run.profile
    assert env["schema"] == "repro-obs-prof/1"
    main = env["main"]
    # the acceptance bar (>= 0.9 on a traced figure3 run) is checked on
    # the real workload; this smoke run just has to be mostly attributed
    assert main["attributed_fraction"] > 0.6
    assert main["sections"].get("kernel.loop/proc.step/numpy.ga")
