"""Run one *traced* GA or Bayes trial and export its artifacts.

The experiment drivers fan dozens of replicas out over worker processes;
shipping a full event trace back from every worker would drown the run.
The ``--trace``/``--metrics`` knobs instead run **one representative
traced trial** after the experiment proper — same scale, same machine
configuration, fixed seed — and export its JSONL trace and metrics
snapshot.  That trial is what ``python -m repro.obs report`` renders.

The bus is recovered through the run functions' ``instrument(dsm)``
hook (the same attachment point the race classifier uses): the machine
is built inside :func:`repro.ga.island.run_island_ga` /
:func:`repro.bayes.parallel.run_parallel_logic_sampling`, so the hook's
``dsm.vm.kernel.obs`` is the only public path to the bus.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from repro.core.coherence import CoherenceMode
from repro.experiments.config import Scale, current_scale
from repro.faults.plan import FaultPlan
from repro.obs.bus import TraceBus


@dataclass
class TracedRun:
    """One traced trial: its result object, trace bus and metrics dict."""

    app: str  # "ga" | "bayes"
    result: object
    bus: TraceBus
    metrics: dict
    #: ``repro-obs-prof/1`` envelope when the trial was run with
    #: ``profile=True`` (host-time section profiler), else None
    profile: dict | None = None
    #: provenance recorded into the run store's manifest meta
    meta: dict = field(default_factory=dict)


def _traced_trial(app: str, run, cfg, profile: bool) -> TracedRun:
    """Run ``run(cfg, instrument=...)`` once and wrap it as a :class:`TracedRun`.

    The ``instrument`` hook only captures the ``dsm`` (the public path to
    the bus).  With ``profile`` the trial runs under an ambient
    :class:`~repro.obs.prof.HostProfiler`, which the kernel loop and the
    ambient sections pick up on their own.
    """
    from repro.obs.prof import HostProfiler, activate, deactivate, profile_report

    holder: dict = {}
    prof = None
    if profile:
        prof = activate(HostProfiler())
        prof.meta["app"] = app
    try:
        result = run(cfg, instrument=lambda dsm: holder.setdefault("dsm", dsm))
    finally:
        if prof is not None:
            deactivate()
    return TracedRun(
        app=app,
        result=result,
        bus=holder["dsm"].vm.kernel.obs,
        metrics=result.metrics,
        profile=(
            profile_report(prof.snapshot(), [], meta=dict(prof.meta))
            if prof is not None
            else None
        ),
        meta={"app": app, "n_nodes": cfg.machine.n_nodes, "seed": cfg.seed},
    )


def traced_ga_run(
    scale: Scale | None = None,
    n_demes: int = 4,
    load_bps: float = 0.0,
    faults: FaultPlan | None = None,
    seed: int = 0,
    age: int | None = None,
    fid: int | None = None,
    n_generations: int | None = None,
    profile: bool = False,
) -> TracedRun:
    """One partially asynchronous island-GA run with the trace bus on.

    Defaults mirror the figure runs: the scale's first function, its
    largest age (the paper's best-performing region), ``measure_warp``
    on, and optional background load / fault plan pass-through.
    ``profile=True`` additionally runs the host-time section profiler
    (determinism-neutral) and attaches its envelope.
    """
    from repro.experiments.speedup import machine_for
    from repro.ga.functions import get_function
    from repro.ga.island import IslandGaConfig, run_island_ga

    scale = scale or current_scale()
    mcfg = replace(
        machine_for(scale, n_demes, seed, load_bps, faults), trace=True
    )
    cfg = IslandGaConfig(
        fn=get_function(fid if fid is not None else scale.ga_functions[0]),
        n_demes=n_demes,
        mode=CoherenceMode.NON_STRICT,
        age=age if age is not None else scale.ages[-1],
        n_generations=n_generations or scale.ga_generations,
        seed=seed,
        machine=mcfg,
    )
    return _traced_trial("ga", run_island_ga, cfg, profile)


def traced_bayes_run(
    scale: Scale | None = None,
    network: str = "Hailfinder",
    n_procs: int = 2,
    faults: FaultPlan | None = None,
    seed: int = 7,
    age: int | None = None,
    profile: bool = False,
) -> TracedRun:
    """One partially asynchronous Bayes-inference run with tracing on."""
    from repro.bayes.parallel import ParallelLsConfig, run_parallel_logic_sampling
    from repro.experiments.speedup import machine_for
    from repro.experiments.table2 import build_network, pick_query

    scale = scale or current_scale()
    net = build_network(network)
    mcfg = replace(machine_for(scale, n_procs, seed, 0.0, faults), trace=True)
    cfg = ParallelLsConfig(
        net=net,
        query=pick_query(net, seed=0),
        n_procs=n_procs,
        mode=CoherenceMode.NON_STRICT,
        age=age if age is not None else scale.ages[-1],
        seed=seed,
        machine=mcfg,
        max_iterations=scale.bn_max_iterations,
    )
    return _traced_trial("bayes", run_parallel_logic_sampling, cfg, profile)


def write_artifacts(
    run: TracedRun,
    trace_path: str | None = None,
    metrics_path: str | None = None,
    profile_path: str | None = None,
) -> dict:
    """Write the requested artifact files; returns {kind: path, ...}."""
    written: dict = {}
    if trace_path:
        n = run.bus.write_jsonl(trace_path)
        written["trace"] = {"path": trace_path, "events": n}
    if metrics_path:
        with open(metrics_path, "w", encoding="utf-8") as fh:
            json.dump(run.metrics, fh, sort_keys=True, indent=2)
            fh.write("\n")
        written["metrics"] = {"path": metrics_path}
    if profile_path and run.profile is not None:
        with open(profile_path, "w", encoding="utf-8") as fh:
            json.dump(run.profile, fh, sort_keys=True, indent=2)
            fh.write("\n")
        written["profile"] = {"path": profile_path}
    return written


def store_run(run: TracedRun, store_root: str) -> str:
    """Persist one traced trial into the content-addressed run store.

    Serialises the trial's trace / metrics / profile into a temporary
    staging area and hands them to :meth:`repro.obs.store.RunStore.put`
    (traces land gzip-compressed under ``runs/<digest>/``).  Returns the
    short run ref for ``python -m repro.obs store get`` / ``diff``.
    """
    import os
    import tempfile

    from repro.obs.store import RunStore

    names = ("trace.jsonl", "metrics.json", "profile.json")
    with tempfile.TemporaryDirectory() as td:
        written = write_artifacts(run, *(os.path.join(td, n) for n in names))
        files = {os.path.basename(w["path"]): w["path"] for w in written.values()}
        return RunStore(store_root).put(files, meta=dict(run.meta))


def trace_experiment(
    app: str,
    scale: Scale | None,
    trace_path: str | None,
    metrics_path: str | None,
    load_bps: float = 0.0,
    n_nodes: int = 4,
    faults: FaultPlan | None = None,
    profile_path: str | None = None,
    store_root: str | None = None,
) -> TracedRun | None:
    """The experiment drivers' observability back end.

    Runs one traced ``app`` trial (``"ga"`` or ``"bayes"``) matching the
    experiment's machine shape, writes the requested artifacts
    (``--trace``/``--metrics``/``--profile``), optionally archives the
    trial into the run store (``--store``), and prints where everything
    landed.  No-op returning None when no destination is given.
    """
    if not trace_path and not metrics_path and not profile_path and not store_root:
        return None
    profile = bool(profile_path)
    if app == "ga":
        run = traced_ga_run(
            scale, n_demes=n_nodes, load_bps=load_bps, faults=faults,
            profile=profile,
        )
    elif app == "bayes":
        run = traced_bayes_run(
            scale, n_procs=n_nodes, faults=faults, profile=profile
        )
    else:
        raise ValueError(f"unknown traced app {app!r}")
    written = write_artifacts(run, trace_path, metrics_path, profile_path)
    if "trace" in written:
        print(
            f"trace: {written['trace']['events']} events -> "
            f"{written['trace']['path']}  "
            f"(render with: python -m repro.obs report {written['trace']['path']})"
        )
    if "metrics" in written:
        print(f"metrics snapshot -> {written['metrics']['path']}")
    if "profile" in written:
        print(
            f"host-time profile -> {written['profile']['path']}  "
            f"(render with: python -m repro.obs report "
            f"{trace_path or '<trace>'} --prof {written['profile']['path']})"
        )
    if store_root:
        ref = store_run(run, store_root)
        print(
            f"run stored -> {store_root} ref {ref}  "
            f"(list with: python -m repro.obs store --root {store_root} ls)"
        )
    return run
