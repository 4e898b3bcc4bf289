"""Run one *traced* GA or Bayes trial and export its artifacts.

The experiment drivers fan dozens of replicas out over worker processes;
shipping a full event trace back from every worker would drown the run.
The ``--trace``/``--metrics`` knobs instead run **one representative
traced trial** after the experiment proper — same scale, same machine
configuration, fixed seed — and export its JSONL trace and metrics
snapshot.  That trial is what ``python -m repro.obs report`` renders.

The bus is recovered through the run functions' ``instrument(dsm)``
hook (as :mod:`repro.analysis.report` does for its race folds): the machine
is built inside :func:`repro.ga.island.run_island_ga` /
:func:`repro.bayes.parallel.run_parallel_logic_sampling`, so the hook's
``dsm.vm.kernel.obs`` is the only public path to the bus.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

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


def _traced_trial(app: str, run, cfg) -> TracedRun:
    """Run ``run(cfg, instrument=...)`` once and wrap it as a :class:`TracedRun`.

    The ``instrument`` hook only captures the ``dsm`` (the public path to
    the bus).
    """
    holder: dict = {}
    result = run(cfg, instrument=lambda dsm: holder.setdefault("dsm", dsm))
    return TracedRun(
        app=app,
        result=result,
        bus=holder["dsm"].vm.kernel.obs,
        metrics=result.metrics,
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
) -> TracedRun:
    """One partially asynchronous island-GA run with the trace bus on.

    Defaults mirror the figure runs: the scale's first function, its
    largest age (the paper's best-performing region), ``measure_warp``
    on, and optional background load / fault plan pass-through.
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
    return _traced_trial("ga", run_island_ga, cfg)


def traced_bayes_run(
    scale: Scale | None = None,
    network: str = "Hailfinder",
    n_procs: int = 2,
    faults: FaultPlan | None = None,
    seed: int = 7,
    age: int | None = None,
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
    return _traced_trial("bayes", run_parallel_logic_sampling, cfg)


def write_artifacts(
    run: TracedRun,
    trace_path: str | None = None,
    metrics_path: str | None = None,
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
    return written


def trace_experiment(
    app: str,
    scale: Scale | None,
    trace_path: str | None,
    metrics_path: str | None,
    load_bps: float = 0.0,
    n_nodes: int = 4,
    faults: FaultPlan | None = None,
) -> TracedRun | None:
    """The experiment drivers' observability back end.

    Runs one traced ``app`` trial (``"ga"`` or ``"bayes"``) matching the
    experiment's machine shape, writes the requested artifacts
    (``--trace``/``--metrics``) and prints where they landed.  No-op
    returning None when no destination is given.
    """
    if not trace_path and not metrics_path:
        return None
    if app == "ga":
        run = traced_ga_run(scale, n_demes=n_nodes, load_bps=load_bps, faults=faults)
    elif app == "bayes":
        run = traced_bayes_run(scale, n_procs=n_nodes, faults=faults)
    else:
        raise ValueError(f"unknown traced app {app!r}")
    written = write_artifacts(run, trace_path, metrics_path)
    if "trace" in written:
        print(
            f"trace: {written['trace']['events']} events -> "
            f"{written['trace']['path']}  "
            f"(render with: python -m repro.obs report {written['trace']['path']})"
        )
    if "metrics" in written:
        print(f"metrics snapshot -> {written['metrics']['path']}")
    return run
