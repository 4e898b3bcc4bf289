"""The one traced representative trial behind every driver's ``--trace``.

The drivers fan dozens of replicas out over worker processes; shipping
a full event trace back from every worker would drown the run.  The
``--trace``/``--metrics`` flags instead run **one representative traced
trial** after the experiment proper — same scale, same machine shape,
fixed seed — and export its JSONL trace and metrics snapshot, which
``python -m repro.obs report`` renders.

The machine is built inside :func:`repro.ga.island.run_island_ga` /
:func:`repro.bayes.parallel.run_parallel_logic_sampling`, so their
``instrument(dsm)`` hook is the one public path to the bus
(``dsm.vm.kernel.obs``); :func:`traced_trial` captures it, for these
trials and for :mod:`repro.experiments.race_report`'s race folds.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Any, Callable, NamedTuple

from repro.bayes.parallel import ParallelLsConfig, run_parallel_logic_sampling
from repro.core.coherence import CoherenceMode
from repro.experiments.config import Scale
from repro.experiments.speedup import machine_for
from repro.experiments.table2 import build_network, pick_query
from repro.faults.plan import FaultPlan
from repro.ga.functions import get_function
from repro.ga.island import IslandGaConfig, run_island_ga
from repro.obs.bus import TraceBus

#: the machine and run seeds of the traced GA and Bayes trials
GA_SEED = 0
BAYES_SEED = 7


class TracedRun(NamedTuple):
    """One traced trial: its result object and its trace bus."""

    result: Any
    bus: TraceBus | None

    @property
    def metrics(self) -> dict:
        """The result's metrics snapshot."""
        return self.result.metrics


def traced_trial(run: Callable[..., Any], cfg: Any) -> TracedRun:
    """Run ``run(cfg, instrument=...)`` once, keeping the bus on its kernel
    (None when ``cfg.machine`` does not trace)."""
    holder: dict = {}
    result = run(cfg, instrument=lambda dsm: holder.setdefault("dsm", dsm))
    return TracedRun(result, holder["dsm"].vm.kernel.obs)


def traced_ga_run(
    scale: Scale,
    n_demes: int,
    load_bps: float = 0.0,
    faults: FaultPlan | None = None,
) -> TracedRun:
    """One partially asynchronous island-GA run with the trace bus on.

    It mirrors the figure runs: the scale's first function, its serial
    generation count and its largest age (the paper's best-performing
    region), ``measure_warp`` on, seed :data:`GA_SEED`, and optional
    background load / fault plan pass-through.
    """
    mcfg = replace(machine_for(scale, n_demes, GA_SEED, load_bps, faults), trace=True)
    cfg = IslandGaConfig(
        fn=get_function(scale.ga_functions[0]),
        n_demes=n_demes,
        mode=CoherenceMode.NON_STRICT,
        age=scale.ages[-1],
        n_generations=scale.ga_generations,
        seed=GA_SEED,
        machine=mcfg,
    )
    return traced_trial(run_island_ga, cfg)


def traced_bayes_run(
    scale: Scale,
    n_procs: int,
    faults: FaultPlan | None = None,
) -> TracedRun:
    """One partially asynchronous Hailfinder run with the trace bus on
    (seed :data:`BAYES_SEED`)."""
    net = build_network("Hailfinder")
    mcfg = replace(machine_for(scale, n_procs, BAYES_SEED, 0.0, faults), trace=True)
    cfg = ParallelLsConfig(
        net=net,
        query=pick_query(net, seed=0),
        n_procs=n_procs,
        mode=CoherenceMode.NON_STRICT,
        age=scale.ages[-1],
        seed=BAYES_SEED,
        machine=mcfg,
        max_iterations=scale.bn_max_iterations,
    )
    return traced_trial(run_parallel_logic_sampling, cfg)


def write_traced_trial(
    app: str,
    scale: Scale,
    trace_path: str | None,
    metrics_path: str | None,
    load_bps: float,
    n_nodes: int,
    faults: FaultPlan | None,
) -> None:
    """Run one traced ``app`` trial (``"ga"`` or ``"bayes"``) of the
    experiment's machine shape, write the requested files and say where
    they landed."""
    if app == "ga":
        run = traced_ga_run(scale, n_demes=n_nodes, load_bps=load_bps, faults=faults)
    else:
        run = traced_bayes_run(scale, n_procs=n_nodes, faults=faults)
    if trace_path:
        n = run.bus.write_jsonl(trace_path)
        print(
            f"trace: {n} events -> {trace_path}  "
            f"(render with: python -m repro.obs report {trace_path})"
        )
    if metrics_path:
        with open(metrics_path, "w", encoding="utf-8") as fh:
            json.dump(run.metrics, fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"metrics snapshot -> {metrics_path}")
