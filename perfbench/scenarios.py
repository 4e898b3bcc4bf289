"""Scenario inputs and executions: the only file that imports ``repro``.

It imports the layer packages alone (never ``repro.experiments``,
``repro.bench`` or ``repro.analysis``) and builds its own inputs from
the seed: the machine with the figures' load-skew model (compute jitter
0.12, node-speed heterogeneity 0.03), the Bayes query pick and the
background loader.

What the seed drives.  For the GA workloads, everything: the machine
and the populations.  For the Bayes workloads, the machine only (node
speeds, compute jitter, kernel RNG streams): ``ParallelLsConfig.seed``
also picks the partition, and another partition is another workload
(304 k against 415 k kernel events on ``bayes_sync_staged``), so the
application seed stays fixed.

Every execution returns an :class:`Outcome` read from the public result
objects and the ``instrument(dsm)`` hook, i.e. from outside the program.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from repro.bayes.logic_sampling import run_serial_logic_sampling
from repro.bayes.parallel import ParallelLsConfig, run_parallel_logic_sampling
from repro.bayes.random_nets import make_table2_network
from repro.cluster.machine import MachineConfig
from repro.cluster.node import NodeSpec
from repro.core.coherence import CoherenceMode
from repro.ga.functions import get_function
from repro.ga.island import IslandGaConfig, run_island_ga
from repro.ga.operators import GaParams
from repro.obs import attribute, build_spans, critical_path

JITTER_SIGMA = 0.12
HETERO_SIGMA = 0.03
#: Bayes application seed (partition, default values, sampling streams)
BAYES_APP_SEED = 7
BAYES_PRECISION = 0.02
#: large enough that the traced 16-deme run drops nothing (checked)
TRACE_MAX_EVENTS = 2_000_000


@dataclass
class Outcome:
    """What one execution produced, as seen from outside."""

    #: canonical simulated statistics; their sha256 is the digest
    stats: dict
    #: exact per-layer counts
    counts: dict
    #: application iterations (GA deme-generations / Bayes processor-runs)
    iterations: int
    sim_completion_s: float
    #: failed output checks, empty when the execution is correct
    problems: list = field(default_factory=list)
    #: host-time extras of the traced and sharded scenarios
    timed: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    """``build(seed)`` makes the inputs; ``run(inputs)`` executes once.

    ``reference`` is the plain variant of the same scenario (tracing
    off, one shard).  When present it is the cold execution, its digest
    must equal the scenario's, and it is the base of the workload's
    ratio metric.
    """

    build: Callable[[int], Any]
    run: Callable[[Any], Outcome]
    reference: Callable[[Any], Outcome] | None = None
    #: whether cProfile sees the work (not when worker processes do it)
    ledger: bool = True


def machine(n_nodes: int, seed: int, **overrides) -> MachineConfig:
    """Machine config with the figures' load-skew model."""
    speeds = np.random.default_rng(seed).normal(1.0, HETERO_SIGMA, n_nodes)
    return MachineConfig(
        n_nodes=n_nodes,
        seed=seed,
        node_spec=NodeSpec(jitter_sigma=JITTER_SIGMA),
        speed_factors=tuple(float(x) for x in speeds),
        **overrides,
    )


def _gr_stats(gr) -> dict:
    return {
        "calls": gr.calls,
        "hits": gr.hits,
        "blocked": gr.blocked,
        "block_time": gr.block_time,
        "staleness": {str(k): v for k, v in sorted(gr.staleness_histogram.items())},
    }


def _staleness_problems(gr, age: int) -> list:
    """The Global_Read contract: no returned copy older than ``age``."""
    worst = max(gr.staleness_histogram, default=0)
    return [f"Global_Read staleness {worst} exceeds age {age}"] if worst > age else []


def _common_counts(result, dsm, iterations: int) -> dict:
    """Counts every application shares, from the result and the hook."""
    snap = result.metrics
    counters, gauges = snap["counters"], snap["gauges"]
    gr = result.gr_stats
    counts = {
        "sim.events": counters["kernel.events"],
        "network.frames": counters["net.frames_sent"],
        "network.utilization": gauges["net.utilization"],
        "network.mean_latency_sim_s": gauges["net.mean_latency"],
        "pvm.messages": result.messages_sent,
        "pvm.messages_per_iter": result.messages_sent / iterations,
        "core.dsm_writes": sum(n["dsm_writes"] for n in snap["per_node"].values()),
        "core.gr_calls": gr.calls,
        "core.gr_hits": gr.hits,
        "core.gr_blocked": gr.blocked,
        "core.gr_hit_ratio": gr.hit_rate,
        "core.gr_block_time_sim_s": gr.block_time,
        "core.gr_max_staleness": max(gr.staleness_histogram, default=0),
    }
    if dsm is not None:  # a sharded run takes no hook
        link = dsm.vm.network.stats
        counts["network.wire_bytes"] = link.wire_bytes_sent
        counts["network.contended_acquisitions"] = link.contended_acquisitions
    return counts


# ---------------------------------------------------------------------------
# Bayes
# ---------------------------------------------------------------------------

def _pick_query(net) -> int:
    """The sink with the widest prior spread: a near-certain node
    converges at once and measures nothing.  (The figures' own pick
    lives in ``repro.experiments``, which this file may not import.)"""
    marginals = net.prior_marginals(seed=0)
    sinks = [v for v in net.nodes if not net.children(v)] or list(net.nodes)
    return max(sinks, key=lambda v: (1.0 - max(marginals[v]), v))


def _bayes_build(mode: CoherenceMode, age: int) -> Callable[[int], Any]:
    def build(seed: int):
        net = make_table2_network("A")
        query = _pick_query(net)
        serial = run_serial_logic_sampling(
            net, query=query, seed=BAYES_APP_SEED, precision=BAYES_PRECISION
        )
        cfg = ParallelLsConfig(
            net=net,
            query=query,
            n_procs=2,
            mode=mode,
            age=age,
            seed=BAYES_APP_SEED,
            precision=BAYES_PRECISION,
            machine=machine(2, seed, measure_warp=True),
            max_iterations=20_000,
        )
        return cfg, serial.posterior

    return build


def _bayes_run(inputs) -> Outcome:
    cfg, serial_posterior = inputs
    hook: dict = {}
    r = run_parallel_logic_sampling(cfg, instrument=lambda dsm: hook.update(dsm=dsm))
    rb = r.rollback
    iterations = sum(r.iterations_sampled)
    problems = _staleness_problems(r.gr_stats, cfg.age)
    if not r.converged:
        problems.append("did not converge")
    elif float(np.max(np.abs(r.posterior - serial_posterior))) > 3 * cfg.precision:
        problems.append("posterior further than 3x precision from the serial sampler")
    stats = {
        "completion": r.completion_time,
        "events": r.metrics["counters"]["kernel.events"],
        "messages": r.messages_sent,
        "iterations": list(r.iterations_sampled),
        "committed": r.committed_runs,
        "posterior": [float(p) for p in r.posterior],
        "gr": _gr_stats(r.gr_stats),
        "rollback": {
            "gambles": rb.gambles,
            "gamble_hits": rb.gamble_hits,
            "rollbacks": rb.rollbacks,
            "nodes_resampled": rb.nodes_resampled,
            "corrections_sent": rb.corrections_sent,
            "corrections_received": rb.corrections_received,
        },
    }
    counts = _common_counts(r, hook["dsm"], iterations)
    counts.update(
        {
            "bayes.iterations": iterations,
            "bayes.committed_runs": r.committed_runs,
            # useful / attempted: runs committed per run the slowest
            # processor had to sample
            "bayes.commit_ratio": r.committed_runs / max(r.iterations_sampled),
            "bayes.rollbacks": rb.rollbacks,
            "bayes.nodes_resampled": rb.nodes_resampled,
            "bayes.gamble_hit_rate": rb.gamble_hit_rate,
            "bayes.corrections_sent": rb.corrections_sent,
        }
    )
    return Outcome(
        stats=stats,
        counts=counts,
        iterations=iterations,
        sim_completion_s=r.metrics["gauges"]["time.completion"],
        problems=problems,
    )


# ---------------------------------------------------------------------------
# GA
# ---------------------------------------------------------------------------

def _ga_outcome(cfg: IslandGaConfig, result, dsm) -> Outcome:
    iterations = sum(result.generations_run)
    stats = {
        "completion": result.total_time,
        "events": result.metrics["counters"]["kernel.events"],
        "messages": result.messages_sent,
        "generations": list(result.generations_run),
        "best_fitness": result.best_fitness,
        "mean_fitness": result.mean_fitness,
        "gr": _gr_stats(result.gr_stats),
    }
    counts = _common_counts(result, dsm, iterations)
    counts["ga.deme_generations"] = iterations
    counts["ga.best_fitness"] = result.best_fitness
    problems = _staleness_problems(result.gr_stats, cfg.age)
    expected = cfg.n_demes * cfg.n_generations
    if iterations != expected:
        problems.append(f"{iterations} deme-generations completed, expected {expected}")
    return Outcome(
        stats=stats,
        counts=counts,
        iterations=iterations,
        sim_completion_s=result.total_time,
        problems=problems,
    )


def _ga_run(cfg: IslandGaConfig) -> Outcome:
    hook: dict = {}
    result = run_island_ga(cfg, instrument=lambda dsm: hook.update(dsm=dsm))
    return _ga_outcome(cfg, result, hook["dsm"])


def _ga_run_traced(cfg: IslandGaConfig) -> Outcome:
    """Tracing on, then the causal analysis over the capture."""
    hook: dict = {}
    traced = replace(
        cfg, machine=replace(cfg.machine, trace=True, trace_max_events=TRACE_MAX_EVENTS)
    )
    t0 = time.perf_counter()
    result = run_island_ga(traced, instrument=lambda dsm: hook.update(dsm=dsm))
    t1 = time.perf_counter()
    bus = hook["dsm"].vm.kernel.obs
    graph = build_spans(bus.events)
    attribute(graph)
    critical_path(graph)
    t2 = time.perf_counter()
    out = _ga_outcome(cfg, result, hook["dsm"])
    out.counts["obs.trace_events"] = len(bus.events)
    out.counts["obs.dropped"] = bus.dropped
    if bus.dropped:
        out.problems.append(f"trace bus dropped {bus.dropped} events")
    out.timed = {"obs.run_s": t1 - t0, "obs.span_build_s": t2 - t1}
    return out


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _ga_run_sharded(cfg: IslandGaConfig) -> Outcome:
    cpu0 = _children_cpu()
    result = run_island_ga(cfg, shards=2)
    cpu1 = _children_cpu()
    out = _ga_outcome(cfg, result, None)
    par = result.metrics.get("parallel", {})
    if not par.get("sharded"):
        out.problems.append(f"fell back to serial: {par.get('fallback')}")
        return out
    out.counts["par.shards"] = par["shards"]
    out.counts["par.records_routed"] = par["records_routed"]
    out.timed = {
        "par.floor_broadcasts": par["floor_broadcasts"],
        "par.consume_wait_s": sum(f["consume_wait_s"] for f in par["feed"]),
        "par.cpu_children_s": cpu1 - cpu0,
    }
    return out


def _ga_ethernet_16(seed: int) -> IslandGaConfig:
    return IslandGaConfig(
        fn=get_function(1),
        n_demes=16,
        mode=CoherenceMode.NON_STRICT,
        age=10,
        n_generations=80,
        seed=seed,
        machine=machine(16, seed, measure_warp=True, loader_bps=(1e6,)),
    )


def _ga_switched_1024(seed: int) -> IslandGaConfig:
    return IslandGaConfig(
        fn=get_function(1),
        n_demes=1024,
        mode=CoherenceMode.NON_STRICT,
        age=2,
        n_generations=2,
        seed=seed,
        params=GaParams(population_size=8),
        # the default switched fabric is the hierarchical tree
        machine=machine(1024, seed, interconnect="switched"),
        topology="ring",
    )


def _ga_sharded_64(seed: int) -> IslandGaConfig:
    return IslandGaConfig(
        fn=get_function(1),
        n_demes=64,
        mode=CoherenceMode.NON_STRICT,
        age=5,
        n_generations=12,
        seed=seed,
        machine=machine(64, seed, interconnect="switched"),
        topology="torus",
    )


SCENARIOS = {
    "bayes_gr_rollback": Scenario(_bayes_build(CoherenceMode.NON_STRICT, 10), _bayes_run),
    "bayes_sync_staged": Scenario(_bayes_build(CoherenceMode.SYNCHRONOUS, 0), _bayes_run),
    "ga_ethernet_16": Scenario(_ga_ethernet_16, _ga_run),
    "ga_ethernet_16_traced": Scenario(_ga_ethernet_16, _ga_run_traced, reference=_ga_run),
    "ga_switched_1024": Scenario(_ga_switched_1024, _ga_run),
    "ga_sharded_2": Scenario(_ga_sharded_64, _ga_run_sharded, reference=_ga_run, ledger=False),
}
