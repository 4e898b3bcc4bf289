"""Every metric the benchmark reports: name, unit, direction, bound.

``BENCHMARK.json`` at the repository root is :func:`benchmark_json`
rendered once (``python perfbench/metrics.py > BENCHMARK.json``);
``perfbench/tests`` fails when the two drift apart.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from layers import HOT_MODULES, LAYERS, hot_metric
from workloads import WORKLOADS

#: measured seconds per run (``--seconds``); also ``run_seconds``
RUN_SECONDS = 10


@dataclass(frozen=True)
class EndToEnd:
    """A metric a user of the simulator sees, with its regression bound."""

    name: str
    unit: str
    better: str
    #: share of the parent's median by which the metric may worsen
    bound: float


@dataclass(frozen=True)
class PerLayer:
    """A metric of one layer; ``exact`` counts repeat from run to run."""

    name: str
    unit: str
    better: str
    exact: bool = False


#: Host-time bounds are wide because the host is: on the shared 2-core
#: machine this was written on, ten runs of one commit spread 2-6 % in a
#: quiet half hour and 5-17 % in a busy one, and their median drifted
#: 10 % between the two.  compare.py on interleaved runs resolves finer
#: differences than these bounds do.
END_TO_END = (
    EndToEnd("wall_s", "s", "lower", 0.25),
    EndToEnd("cpu_s", "s", "lower", 0.25),
    EndToEnd("iters_per_s", "1/s", "higher", 0.25),
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10),
    # deterministic at one seed (the pinned digest and compare.py hold it
    # exactly); the bound only has to cover its 0.2-5 % spread across seeds
    EndToEnd("sim_completion_s", "sim_s", "lower", 0.20),
)


def _counts() -> list[PerLayer]:
    lo, hi = "lower", "higher"
    rows = [
        ("sim.events", "count", lo), ("network.frames", "count", lo),
        ("network.wire_bytes", "B", lo), ("network.utilization", "ratio", lo),
        ("network.contended_acquisitions", "count", lo),
        ("network.mean_latency_sim_s", "sim_s", lo),
        ("pvm.messages", "count", lo), ("pvm.messages_per_iter", "1/iter", lo),
        ("core.dsm_writes", "count", lo), ("core.gr_calls", "count", lo),
        ("core.gr_hits", "count", hi), ("core.gr_blocked", "count", lo),
        ("core.gr_hit_ratio", "ratio", hi), ("core.gr_block_time_sim_s", "sim_s", lo),
        ("core.gr_max_staleness", "iter", lo),
        ("ga.deme_generations", "count", hi), ("ga.best_fitness", "fitness", lo),
        ("bayes.iterations", "count", lo), ("bayes.committed_runs", "count", hi),
        ("bayes.commit_ratio", "ratio", hi), ("bayes.rollbacks", "count", lo),
        ("bayes.nodes_resampled", "count", lo), ("bayes.gamble_hit_rate", "ratio", hi),
        ("bayes.corrections_sent", "count", lo),
        ("obs.trace_events", "count", lo), ("obs.dropped", "count", lo),
        ("par.shards", "count", hi), ("par.records_routed", "count", lo),
    ]
    return [PerLayer(name, unit, better, exact=True) for name, unit, better in rows]


def _timed() -> list[PerLayer]:
    lo, hi = "lower", "higher"
    rows = [
        PerLayer("sim.events_per_s", "1/s", hi),
        PerLayer("obs.span_build_s", "s", lo),
        PerLayer("obs.overhead_ratio", "ratio", lo),
        PerLayer("par.floor_broadcasts", "count", lo),
        PerLayer("par.consume_wait_s", "s", lo),
        PerLayer("par.cpu_children_s", "s", lo),
        PerLayer("par.speedup_vs_serial", "ratio", hi),
    ]
    for layer in LAYERS:
        rows += [
            PerLayer(f"host.{layer}.self_s", "s", lo),
            PerLayer(f"host.{layer}.share", "ratio", lo),
            PerLayer(f"host.{layer}.calls_in", "count", lo),
        ]
    rows += [PerLayer(hot_metric(rel), "s", lo) for rel in HOT_MODULES]
    rows += [
        PerLayer("host.sum_s", "s", lo),
        PerLayer("host.attributed_fraction", "ratio", hi),
        PerLayer("trace.overhead_ratio", "ratio", lo),
        PerLayer("host.sim.us_per_event", "us", lo),
        PerLayer("host.network.us_per_frame", "us", lo),
        PerLayer("host.pvm.us_per_message", "us", lo),
        PerLayer("host.ga.us_per_deme_generation", "us", lo),
        PerLayer("host.bayes.us_per_iteration", "us", lo),
    ]
    return rows


PER_LAYER = tuple(_counts() + _timed())

#: derived unit costs: metric -> (layer self time, exact count it divides by)
UNIT_COSTS = {
    "host.sim.us_per_event": ("host.sim.self_s", "sim.events"),
    "host.network.us_per_frame": ("host.network.self_s", "network.frames"),
    "host.pvm.us_per_message": ("host.pvm.self_s", "pvm.messages"),
    "host.ga.us_per_deme_generation": ("host.ga.self_s", "ga.deme_generations"),
    "host.bayes.us_per_iteration": ("host.bayes.self_s", "bayes.iterations"),
}


def benchmark_json() -> dict:
    """The contract file: command, paths, workloads and metric lists."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
