"""The metrics snapshot: counters, gauges and histograms for run reports.

Unlike the trace bus (a time-ordered event log), the metrics are a
*snapshot*: at the end of a run, :func:`machine_metrics` folds the
counters every subsystem already keeps — :class:`~repro.core.global_read.
GlobalReadStats`, :class:`~repro.bayes.rollback.RollbackStats`,
:class:`~repro.network.stats.LinkStats`, the warp meter, the fault
injector — into one JSON-serialisable dict with a stable key order.
Because the inputs are counters the run maintains anyway, the snapshot
is cheap enough to attach to **every** experiment result
(``IslandGaResult.metrics`` / ``ParallelLsResult.metrics``), tracing on
or off.

The paper-facing metrics (DESIGN.md §10 maps each to a figure):

* blocked time per node and in aggregate — the Global_Read throttle
  whose age sensitivity drives Figure 4;
* the staleness-age distribution of values Global_Read returned;
* rollback count, cascade depth and wasted (resampled) work — the
  quantities that decide whether optimism pays (Lubachevsky & Weiss);
* mean and max warp — §4.3's network-load-derivative metric (the raw
  samples and their percentiles come from the trace:
  :func:`repro.obs.report.warp_summary`).
"""

from __future__ import annotations

from typing import Any

#: snapshot schema tag, bumped on incompatible layout changes
METRICS_SCHEMA = "repro-obs-metrics/1"

#: percentiles reported for every histogram
_PERCENTILES = (50, 90, 99)


def percentile_from_samples(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (``q`` in [0, 100]).

    Deterministic and dependency-free; returns 0.0 for an empty list.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if q <= 0:
        return ordered[0]
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without math
    return ordered[min(int(rank), len(ordered)) - 1]


def _percentile_from_counts(counts: dict[int, int], q: float) -> float:
    """Nearest-rank percentile of an integer-valued count histogram."""
    total = sum(counts.values())
    if total == 0:
        return 0.0
    rank = max(1, -(-total * q // 100))
    seen = 0
    for value in sorted(counts):
        seen += counts[value]
        if seen >= rank:
            return float(value)
    return float(max(counts))


def _summary_from_counts(counts: dict[int, int]) -> dict:
    """count/mean/min/max/pXX summary of an integer count histogram.

    Includes the exact ``counts`` mapping (string keys for JSON) so the
    full distribution survives serialisation.
    """
    total = sum(counts.values())
    if total == 0:
        return {"count": 0, "counts": {}}
    weighted = sum(k * v for k, v in counts.items())
    out: dict[str, Any] = {
        "count": total,
        "mean": weighted / total,
        "min": float(min(counts)),
        "max": float(max(counts)),
        "counts": {str(k): counts[k] for k in sorted(counts)},
    }
    for q in _PERCENTILES:
        out[f"p{q}"] = _percentile_from_counts(counts, q)
    return out


def machine_metrics(machine, dsm=None, rollback=None) -> dict:
    """Snapshot one finished run's machine/DSM/rollback counters.

    Parameters
    ----------
    machine:
        The :class:`~repro.cluster.machine.Machine` the run executed on.
    dsm:
        Optional :class:`~repro.core.dsm.Dsm`; contributes Global_Read
        and per-node DSM counters.
    rollback:
        Optional merged :class:`~repro.bayes.rollback.RollbackStats`;
        contributes gamble/rollback/wasted-sample counters.

    Returns the plain-dict snapshot (picklable, so results can cross
    :func:`repro.experiments.runner.run_cells` process boundaries).
    """
    kernel = machine.kernel
    now = kernel.now
    net = machine.network.stats
    counters: dict[str, Any] = {
        "kernel.events": kernel.events_executed,
        "messages.sent": machine.vm.total_messages(),
        "net.frames_sent": net.frames_sent,
        "net.bytes_sent": net.bytes_sent,
    }
    gauges: dict[str, float] = {
        "time.completion": now,
        "net.utilization": net.utilization(now),
        "net.mean_latency": net.latency.mean,
    }
    histograms: dict[str, dict[int, int]] = {}
    per_node: dict[str, dict[str, float]] = {}

    if machine.warp is not None:
        gauges["warp.mean"] = machine.warp.mean_warp
        gauges["warp.max"] = machine.warp.max_warp

    if dsm is not None:
        gr = dsm.merged_gr_stats()
        counters["gr.calls"] = gr.calls
        counters["gr.hits"] = gr.hits
        counters["gr.blocked"] = gr.blocked
        counters["gr.requests_sent"] = gr.requests_sent
        gauges["gr.block_time"] = gr.block_time
        gauges["gr.hit_rate"] = gr.hit_rate
        gauges["gr.mean_block_time"] = gr.mean_block_time
        histograms["gr.staleness"] = gr.staleness_histogram
        for tid, node in sorted(dsm._nodes.items()):
            # keys in sorted order, like every other level of the snapshot
            per_node[str(tid)] = {
                "dsm_writes": node.stats.writes,
                "gr_block_time": node.gr_stats.block_time,
                "gr_blocked": node.gr_stats.blocked,
                "gr_calls": node.gr_stats.calls,
                "gr_hits": node.gr_stats.hits,
                "updates_received": node.stats.updates_received,
                "updates_sent": node.stats.updates_sent,
            }

    if rollback is not None:
        counters["rb.gambles"] = rollback.gambles
        counters["rb.gamble_hits"] = rollback.gamble_hits
        counters["rb.rollbacks"] = rollback.rollbacks
        counters["rb.wasted_samples"] = rollback.nodes_resampled
        counters["rb.corrections_sent"] = rollback.corrections_sent
        counters["rb.corrections_received"] = rollback.corrections_received
        gauges["rb.gamble_hit_rate"] = rollback.gamble_hit_rate
        histograms["rb.depth"] = rollback.depth_histogram

    if machine.faults is not None:
        for key, value in machine.faults.stats.as_dict().items():
            counters[f"faults.{key}"] = value
        counters["faults.log_events"] = len(machine.faults.log)

    return {
        "schema": METRICS_SCHEMA,
        "counters": dict(sorted(counters.items())),
        "gauges": {name: float(v) for name, v in sorted(gauges.items())},
        "histograms": {
            name: _summary_from_counts(counts)
            for name, counts in sorted(histograms.items())
        },
        "per_node": per_node,
    }
