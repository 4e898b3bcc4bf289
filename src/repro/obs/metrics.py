"""The metrics registry: counters, gauges and histograms for run reports.

Unlike the trace bus (a time-ordered event log), the registry is a
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

import json
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


class MetricsRegistry:
    """Named counters, gauges and count histograms with a stable JSON snapshot.

    The registry is write-mostly: subsystems (or the snapshot builders
    below) record values, then :meth:`snapshot` renders everything with
    sorted keys so two identical runs serialise byte-identically.
    """

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self._counts: dict[str, dict[int, int]] = {}
        self.per_node: dict[int, dict[str, float]] = {}

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the counter ``name`` (created at 0)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to its latest ``value``."""
        self.gauges[name] = float(value)

    def counts_histogram(self, name: str, counts: dict[int, int]) -> None:
        """Install an integer-valued count histogram under ``name``.

        Used for distributions a subsystem already tracks as counts
        (Global_Read staleness ages, rollback depths) — no re-expansion
        into raw samples.
        """
        self._counts[name] = dict(counts)

    def node(self, node_id: int) -> dict[str, float]:
        """The mutable per-node metric mapping for ``node_id``."""
        return self.per_node.setdefault(node_id, {})

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """One JSON-serialisable dict of everything, keys sorted."""
        histograms = {
            name: _summary_from_counts(counts)
            for name, counts in self._counts.items()
        }
        return {
            "schema": METRICS_SCHEMA,
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": dict(sorted(histograms.items())),
            "per_node": {
                str(n): dict(sorted(m.items()))
                for n, m in sorted(self.per_node.items())
            },
        }

    def to_json(self, indent: int = 2) -> str:
        """The snapshot as a stable (sorted-keys) JSON string."""
        return json.dumps(self.snapshot(), sort_keys=True, indent=indent)


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
    :func:`repro.experiments.runner.parallel_map` process boundaries).
    """
    reg = MetricsRegistry()
    kernel = machine.kernel
    now = kernel.now
    reg.gauge("time.completion", now)
    reg.count("kernel.events", kernel.events_executed)
    reg.count("messages.sent", machine.vm.total_messages())
    reg.count("net.frames_sent", machine.network.stats.frames_sent)
    reg.count("net.bytes_sent", machine.network.stats.bytes_sent)
    reg.gauge("net.utilization", machine.network.stats.utilization(now))
    reg.gauge("net.mean_latency", machine.network.stats.latency.mean)

    if machine.warp is not None:
        reg.gauge("warp.mean", machine.warp.mean_warp)
        reg.gauge("warp.max", machine.warp.max_warp)

    if dsm is not None:
        gr = dsm.merged_gr_stats()
        reg.count("gr.calls", gr.calls)
        reg.count("gr.hits", gr.hits)
        reg.count("gr.blocked", gr.blocked)
        reg.count("gr.requests_sent", gr.requests_sent)
        reg.gauge("gr.block_time", gr.block_time)
        reg.gauge("gr.hit_rate", gr.hit_rate)
        reg.gauge("gr.mean_block_time", gr.mean_block_time)
        reg.counts_histogram("gr.staleness", gr.staleness_histogram)
        for tid, node in sorted(dsm._nodes.items()):
            pn = reg.node(tid)
            pn["gr_calls"] = node.gr_stats.calls
            pn["gr_hits"] = node.gr_stats.hits
            pn["gr_blocked"] = node.gr_stats.blocked
            pn["gr_block_time"] = node.gr_stats.block_time
            pn["dsm_writes"] = node.stats.writes
            pn["updates_sent"] = node.stats.updates_sent
            pn["updates_received"] = node.stats.updates_received

    if rollback is not None:
        reg.count("rb.gambles", rollback.gambles)
        reg.count("rb.gamble_hits", rollback.gamble_hits)
        reg.count("rb.rollbacks", rollback.rollbacks)
        reg.count("rb.wasted_samples", rollback.nodes_resampled)
        reg.count("rb.corrections_sent", rollback.corrections_sent)
        reg.count("rb.corrections_received", rollback.corrections_received)
        reg.gauge("rb.gamble_hit_rate", rollback.gamble_hit_rate)
        reg.counts_histogram("rb.depth", rollback.depth_histogram)

    if machine.faults is not None:
        for key, value in machine.faults.stats.as_dict().items():
            reg.count(f"faults.{key}", value)
        reg.count("faults.log_events", len(machine.faults.log))

    return reg.snapshot()
