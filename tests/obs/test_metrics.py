"""MetricsRegistry + machine_metrics snapshot behaviour.

Pins the snapshot schema, nearest-rank percentile arithmetic, and the
two stability properties the experiment envelopes rely on: identical
runs produce identical snapshots, and results carry metrics even with
tracing off.
"""

import pytest

from repro.obs.integration import traced_ga_run
from repro.obs.metrics import (
    METRICS_SCHEMA,
    MetricsRegistry,
    percentile_from_samples,
)
from repro.obs.report import report_dict


def test_percentile_nearest_rank():
    xs = [15.0, 20.0, 35.0, 40.0, 50.0]
    assert percentile_from_samples(xs, 30) == 20.0
    assert percentile_from_samples(xs, 40) == 20.0
    assert percentile_from_samples(xs, 50) == 35.0
    assert percentile_from_samples(xs, 100) == 50.0
    assert percentile_from_samples([7.0], 99) == 7.0
    assert percentile_from_samples([], 50) == 0.0


def test_registry_counters_gauges_histograms():
    reg = MetricsRegistry()
    reg.count("msgs", 2)
    reg.count("msgs", 3)
    reg.gauge("util", 0.25)
    reg.counts_histogram("depth", {1: 5, 3: 2})
    reg.node(0)["writes"] = 7
    snap = reg.snapshot()
    assert snap["schema"] == METRICS_SCHEMA
    assert snap["counters"]["msgs"] == 5
    assert snap["gauges"]["util"] == 0.25
    depth = snap["histograms"]["depth"]
    assert depth["count"] == 7 and depth["counts"] == {"1": 5, "3": 2}
    assert depth["min"] == 1.0 and depth["max"] == 3.0
    assert depth["mean"] == 11 / 7 and depth["p50"] == 1.0 and depth["p90"] == 3.0
    assert snap["per_node"]["0"]["writes"] == 7


def test_snapshot_is_json_and_sorted():
    reg = MetricsRegistry()
    reg.count("b")
    reg.count("a")
    out = reg.to_json()
    assert out.index('"a"') < out.index('"b"')


def test_ga_result_carries_metrics_without_tracing():
    """Metrics ride on every result — tracing is not a precondition."""
    from repro.core.coherence import CoherenceMode
    from repro.experiments.config import Scale
    from repro.experiments.speedup import machine_for
    from repro.ga.functions import get_function
    from repro.ga.island import IslandGaConfig, run_island_ga

    result = run_island_ga(
        IslandGaConfig(
            fn=get_function(1),
            n_demes=2,
            mode=CoherenceMode.NON_STRICT,
            age=10,
            n_generations=25,
            seed=5,
            machine=machine_for(Scale.smoke(), 2, 5),
        )
    )
    m = result.metrics
    assert m["schema"] == METRICS_SCHEMA
    assert m["counters"]["gr.calls"] > 0
    assert m["counters"]["messages.sent"] == result.messages_sent
    assert 0.0 <= m["gauges"]["gr.hit_rate"] <= 1.0
    assert "gr.staleness" in m["histograms"]
    assert set(m["per_node"]) == {"0", "1"}


def test_identical_runs_produce_identical_snapshots(ga_run):
    again = traced_ga_run(n_demes=2, seed=7)
    assert ga_run.metrics == again.metrics


def test_trace_is_the_one_warp_sample_store(ga_run):
    """Warp samples recomputed from ``net.deliver`` land on the live
    meter's running stats, so the meter keeps no raw samples of its own."""
    warp = report_dict(ga_run.bus.events)["warp"]["all"]
    assert warp["mean"] == pytest.approx(ga_run.result.mean_warp, rel=1e-12, abs=0)
    assert warp["max"] == ga_run.result.max_warp
    assert not any(k.startswith("warp") for k in ga_run.metrics["histograms"])
