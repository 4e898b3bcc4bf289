"""The machine_metrics snapshot.

Pins the snapshot schema, nearest-rank percentile arithmetic, and the
two stability properties the experiment envelopes rely on: identical
runs produce identical snapshots, and results carry metrics even with
tracing off.
"""

import json

import pytest

from repro.bayes.rollback import RollbackStats
from repro.cluster import Machine, MachineConfig
from repro.obs.metrics import (
    METRICS_SCHEMA,
    machine_metrics,
    percentile_from_samples,
)
from repro.obs.report import report_dict
from tests.obs.conftest import two_deme_ga_run


def test_percentile_nearest_rank():
    xs = [15.0, 20.0, 35.0, 40.0, 50.0]
    assert percentile_from_samples(xs, 30) == 20.0
    assert percentile_from_samples(xs, 40) == 20.0
    assert percentile_from_samples(xs, 50) == 35.0
    assert percentile_from_samples(xs, 100) == 50.0
    assert percentile_from_samples([7.0], 99) == 7.0
    assert percentile_from_samples([], 50) == 0.0


def _ping_machine():
    """A finished two-node run: one 4-byte message from node 0 to node 1."""
    m = Machine(MachineConfig(n_nodes=2, seed=1))

    def ping(node, task):
        yield from task.send(1, tag=1, payload=0, nbytes=4)

    def pong(node, task):
        yield from task.recv(src=0)

    m.spawn_on(0, ping)
    m.spawn_on(1, pong)
    m.run_to_completion()
    return m


def test_registry_counters_gauges_histograms():
    m = _ping_machine()
    rb = RollbackStats(gambles=10, gamble_hits=3, rollbacks=1,
                       depth_histogram={1: 5, 3: 2})
    snap = machine_metrics(m, rollback=rb)
    assert snap["schema"] == METRICS_SCHEMA
    assert snap["counters"]["messages.sent"] == 1
    assert snap["counters"]["rb.rollbacks"] == 1
    assert snap["gauges"]["time.completion"] == m.kernel.now
    assert snap["gauges"]["rb.gamble_hit_rate"] == 0.75
    assert all(type(v) is float for v in snap["gauges"].values())
    depth = snap["histograms"]["rb.depth"]
    assert depth["count"] == 7 and depth["counts"] == {"1": 5, "3": 2}
    assert depth["min"] == 1.0 and depth["max"] == 3.0
    assert depth["mean"] == 11 / 7 and depth["p50"] == 1.0 and depth["p90"] == 3.0
    assert snap["per_node"] == {}  # per-node counters come from a Dsm


def test_snapshot_is_json_and_sorted():
    snap = machine_metrics(_ping_machine(), rollback=RollbackStats())
    assert json.loads(json.dumps(snap)) == snap
    for section in ("counters", "gauges", "histograms"):
        assert list(snap[section]) == sorted(snap[section])


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
    again = two_deme_ga_run(7)
    assert ga_run.metrics == again.metrics


def test_trace_is_the_one_warp_sample_store(ga_run):
    """Warp samples recomputed from ``net.deliver`` land on the live
    meter's running stats, so the meter keeps no raw samples of its own."""
    warp = report_dict(ga_run.bus.events)["warp"]["all"]
    assert warp["mean"] == pytest.approx(ga_run.result.mean_warp, rel=1e-12, abs=0)
    assert warp["max"] == ga_run.result.max_warp
    assert not any(k.startswith("warp") for k in ga_run.metrics["histograms"])
