"""Bounded-lag parallel kernel: bit-identity, planning, trace merge.

The tentpole promise of :mod:`repro.sim.parallel` is that a sharded run
is *bit-identical* to the serial kernel — same golden digest, same
chaos digest under faults, same JSONL trace.  These tests pin that at
shards ∈ {1, 2, 4} and exercise the planning/merge plumbing in
isolation.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace

import pytest

from repro.check import GOLDEN, ga_digest
from repro.core.coherence import CoherenceMode
from repro.ga.functions import get_function
from repro.ga.island import IslandGaConfig, run_island_ga
from repro.ga.topology import comm_graph, wiring
from repro.sim.parallel import lookahead_of, plan_shards


def ga_comm_graph(n_demes, migrant_nbytes):
    """The all-to-all island GA's unit-communication graph."""
    return comm_graph(wiring("all", n_demes)[0], migrant_nbytes)


# ---------------------------------------------------------------------------
# planning


def test_lookahead_positive_for_both_interconnects():
    from repro.cluster.machine import MachineConfig
    from repro.network.switched import SP2_SWITCH

    eth = lookahead_of(MachineConfig(n_nodes=2))
    sw = lookahead_of(
        MachineConfig(n_nodes=2, interconnect="switched", switched=SP2_SWITCH)
    )
    assert eth > 0 and sw > 0


def test_plan_shards_balanced_and_deterministic():
    g = ga_comm_graph(4, 1000)
    p1 = plan_shards(g, 2, lookahead=1e-3, seed=0)
    p2 = plan_shards(g, 2, lookahead=1e-3, seed=0)
    assert p1 == p2
    assert p1.n_shards == 2
    assert sorted(len(p1.owned_by(k)) for k in range(2)) == [2, 2]
    # labels normalised in unit order: unit 0 always lands in shard 0
    assert p1.owner[0] == 0


def test_plan_shards_clamps_to_unit_count():
    g = ga_comm_graph(2, 100)
    p = plan_shards(g, 8, lookahead=1e-3)
    assert p.n_shards == 2


def test_plan_rejects_bad_labels():
    from repro.partition import Graph

    g = Graph()
    g.add_edge(3, 5)
    with pytest.raises(ValueError, match="0..n-1"):
        plan_shards(g, 2, lookahead=1e-3)


def test_window_of_quantises_by_lookahead():
    g = ga_comm_graph(2, 100)
    p = plan_shards(g, 2, lookahead=0.5)
    assert p.window_of(0.0) == 0
    assert p.window_of(0.49) == 0
    assert p.window_of(1.7) == 3


# ---------------------------------------------------------------------------
# bit-identity (the tentpole acceptance)


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sharded_golden_digest_unchanged(golden_island, shards):
    result = run_island_ga(golden_island(), shards=shards)
    assert ga_digest(result) == GOLDEN["ga_result"]
    info = result.metrics.get("parallel", {"shards": 1})
    if info.get("fallback") is None:
        # 2 demes: shards=4 clamps to 2 workers, and says so
        assert info["shards"] == min(shards, 2)


def test_sharded_run_really_used_workers(golden_island):
    result = run_island_ga(golden_island(), shards=2)
    info = result.metrics["parallel"]
    if not info["sharded"]:  # pragma: no cover - platform without procs
        pytest.skip(f"worker processes unavailable: {info['fallback']}")
    assert info["shards"] == 2
    assert info["records_routed"] > 0
    assert sorted(info["owner"]) == [0, 1]


def test_shard_workers_exit_on_their_own(golden_island, monkeypatch):
    """Workers leave on the coordinator's BYE: nobody sits out the 10 s
    ``join`` timeout to be ``terminate()``d (exit code ``-SIGTERM``)."""
    from repro.ga.sharded import GaShardScenario
    from repro.sim.parallel import coordinator

    ctx = coordinator._mp_context()
    procs = []

    class RecordingContext:
        Pipe = staticmethod(ctx.Pipe)

        @staticmethod
        def Process(**kw):
            procs.append(ctx.Process(**kw))
            return procs[-1]

    monkeypatch.setattr(coordinator, "_mp_context", lambda: RecordingContext)
    t0 = time.perf_counter()
    run = coordinator.run_sharded(GaShardScenario(golden_island()), 2, seed=7)
    elapsed = time.perf_counter() - t0
    if not run.sharded:  # pragma: no cover - platform without procs
        pytest.skip(f"worker processes unavailable: {run.fallback}")
    assert ga_digest(run.result) == GOLDEN["ga_result"]
    assert [p.exitcode for p in procs] == [0, 0]
    assert elapsed < 5.0


@pytest.mark.parametrize("shards", [2, 4])
def test_sharded_chaos_digest_unchanged(golden_island, shards):
    from repro.faults.chaos import PLANS

    plan = PLANS["ga-lossless-chaos"]
    result = run_island_ga(golden_island(faults=plan), shards=shards)
    info = result.metrics["parallel"]
    if not info["sharded"]:  # pragma: no cover - platform without procs
        pytest.skip(f"worker processes unavailable: {info['fallback']}")
    assert ga_digest(result, info["fault_log"]) == GOLDEN["ga-lossless-chaos"]


def test_noisy_function_falls_back_to_serial(golden_island):
    cfg = replace(golden_island(), fn=get_function(4), n_generations=5)
    result = run_island_ga(cfg, shards=2)
    info = result.metrics["parallel"]
    assert not info["sharded"]
    assert "noisy" in info["fallback"]


def test_instrument_hook_falls_back_to_serial(golden_island):
    seen = []
    result = run_island_ga(golden_island(), instrument=seen.append, shards=2)
    info = result.metrics["parallel"]
    assert not info["sharded"]
    assert "instrument" in info["fallback"]
    assert seen  # the hook still ran, serially
    assert ga_digest(result) == GOLDEN["ga_result"]


def test_trace_path_needs_a_sharded_run(golden_island, tmp_path):
    with pytest.raises(ValueError, match="sharded run"):
        run_island_ga(golden_island(), trace_path=str(tmp_path / "t.jsonl"))


def test_single_deme_falls_back_to_serial():
    cfg = IslandGaConfig(
        fn=get_function(1),
        n_demes=1,
        mode=CoherenceMode.NON_STRICT,
        age=10,
        n_generations=5,
        seed=7,
    )
    result = run_island_ga(cfg, shards=2)
    assert not result.metrics["parallel"]["sharded"]


# ---------------------------------------------------------------------------
# traced runs and the deterministic merge


def test_traced_sharded_run_merges_and_validates(golden_island, tmp_path):
    from repro.obs.schema import validate_trace

    cfg = golden_island(
        n_demes=4, seed=11, n_generations=15, load_bps=1e6, trace=True
    )
    serial = run_island_ga(cfg)
    trace_path = str(tmp_path / "merged.jsonl")
    sharded = run_island_ga(cfg, shards=2, trace_path=trace_path)
    info = sharded.metrics["parallel"]
    if not info["sharded"]:  # pragma: no cover - platform without procs
        pytest.skip(f"worker processes unavailable: {info['fallback']}")
    assert ga_digest(sharded) == ga_digest(serial)

    assert info["merged_trace"] == trace_path
    verdict = validate_trace(trace_path, strict=True)
    assert verdict["ok"], verdict["errors"][:5]

    lines = [json.loads(ln) for ln in open(trace_path, encoding="utf-8")]
    kinds = {e["kind"] for e in lines}
    assert "par.window" in kinds
    assert lines[-1]["kind"] == "trace.meta"
    assert lines[-1]["shards"] == 2
    # the window spans carry the shard id and wall-wait accounting
    span = next(e for e in lines if e["kind"] == "par.window")
    assert span["shard"] in (0, 1)
    assert span["wall_wait_s"] >= 0.0


def test_window_span_events_sorted_and_schema_shaped():
    from repro.sim.parallel import plan_shards
    from repro.sim.parallel.records import ShardOutcome
    from repro.sim.parallel.trace import window_span_events

    plan = plan_shards(ga_comm_graph(2, 100), 2, lookahead=0.5)
    outcomes = [
        ShardOutcome(shard_id=1, digest="d", window_spans=[(0, 0.0, 0.1, 2)]),
        ShardOutcome(
            shard_id=0, digest="d", window_spans=[(1, 1.0, 0.2, 3), (0, 0.0, 0.0, 0)]
        ),
    ]
    events = window_span_events(outcomes, plan)
    assert [e["t"] for e in events] == sorted(e["t"] for e in events)
    assert events[0]["shard"] == 0  # tie on t broken by shard id
    assert all(e["kind"] == "par.window" and e["node"] == -1 for e in events)
    assert events[-1]["window"] == plan.window_of(1.0)


def test_merge_rejects_divergent_shard_traces(tmp_path):
    from repro.sim.parallel import merge_shard_traces, plan_shards
    from repro.sim.parallel.records import ShardOutcome

    plan = plan_shards(ga_comm_graph(2, 100), 2, lookahead=0.5)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text('{"t": 0.0, "kind": "x", "node": 0}\n')
    b.write_text('{"t": 0.0, "kind": "y", "node": 0}\n')
    outcomes = [
        ShardOutcome(shard_id=0, digest="d", trace_path=str(a)),
        ShardOutcome(shard_id=1, digest="d", trace_path=str(b)),
    ]
    with pytest.raises(RuntimeError, match="trace divergence"):
        merge_shard_traces(outcomes, str(tmp_path / "m.jsonl"), plan)


# ---------------------------------------------------------------------------
# RecordFeed protocol unit tests (no processes: a loopback double)


class _LoopbackConn:
    """Test double for one end of a coordinator pipe."""

    def __init__(self):
        self.sent = []
        self.inbox = []

    def send(self, msg):
        self.sent.append(msg)

    def poll(self, _timeout=0):
        return bool(self.inbox)

    def recv(self):
        if not self.inbox:
            raise EOFError
        return self.inbox.pop(0)


def _feed(lag_bound=10.0):
    from dataclasses import replace

    from repro.sim.parallel.channel import RecordFeed

    plan = replace(plan_shards(ga_comm_graph(2, 100), 2, lookahead=0.5), lag_bound=lag_bound)
    conn = _LoopbackConn()
    return RecordFeed(conn, 0, plan), conn


def test_feed_publish_sends_record_and_clock_beacon():
    from repro.sim.parallel.channel import CLK, REC
    from repro.sim.parallel.records import GenRecord

    feed, conn = _feed()
    feed.bind_clock(lambda: 1.25)
    rec = GenRecord("evolve", 0, 3, 0.1, 2.0, 3.0)
    feed.publish(rec)
    assert conn.sent[0] == (REC, 0, rec)
    assert (CLK, 0, 1.25) in conn.sent


def test_feed_consume_buffers_and_orders_records():
    from repro.sim.parallel.channel import REC
    from repro.sim.parallel.records import GenRecord

    feed, conn = _feed()
    r1 = GenRecord("start", 1, 0)
    r2 = GenRecord("evolve", 1, 1)
    conn.inbox += [(REC, r1), (REC, r2)]
    assert feed.consume(1) is r1
    assert feed.consume(1) is r2
    assert feed.stats()["records_in"] == 2


def test_feed_floor_updates_bump_epoch():
    from repro.sim.parallel.channel import FLOOR, REC
    from repro.sim.parallel.records import GenRecord

    feed, conn = _feed()
    conn.inbox += [(FLOOR, 2.5), (REC, GenRecord("start", 1, 0))]
    feed.consume(1)
    assert feed.floor == 2.5
    assert feed.epoch == 1
    # stale floor (<= current) is ignored
    conn.inbox += [(FLOOR, 1.0), (REC, GenRecord("evolve", 1, 1))]
    feed.consume(1)
    assert feed.floor == 2.5
    assert feed.epoch == 1


def test_feed_gate_blocks_until_floor_advances():
    from repro.sim.parallel.channel import FLOOR
    from repro.sim.parallel.records import GenRecord

    feed, conn = _feed(lag_bound=1.0)
    feed.bind_clock(lambda: 5.0)  # clock 5.0 > floor 0.0 + lag 1.0 -> gated
    # deliver the floor only on a *blocking* recv (poll stays false), so
    # the gate loop really takes the wait path before being released
    conn.poll = lambda _timeout=0: False
    conn.inbox.append((FLOOR, 4.5))  # 5.0 <= 4.5 + 1.0 -> released
    feed.publish(GenRecord("start", 0, 0))
    assert feed.floor == 4.5
    assert feed.stats()["gate_wait_s"] >= 0.0
    assert feed.spans()  # the wait was attributed to a window span


def test_feed_closed_channel_raises_runtime_error():
    from repro.sim.parallel.records import GenRecord

    feed, conn = _feed(lag_bound=0.1)
    feed.bind_clock(lambda: 99.0)
    with pytest.raises(RuntimeError, match="coordinator channel closed"):
        feed.publish(GenRecord("start", 0, 0))


def test_ghost_divergence_raises(golden_island):
    from repro.ga.sharded import _GhostDeme
    from repro.sim.parallel.channel import REC
    from repro.sim.parallel.records import GenRecord

    feed, conn = _feed()
    ghost = _GhostDeme(golden_island(), 1, feed)
    conn.inbox.append((REC, GenRecord("evolve", 1, 7)))
    with pytest.raises(RuntimeError, match="diverged"):
        ghost.start()  # expected ("start", 0)
