"""Happens-before race classifier: unit, property and acceptance tests.

The acceptance contract (ISSUE 1): on a P=4 f1 island run the
synchronous mode classifies race-free, the fully asynchronous mode shows
unbounded races, and `Global_Read(age=10)` shows only tolerated races
whose staleness respects the bound.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.races import RaceClass, VectorClock, classify_races
from repro.experiments.race_report import classify_island_run, classify_three_modes, race_table
from repro.bayes.parallel import run_parallel_logic_sampling
from repro.check import golden_bayes, golden_ga
from repro.cluster import Machine, MachineConfig
from repro.core import Dsm, SharedLocationSpec, consistency_violations
from repro.core.coherence import CoherenceMode
from repro.faults import FaultPlan, MessageFaults
from repro.faults.chaos import PLANS
from repro.ga.island import run_island_ga
from repro.obs.bus import ObsEvent
from repro.sim import CompletionCounter, Compute


# ---------------------------------------------------------------------------
# Vector clocks
# ---------------------------------------------------------------------------
class TestVectorClock:
    def test_tick_and_get(self):
        vc = VectorClock()
        vc.tick(0)
        vc.tick(0)
        vc.tick(3)
        assert (vc.get(0), vc.get(3), vc.get(7)) == (2, 1, 0)

    def test_join_is_componentwise_max(self):
        a = VectorClock({0: 3, 1: 1})
        b = VectorClock({1: 5, 2: 2})
        a.join(b)
        assert (a.get(0), a.get(1), a.get(2)) == (3, 5, 2)

    def test_leq_and_concurrency(self):
        lo = VectorClock({0: 1})
        hi = VectorClock({0: 2, 1: 1})
        assert lo.leq(hi) and not hi.leq(lo)
        x = VectorClock({0: 2})
        y = VectorClock({1: 2})
        assert not x.leq(y) and not y.leq(x)  # concurrent

    def test_copy_is_independent(self):
        a = VectorClock({0: 1})
        b = a.copy()
        b.tick(0)
        assert a.get(0) == 1 and b.get(0) == 2


# ---------------------------------------------------------------------------
# The fold over hand-built traces (no simulator)
# ---------------------------------------------------------------------------
def _write(locn, age, t, writer=0):
    return ObsEvent(t, "dsm.write", writer, {"locn": locn, "iter": age})


def _read(reader, locn, ret, t, curr_iter=None, age_bound=None):
    """A ``read_local`` return, or a ``Global_Read`` hit when bounded."""
    if age_bound is None:
        return ObsEvent(t, "dsm.read", reader, {"locn": locn, "ret": ret})
    return ObsEvent(t, "gr.hit", reader, {
        "locn": locn, "curr_iter": curr_iter, "age": age_bound,
        "staleness": max(0, curr_iter - ret), "ret": ret,
    })


class TestClassifierHooks:
    def test_ordered_missed_write_is_synchronized(self):
        # writer sends a message *after* its age-2 write; the reader
        # consumes it, then reads the age-1 value: the age-2 write
        # happens-before the read, so the pair is ordered (not a race)
        pairs, s = classify_races([
            _write("x", 1, 0.0),
            _write("x", 2, 1.0),
            ObsEvent(1.5, "msg.send", 0, {"seq": 1}),
            ObsEvent(2.0, "msg.consume", 1, {"newest": "0:1"}),
            _read(1, "x", 1, 2.5),
        ])
        assert s["synchronized_pairs"] == 1
        assert s["tolerated_races"] == 0 and s["unbounded_races"] == 0
        assert [p.classification for p in pairs] == [RaceClass.SYNCHRONIZED]

    def test_concurrent_missed_write_without_bound_is_unbounded(self):
        pairs, s = classify_races(
            [_write("x", 1, 0.0), _write("x", 2, 1.0), _read(1, "x", 1, 2.0)]
        )
        assert s["unbounded_races"] == 1
        assert pairs[0].classification is RaceClass.UNBOUNDED
        assert pairs[0].staleness == 1

    def test_concurrent_missed_write_within_bound_is_tolerated(self):
        _, s = classify_races([
            _write("x", 5, 0.0),
            _write("x", 6, 1.0),
            _read(1, "x", 5, 2.0, curr_iter=6, age_bound=2),
        ])
        assert s["tolerated_races"] == 1 and s["unbounded_races"] == 0

    def test_bound_violation_is_unbounded_even_with_bound(self):
        events = [
            _write("x", 1, 0.0),
            _write("x", 9, 1.0),
            _read(1, "x", 1, 2.0, curr_iter=9, age_bound=2),
        ]
        _, s = classify_races(events)
        assert s["unbounded_races"] == 1
        # and the consistency fold still flags the staleness bound
        assert s["consistency_violations"] == 1
        [v] = consistency_violations(events)
        assert v.invariant == "staleness-bound"

    def test_read_of_latest_value_is_clean(self):
        pairs, s = classify_races([_write("x", 1, 0.0), _read(1, "x", 1, 1.0)])
        assert s["clean_reads"] == 1
        assert pairs == []

    def test_every_pair_is_counted_and_stored(self):
        events = [_write("x", age, float(age)) for age in range(1, 8)]
        events += [_read(1, "x", 1, 10.0 + i) for i in range(5)]
        pairs, s = classify_races(events)
        assert s["unbounded_races"] == 5 * 6
        assert len(pairs) == s["unbounded_races"]  # no sample: every pair

    def test_race_evidence_lands_in_pairs(self):
        [pair], _ = classify_races(
            [_write("x", 1, 0.0), _write("x", 2, 1.0), _read(1, "x", 1, 2.0)]
        )
        assert (pair.locn, pair.writer, pair.reader) == ("x", 0, 1)
        assert pair.classification is RaceClass.UNBOUNDED
        assert pair.time == 2.0

    def test_report_mentions_classification(self):
        pairs, s = classify_races(
            [_write("x", 1, 0.0), _write("x", 2, 1.0), _read(1, "x", 1, 2.0)]
        )
        assert s["unbounded_races"] == 1
        assert pairs[0].describe().startswith("[unbounded] x: writer 0")

    def test_multicast_send_orders_every_consumer(self):
        # one msg.send record stands for every copy of a multicast: both
        # consumers of submission 1 are ordered after the age-2 write
        _, s = classify_races([
            _write("x", 1, 0.0),
            _write("x", 2, 1.0),
            ObsEvent(1.5, "msg.send", 0, {"seq": 1}),
            ObsEvent(2.0, "msg.consume", 1, {"newest": "0:1"}),
            ObsEvent(2.0, "msg.consume", 2, {"newest": "0:1"}),
            _read(1, "x", 1, 2.5),
            _read(2, "x", 1, 2.5),
        ])
        assert s["synchronized_pairs"] == 2 and s["recvs_observed"] == 2

    def test_newest_submission_joins_every_earlier_one(self):
        # a batch names only the newest submission per source; the
        # sender's clock only grows, so the earlier write is ordered too
        _, s = classify_races([
            _write("x", 1, 0.0),
            ObsEvent(0.5, "msg.send", 0, {"seq": 1}),
            _write("x", 2, 1.0),
            ObsEvent(1.5, "msg.send", 0, {"seq": 2}),
            ObsEvent(2.0, "msg.consume", 1, {"newest": "0:2"}),
            _read(1, "x", 0, 2.5),
        ])
        assert s["synchronized_pairs"] == 2

    def test_stalest_pair_past_ten_thousand_is_reported(self):
        # more than 10,000 mild pairs first, the stalest one last: the
        # worst staleness is over every pair, not a stored sample
        events = [_write("x", age, 0.0) for age in range(0, 102)]
        events += [_read(1, "x", 100, 1.0) for _ in range(10_001)]
        events.append(_read(1, "x", 0, 2.0))
        pairs, s = classify_races(events)
        assert len(pairs) > 10_000
        assert s["max_observed_staleness"] == 101

    def test_truncated_trace_is_refused(self):
        with pytest.raises(ValueError, match="3 event"):
            classify_races([_write("x", 1, 0.0)], dropped=3)


# ---------------------------------------------------------------------------
# Simulated writer/reader workloads
# ---------------------------------------------------------------------------
def _writer_reader_run(n_iters, writer_dt, reader_dt, synchronized):
    """One writer, one reader, traced; returns the fold's (pairs, summary).

    ``synchronized`` wraps each iteration in the textbook double barrier
    (write, barrier, read, barrier), which orders every write against
    every read; otherwise both free-run and the reader uses
    ``read_local``."""
    m = Machine(MachineConfig(n_nodes=2, seed=1, trace=True))
    dsm = Dsm(m.vm)
    dsm.register(SharedLocationSpec("loc.0", writer=0, readers=(1,), value_nbytes=64))
    group = (0, 1)

    def writer(node, task):
        dnode = dsm.node(0)
        for i in range(n_iters):
            yield Compute(writer_dt)
            yield from dnode.write("loc.0", ("v", i), iter_no=i, nbytes=64)
            if synchronized:
                yield from task.barrier(group)
                yield from task.barrier(group)

    def reader(node, task):
        dnode = dsm.node(1)
        for i in range(n_iters):
            yield Compute(reader_dt)
            if synchronized:
                yield from task.barrier(group)
                copy = yield from dnode.global_read("loc.0", i, 0)
                yield from task.barrier(group)
            else:
                copy = yield from dnode.read_local("loc.0")
            if copy is not None:
                assert copy.age <= i if synchronized else True

    handles = [m.spawn_on(0, writer), m.spawn_on(1, reader)]
    m.kernel.run(until=10_000.0, stop_when=CompletionCounter(handles).all_done)
    return classify_races(m.obs.events, dropped=m.obs.dropped)


@settings(max_examples=20, deadline=None)
@given(
    n_iters=st.integers(min_value=2, max_value=12),
    writer_dt=st.floats(min_value=1e-4, max_value=5e-3),
    reader_dt=st.floats(min_value=1e-4, max_value=5e-3),
)
def test_property_barrier_synchronized_schedules_are_race_free(
    n_iters, writer_dt, reader_dt
):
    """For ANY pacing, a double-barrier schedule classifies race-free:
    the happens-before edges from the barrier traffic order every write
    against every read."""
    _, s = _writer_reader_run(n_iters, writer_dt, reader_dt, synchronized=True)
    assert s["tolerated_races"] == s["unbounded_races"] == 0, s
    assert s["consistency_violations"] == 0, s
    assert s["reads_checked"] == n_iters


@settings(max_examples=20, deadline=None)
@given(
    n_iters=st.integers(min_value=5, max_value=20),
    writer_dt=st.floats(min_value=1e-4, max_value=2e-3),
    reader_dt=st.floats(min_value=1e-4, max_value=2e-3),
)
def test_property_async_schedules_classify_only_unbounded(
    n_iters, writer_dt, reader_dt
):
    """For ANY pacing, races a free-running reader does hit are
    unbounded (read_local carries no staleness contract), and the
    consistency invariants still hold."""
    _, s = _writer_reader_run(n_iters, writer_dt, reader_dt, synchronized=False)
    assert s["tolerated_races"] == 0
    assert s["synchronized_pairs"] == 0
    assert s["consistency_violations"] == 0, s


def test_seeded_racy_async_schedule_is_flagged():
    """A fixed schedule where the writer outpaces update delivery MUST
    produce at least one unbounded race (the simulator is deterministic,
    so this is a stable regression anchor)."""
    _, s = _writer_reader_run(30, writer_dt=3e-4, reader_dt=5e-4, synchronized=False)
    assert s["unbounded_races"] >= 1, s
    assert s["consistency_violations"] == 0, s


# ---------------------------------------------------------------------------
# Acceptance: the P=4 f1 island comparison
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def island_runs():
    return classify_three_modes(fid=1, n_demes=4, age=10, n_generations=60, seed=0)


class TestIslandAcceptance:
    def test_synchronous_is_race_free(self, island_runs):
        sync = island_runs[0]
        assert sync.mode is CoherenceMode.SYNCHRONOUS
        assert sync.summary["tolerated_races"] == sync.summary["unbounded_races"] == 0
        assert sync.summary["consistency_violations"] == 0

    def test_asynchronous_shows_unbounded_races(self, island_runs):
        s = island_runs[1].summary
        assert island_runs[1].mode is CoherenceMode.ASYNCHRONOUS
        assert s["unbounded_races"] >= 1
        assert s["tolerated_races"] == 0
        assert s["consistency_violations"] == 0

    def test_global_read_shows_only_tolerated_races_within_bound(self, island_runs):
        s = island_runs[2].summary
        assert island_runs[2].mode is CoherenceMode.NON_STRICT
        assert s["tolerated_races"] >= 1
        assert s["unbounded_races"] == 0
        assert s["max_observed_staleness"] <= 10
        assert s["consistency_violations"] == 0

    def test_table_formats_all_modes(self, island_runs):
        table = race_table(island_runs)
        assert "synchronous" in table
        assert "Global_Read(age=10)" in table
        assert "unbounded" in table


# ---------------------------------------------------------------------------
# Parity pin: what the stateful classifier fed by side-channel hooks
# reported on these runs; the trace folds must reproduce it exactly
# ---------------------------------------------------------------------------
#: (reads, writes, clean, synchronized, tolerated, unbounded, max stale,
#: violations)
PARITY_PIN = {
    "island-synchronous-40": (480, 164, 480, 0, 0, 0, 0, 0),
    "island-asynchronous-40": (480, 164, 290, 0, 0, 190, 1, 0),
    "island-non_strict-40": (480, 164, 290, 0, 190, 0, 1, 0),
    "island-synchronous-60": (720, 244, 720, 0, 0, 0, 0, 0),
    "island-asynchronous-60": (720, 244, 425, 0, 0, 295, 1, 0),
    "island-non_strict-60": (720, 244, 425, 0, 295, 0, 1, 0),
    "async-racy-30": (28, 30, 0, 0, 0, 28, 1, 0),
    "barrier-8": (8, 8, 8, 0, 0, 0, 0, 0),
    "drop-writer-reader": (25, 75, 5, 0, 25, 0, 2, 0),
    "bayes-duplicate": (6005, 1202, 5309, 0, 696, 0, 5, 0),
    "ga-lossless-chaos": (80, 82, 51, 0, 29, 0, 1, 0),
}

_PIN_KEYS = (
    "reads_checked", "writes_checked", "clean_reads", "synchronized_pairs",
    "tolerated_races", "unbounded_races", "max_observed_staleness",
    "consistency_violations",
)


def _traced_summary(run, cfg):
    cfg = replace(cfg, machine=replace(cfg.machine, trace=True))
    holder = {}
    run(cfg, instrument=lambda dsm: holder.update(dsm=dsm))
    bus = holder["dsm"].vm.kernel.obs
    return classify_races(bus.events, dropped=bus.dropped)[1]


def _pinned_scenario(name):
    if name.startswith("island-"):
        _, mode, gens = name.split("-")
        run = classify_island_run(CoherenceMode(mode), n_generations=int(gens))
        return run.summary
    if name == "async-racy-30":
        return _writer_reader_run(30, 3e-4, 5e-4, synchronized=False)[1]
    if name == "barrier-8":
        return _writer_reader_run(8, 1e-3, 2e-3, synchronized=True)[1]
    if name == "drop-writer-reader":
        plan = FaultPlan(seed=2, messages=MessageFaults(drop=0.35))
        return _drop_run(plan)
    if name == "bayes-duplicate":
        cfg = golden_bayes(PLANS["bayes-duplicate"], max_iterations=4000)
        return _traced_summary(run_parallel_logic_sampling, cfg)
    return _traced_summary(run_island_ga, golden_ga(PLANS["ga-lossless-chaos"]))


def _drop_run(plan):
    """The drop-heavy writer/reader of ``test_races_faults``."""
    m = Machine(MachineConfig(n_nodes=2, seed=1, faults=plan, trace=True))
    dsm = Dsm(m.vm)
    dsm.register(SharedLocationSpec("x", writer=0, readers=(1,), value_nbytes=64))

    def writer(node, task):
        dnode = dsm.node(0)
        for i in range(75):
            yield Compute(node.cost(0.001))
            yield from dnode.write("x", value=i, iter_no=i)

    def reader(node, task):
        dnode = dsm.node(1)
        for i in range(25):
            yield from dnode.global_read("x", curr_iter=i, age=4)
            yield Compute(node.cost(0.001))

    m.spawn_on(0, writer)
    m.spawn_on(1, reader)
    m.run_to_completion()
    return classify_races(m.obs.events, dropped=m.obs.dropped)[1]


@pytest.mark.parametrize("name", sorted(PARITY_PIN))
def test_folds_reproduce_the_parity_pin(name):
    s = _pinned_scenario(name)
    assert tuple(s[k] for k in _PIN_KEYS) == PARITY_PIN[name]
