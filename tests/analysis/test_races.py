"""Happens-before race classifier: unit, property and acceptance tests.

The acceptance contract (ISSUE 1): on a P=4 f1 island run the
synchronous mode classifies race-free, the fully asynchronous mode shows
unbounded races, and `Global_Read(age=10)` shows only tolerated races
whose staleness respects the bound.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.races import (
    RaceClass,
    RaceClassifier,
    VectorClock,
    attach_race_classifier,
)
from repro.analysis.report import classify_three_modes, race_table
from repro.cluster import Machine, MachineConfig
from repro.core import Dsm, SharedLocationSpec
from repro.core.coherence import CoherenceMode
from repro.sim import Compute


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
        assert x.concurrent_with(y) and y.concurrent_with(x)
        assert not lo.concurrent_with(hi)

    def test_copy_is_independent(self):
        a = VectorClock({0: 1})
        b = a.copy()
        b.tick(0)
        assert a.get(0) == 1 and b.get(0) == 2


# ---------------------------------------------------------------------------
# Classifier driven directly through its hooks (no simulator)
# ---------------------------------------------------------------------------
class _Msg:
    def __init__(self, src, msg_id):
        self.src = src
        self.msg_id = msg_id


class TestClassifierHooks:
    def test_ordered_missed_write_is_synchronized(self):
        rc = RaceClassifier()
        rc.on_write("x", 1, 0.0, writer=0)
        rc.on_write("x", 2, 1.0, writer=0)
        # writer sends a message *after* age-2 write; reader consumes it,
        # then reads the age-1 value: the age-2 write happens-before the
        # read, so the pair is ordered (not a race)
        rc.on_send(0, 1, 7, msg_id=100, time=1.5)
        rc.on_recv(1, _Msg(0, 100), time=2.0)
        rc.on_read(1, "x", returned_age=1, time=2.5)
        assert rc.synchronized_pairs == 1
        assert rc.tolerated_races == 0 and rc.unbounded_races == 0

    def test_concurrent_missed_write_without_bound_is_unbounded(self):
        rc = RaceClassifier()
        rc.on_write("x", 1, 0.0, writer=0)
        rc.on_write("x", 2, 1.0, writer=0)
        rc.on_read(1, "x", returned_age=1, time=2.0)  # read_local: no bound
        assert rc.unbounded_races == 1
        assert rc.pairs[0].classification is RaceClass.UNBOUNDED
        assert rc.pairs[0].staleness == 1

    def test_concurrent_missed_write_within_bound_is_tolerated(self):
        rc = RaceClassifier()
        rc.on_write("x", 5, 0.0, writer=0)
        rc.on_write("x", 6, 1.0, writer=0)
        rc.on_read(1, "x", returned_age=5, time=2.0, curr_iter=6, age_bound=2)
        assert rc.tolerated_races == 1 and rc.unbounded_races == 0

    def test_bound_violation_is_unbounded_even_with_bound(self):
        rc = RaceClassifier()
        rc.on_write("x", 1, 0.0, writer=0)
        rc.on_write("x", 9, 1.0, writer=0)
        rc.on_read(1, "x", returned_age=1, time=2.0, curr_iter=9, age_bound=2)
        assert rc.unbounded_races == 1
        # and the base ConsistencyChecker still flags the staleness bound
        assert any(v.invariant == "staleness-bound" for v in rc.violations)

    def test_read_of_latest_value_is_clean(self):
        rc = RaceClassifier()
        rc.on_write("x", 1, 0.0, writer=0)
        rc.on_read(1, "x", returned_age=1, time=1.0)
        assert rc.clean_reads == 1
        assert rc.pair_counts == {}

    def test_pair_cap_counts_but_stops_storing(self):
        rc = RaceClassifier(max_pairs=3)
        for age in range(1, 8):
            rc.on_write("x", age, float(age), writer=0)
        for i in range(5):
            rc.on_read(1, "x", returned_age=1, time=10.0 + i)
        assert len(rc.pairs) == 3
        assert rc.pairs_dropped > 0
        assert rc.unbounded_races == 5 * 6  # every occurrence still counted

    def test_race_evidence_lands_in_pairs(self):
        rc = RaceClassifier()
        rc.on_write("x", 1, 0.0, writer=0)
        rc.on_write("x", 2, 1.0, writer=0)
        rc.on_read(1, "x", returned_age=1, time=2.0)
        [pair] = rc.pairs
        assert (pair.locn, pair.writer, pair.reader) == ("x", 0, 1)
        assert pair.classification is RaceClass.UNBOUNDED
        assert pair.time == 2.0

    def test_report_mentions_classification(self):
        rc = RaceClassifier()
        rc.on_write("x", 1, 0.0, writer=0)
        rc.on_write("x", 2, 1.0, writer=0)
        rc.on_read(1, "x", returned_age=1, time=2.0)
        text = rc.report()
        assert "unbounded races: 1" in text
        assert "[unbounded] x" in text


# ---------------------------------------------------------------------------
# Simulated writer/reader workloads
# ---------------------------------------------------------------------------
def _writer_reader_run(n_iters, writer_dt, reader_dt, synchronized):
    """One writer, one reader.  ``synchronized`` wraps each iteration in
    the textbook double barrier (write, barrier, read, barrier), which
    orders every write against every read; otherwise both free-run and
    the reader uses ``read_local``."""
    m = Machine(MachineConfig(n_nodes=2, seed=1))
    dsm = Dsm(m.vm)
    rc = attach_race_classifier(dsm)
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

    m.spawn_on(0, writer)
    m.spawn_on(1, reader)
    m.run_to_completion(until=10_000.0)
    return rc


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
    rc = _writer_reader_run(n_iters, writer_dt, reader_dt, synchronized=True)
    assert rc.race_free, rc.report()
    assert rc.ok, rc.report()
    assert rc.reads_checked == n_iters


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
    unbounded (read_local carries no staleness contract), and the base
    consistency invariants still hold."""
    rc = _writer_reader_run(n_iters, writer_dt, reader_dt, synchronized=False)
    assert rc.tolerated_races == 0
    assert rc.synchronized_pairs == 0
    assert rc.ok, rc.report()


def test_seeded_racy_async_schedule_is_flagged():
    """A fixed schedule where the writer outpaces update delivery MUST
    produce at least one unbounded race (the simulator is deterministic,
    so this is a stable regression anchor)."""
    rc = _writer_reader_run(30, writer_dt=3e-4, reader_dt=5e-4, synchronized=False)
    assert rc.unbounded_races >= 1, rc.report()
    assert rc.ok, rc.report()


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
        assert sync.classifier.race_free, sync.classifier.report()
        assert sync.classifier.ok

    def test_asynchronous_shows_unbounded_races(self, island_runs):
        async_ = island_runs[1]
        assert async_.mode is CoherenceMode.ASYNCHRONOUS
        assert async_.classifier.unbounded_races >= 1
        assert async_.classifier.tolerated_races == 0
        assert async_.classifier.ok

    def test_global_read_shows_only_tolerated_races_within_bound(self, island_runs):
        gr = island_runs[2]
        assert gr.mode is CoherenceMode.NON_STRICT
        assert gr.classifier.tolerated_races >= 1
        assert gr.classifier.unbounded_races == 0
        assert gr.classifier.max_observed_staleness() <= 10
        assert gr.classifier.ok

    def test_table_formats_all_modes(self, island_runs):
        table = race_table(island_runs)
        assert "synchronous" in table
        assert "Global_Read(age=10)" in table
        assert "unbounded" in table

