"""Parallel logic sampling: correctness of all three modes + rollback."""

import dataclasses

import numpy as np
import pytest

from repro.bayes import make_hailfinder, make_random_network, make_table2_network
from repro.bayes import parallel
from repro.bayes.parallel import ParallelLsConfig, run_parallel_logic_sampling
from repro.bayes.logic_sampling import run_serial_logic_sampling
from repro.bayes.rollback import GvtOracle, ProcessorState, RollbackStats
from repro.core.coherence import CoherenceMode
from tests.bayes.oracles import sample_node_scalar


def small_net(seed=1):
    return make_random_network(16, 22, seed=seed, name="small")


def run_mode(net, mode, age=10, seed=3, **kw):
    q = max(net.nodes)
    return run_parallel_logic_sampling(
        ParallelLsConfig(
            net=net, query=q, n_procs=2, mode=mode, age=age, seed=seed,
            max_iterations=kw.pop("max_iterations", 30_000), **kw,
        )
    )


class TestCorrectness:
    """All three modes must estimate the same posterior as the serial
    sampler — the paper's premise that data races affect performance,
    never correctness."""

    @pytest.mark.parametrize(
        "mode,age",
        [
            (CoherenceMode.SYNCHRONOUS, 0),
            (CoherenceMode.ASYNCHRONOUS, 0),
            (CoherenceMode.NON_STRICT, 0),
            (CoherenceMode.NON_STRICT, 10),
        ],
    )
    def test_posterior_matches_serial(self, mode, age):
        net = small_net()
        q = max(net.nodes)
        serial = run_serial_logic_sampling(net, query=q, seed=3)
        r = run_mode(net, mode, age=age)
        assert r.converged
        # both estimates carry +-0.01 CIs at 90%: allow 3x the precision
        assert np.all(np.abs(r.posterior - serial.posterior) < 0.03)

    def test_sync_never_gambles(self, monkeypatch):
        r, states, oracle = run_recorded(
            monkeypatch, ProcessorState, small_net(), CoherenceMode.SYNCHRONOUS,
            age=0, max_iterations=30_000,
        )
        assert r.converged
        assert r.rollback.gambles == 0
        assert r.rollback.rollbacks == 0
        assert all(not st.gambles for st in states)
        assert all(not pending for pending in oracle.pending_gambles)

    def test_async_gambles_and_rolls_back(self):
        r = run_mode(small_net(), CoherenceMode.ASYNCHRONOUS)
        assert r.rollback.gambles > 0
        assert 0.0 < r.rollback.gamble_hit_rate < 1.0

    def test_committed_runs_close_to_serial_run_count(self):
        net = small_net()
        q = max(net.nodes)
        serial = run_serial_logic_sampling(net, query=q, seed=3)
        r = run_mode(net, CoherenceMode.NON_STRICT, age=10)
        assert r.committed_runs == pytest.approx(serial.n_runs, rel=0.25)


def run_recorded(monkeypatch, state_cls, net, mode, n_procs=2, age=10,
                 max_iterations=300):
    """Run with ``state_cls`` standing in for ``ProcessorState``; returns
    the result, the per-processor states (each with the corrections its
    rollbacks ``emitted``, in order, and in ``runs`` every run's values,
    whether fossil-collected or still held) and the GVT oracle."""
    states, oracles = [], []

    class Recorded(state_cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.emitted = []
            self.collected = {}
            states.append(self)

        def collect(self, bound):
            for t in range(self.collected_upto + 1, bound + 1):
                if t in self.own_values:
                    self.collected[t] = self.own_values[t]
            super().collect(bound)

        @property
        def runs(self):
            return {**self.collected, **self.own_values}

        def _recompute(self, *args, **kwargs):
            out = super()._recompute(*args, **kwargs)
            self.emitted.append(out)
            return out

    class RecordedOracle(GvtOracle):
        def __init__(self, n_procs):
            super().__init__(n_procs)
            oracles.append(self)

    monkeypatch.setattr(parallel, "ProcessorState", Recorded)
    monkeypatch.setattr(parallel, "GvtOracle", RecordedOracle)
    result = run_parallel_logic_sampling(
        ParallelLsConfig(
            net=net, query=max(net.nodes), n_procs=n_procs, mode=mode, age=age,
            seed=3, max_iterations=max_iterations,
        )
    )
    return result, states, oracles[0]


class StraightLineState(ProcessorState):
    """The sampler written node by node against ``sample_node_scalar``:
    the reference the compiled plan must reproduce draw for draw."""

    def input_value(self, u, t, oracle):
        """The actual if it arrived, else the default, opening a gamble
        (counted here and in the oracle) at most once per ``(u, t)``."""
        val = self.remote_values.get(t, {}).get(u)
        if val is not None:
            return val
        g = self.gambles.setdefault(t, {})
        if u not in g:
            g[u] = self.defaults[u]
            self.stats.gambles += 1
            pending = oracle.pending_gambles[self.proc]
            pending[t] = pending.get(t, 0) + 1
        return g[u]

    def _parent_values(self, v, vals, t, oracle):
        return tuple(
            self.input_value(u, t, oracle) if u in self.remote_parents else vals[u]
            for u in self.net.nodes[v].parents
        )

    def sample_iteration(self, t, rng, oracle):
        vals = {}
        us = rng.random(len(self.own_nodes))
        for i, v in enumerate(self.own_nodes):
            pv = self._parent_values(v, vals, t, oracle)
            vals[v] = sample_node_scalar(self.net, v, pv, us[i])
        self.own_values[t] = vals
        oracle.sampled(self.proc, t)

    def _recompute(self, u, t, rng, oracle, cause="actual", version=0):
        vals = self.own_values.get(t)
        if vals is None:
            return []
        desc = self.net.descendants(u)
        affected = [v for v in self.own_nodes if v in desc]
        self.stats.nodes_resampled += len(affected)
        depths = self.stats.depth_histogram
        depths[len(affected)] = depths.get(len(affected), 0) + 1
        changed = []
        us = rng.random(len(affected))
        for i, v in enumerate(affected):
            pv = self._parent_values(v, vals, t, oracle)
            new = sample_node_scalar(self.net, v, pv, us[i])
            if new != vals[v]:
                vals[v] = new
                if v in self.interface_nodes and t <= self.published_upto:
                    sent = self.sent_versions.setdefault(t, {})
                    ver = sent[v] = sent.get(v, 0) + 1
                    changed.append((v, t, new, ver))
        self.stats.corrections_sent += len(changed)
        return changed


OPTIMISTIC = [
    (CoherenceMode.NON_STRICT, 2),
    (CoherenceMode.NON_STRICT, 3),
    (CoherenceMode.ASYNCHRONOUS, 2),
    (CoherenceMode.ASYNCHRONOUS, 3),
]


class TestCompiledPlan:
    @pytest.mark.parametrize("mode,n_procs", OPTIMISTIC)
    def test_plan_reproduces_straight_line_sampler(self, monkeypatch, mode, n_procs):
        net = make_table2_network("A")
        got, got_states, _ = run_recorded(monkeypatch, ProcessorState, net, mode, n_procs)
        ref, ref_states, _ = run_recorded(monkeypatch, StraightLineState, net, mode, n_procs)
        assert got.rollback.rollbacks > 0 and got.rollback.corrections_sent > 0
        assert got.iterations_sampled == ref.iterations_sampled == [300] * n_procs
        assert got.messages_sent == ref.messages_sent
        for st, ref_st in zip(got_states, ref_states, strict=True):
            # a run's list also carries its believed remote inputs
            assert st.collected and st.own_values
            assert {
                t: {v: vals[v] for v in st.own_nodes}
                for t, vals in st.runs.items()
            } == ref_st.runs
            assert st.runs.keys() == set(range(1, 301))
            assert dataclasses.asdict(st.stats) == dataclasses.asdict(ref_st.stats)
            assert st.emitted == ref_st.emitted
            assert st.gambles == ref_st.gambles

    @pytest.mark.parametrize("mode,n_procs", OPTIMISTIC)
    def test_pending_gambles_match_open_entries(self, monkeypatch, mode, n_procs):
        """A re-read during a rollback recompute must not open a second
        gamble: the oracle's pending count per run is exactly the number
        of inputs still assumed in the processor's own table."""
        r, states, oracle = run_recorded(
            monkeypatch, ProcessorState, make_table2_network("A"), mode, n_procs
        )
        assert r.rollback.gambles > 0
        for st in states:
            still_open = {t: len(g) for t, g in st.gambles.items() if g}
            assert oracle.pending_gambles[st.proc] == still_open


class TestThrottling:
    def test_global_read_bounds_progress_skew(self):
        """With age k no processor may be more than ~k+batch runs ahead."""
        net = small_net()
        r = run_mode(net, CoherenceMode.NON_STRICT, age=5)
        spread = max(r.iterations_sampled) - min(r.iterations_sampled)
        assert spread <= 5 + 5 + 2  # age + batch + in-flight slack

    def test_global_read_reduces_messages_via_batching(self):
        net = small_net()
        r_async = run_mode(net, CoherenceMode.ASYNCHRONOUS)
        r_gr = run_mode(net, CoherenceMode.NON_STRICT, age=10)
        assert r_gr.messages_sent < r_async.messages_sent / 2

    def test_sync_is_slowest_on_network(self):
        net = small_net()
        t_sync = run_mode(net, CoherenceMode.SYNCHRONOUS, age=0).completion_time
        t_gr = run_mode(net, CoherenceMode.NON_STRICT, age=10).completion_time
        assert t_gr < t_sync

    def test_skewed_network_has_high_hit_rate(self):
        hf = make_hailfinder()
        r = run_parallel_logic_sampling(
            ParallelLsConfig(
                net=hf, query=55, n_procs=2, mode=CoherenceMode.ASYNCHRONOUS,
                seed=3, max_iterations=30_000,
            )
        )
        assert r.rollback.gamble_hit_rate > 0.8

    def test_edge_cut_reported(self):
        r = run_mode(small_net(), CoherenceMode.NON_STRICT)
        assert r.edge_cut > 0


class TestValidation:
    def test_config_validation(self):
        net = small_net()
        with pytest.raises(ValueError):
            ParallelLsConfig(net=net, query=0, n_procs=0)
        with pytest.raises(ValueError):
            ParallelLsConfig(net=net, query=0, age=-1)
        with pytest.raises(KeyError):
            ParallelLsConfig(net=net, query=999)

    @pytest.mark.parametrize("field", ["max_iterations"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_refuses_counts_below_one(self, field, value):
        # max_iterations=0 used to return an empty, unconverged posterior
        with pytest.raises(ValueError, match=field):
            ParallelLsConfig(net=small_net(), query=0, **{field: value})

    def test_single_processor_degenerates_to_serial_like(self):
        net = small_net()
        r = run_parallel_logic_sampling(
            ParallelLsConfig(
                net=net, query=max(net.nodes), n_procs=1,
                mode=CoherenceMode.ASYNCHRONOUS, seed=3,
            )
        )
        assert r.converged
        assert r.rollback.gambles == 0  # no remote parents at all
        assert r.edge_cut == 0


class TestOracle:
    def test_floor_tracks_min_progress(self):
        o = GvtOracle(2)
        o.sampled(0, 5)
        o.sampled(1, 3)
        assert o.floor() == 3

    def test_pending_gamble_holds_floor(self):
        o = GvtOracle(2)
        o.sampled(0, 10)
        o.sampled(1, 10)
        o.pending_gambles[0][4] = 1
        assert o.floor() == 3
        del o.pending_gambles[0][4]
        assert o.floor() == 10

    def test_in_flight_message_holds_floor(self):
        o = GvtOracle(1)
        o.sampled(0, 8)
        o.message_sent(2)
        assert o.floor() == 1
        o.message_applied(2)
        assert o.floor() == 8

    def test_rollback_stats_merge(self):
        a = RollbackStats(gambles=3, gamble_hits=2, rollbacks=1, corrections_sent=4)
        b = RollbackStats(gambles=1, gamble_hits=1)
        m = a.merge(b)
        assert m.gambles == 4 and m.gamble_hits == 3 and m.corrections_sent == 4
        assert m.gamble_hit_rate == pytest.approx(3 / 4)

    def test_hit_rate_empty_is_one(self):
        assert RollbackStats().gamble_hit_rate == 1.0
