"""The GVT floor and fossil collection of the optimistic Bayes sampler.

``GvtOracle.floor()`` is the run below which the estimator commits.  A
value that reaches a run at or below a floor the oracle has already
returned, and changes it, is a straggler the floor did not account for.
Fossil collection drops every processor's state for the runs below a
bound no value can reach any more; these tests pin that it keeps the
sampler's memory to a lag window and changes no draw.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.bayes import parallel
from repro.bayes.parallel import ParallelLsConfig, run_parallel_logic_sampling
from repro.bayes.random_nets import make_random_network, make_table2_network
from repro.bayes.rollback import GvtOracle, ProcessorState
from repro.check import bayes_rows, golden_bayes
from repro.cluster.machine import MachineConfig
from repro.cluster.node import NodeSpec
from repro.core.coherence import CoherenceMode
from repro.experiments.table2 import pick_query
from repro.faults import FaultPlan, MessageFaults


def gr_rollback_config(precision: float = 0.02, seed: int = 7) -> ParallelLsConfig:
    """The perfbench ``bayes_gr_rollback`` run: network A, 2 processors,
    Global_Read age 10, application seed 7, on machine ``seed``."""
    net = make_table2_network("A")
    speeds = np.random.default_rng(seed).normal(1.0, 0.03, 2)
    return ParallelLsConfig(
        net=net,
        query=pick_query(net),
        n_procs=2,
        mode=CoherenceMode.NON_STRICT,
        age=10,
        seed=7,
        precision=precision,
        machine=MachineConfig(
            n_nodes=2,
            seed=seed,
            node_spec=NodeSpec(jitter_sigma=0.12),
            speed_factors=tuple(float(x) for x in speeds),
            measure_warp=True,
        ),
        max_iterations=20_000,
    )


def late_values(monkeypatch, cfg: ParallelLsConfig) -> list[tuple]:
    """Run ``cfg``; return ``(proc, node, run, held, received)`` for every
    value folded into a run at or below the largest floor returned so
    far that differs from the value the run already held."""
    highest = [-1]
    late: list[tuple] = []

    class Oracle(GvtOracle):
        def floor(self):
            f = super().floor()
            highest[0] = max(highest[0], f)
            return f

    class State(ProcessorState):
        def apply_actual(self, u, t, value, *args, **kwargs):
            vals = self.own_values.get(t)
            if t <= highest[0] and vals is not None and vals[u] != value:
                late.append((self.proc, u, t, vals[u], value))
            return super().apply_actual(u, t, value, *args, **kwargs)

    monkeypatch.setattr(parallel, "GvtOracle", Oracle)
    monkeypatch.setattr(parallel, "ProcessorState", State)
    run_parallel_logic_sampling(cfg)
    return late


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "corrections folded in on_update and drain_corrections stay "
        "unaccounted until flush_corrections calls message_sent, and with 3+ "
        "readers the k-th reader's message_sent comes after the (k-1)-th "
        "send's yield; the floor can pass their runs meanwhile (DESIGN §5)"
    ),
)
@pytest.mark.parametrize("name", ["bayes-async-3", "bayes_gr_rollback"])
def test_no_value_changes_a_run_at_or_below_a_returned_floor(monkeypatch, name):
    cfg = bayes_rows()[name] if name in bayes_rows() else gr_rollback_config()
    assert late_values(monkeypatch, cfg) == []


def run_with_states(monkeypatch, cfg: ParallelLsConfig, state_cls=ProcessorState):
    """Run ``cfg`` with ``state_cls`` as the processor state; returns the
    result and the per-processor states."""
    states: list[ProcessorState] = []

    class Recorded(state_cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            states.append(self)

    monkeypatch.setattr(parallel, "ProcessorState", Recorded)
    return run_parallel_logic_sampling(cfg), states


def tables(st: ProcessorState) -> tuple[dict, ...]:
    """Every per-run table of ``st``, each keyed by run."""
    return (
        st.own_values, st.remote_values, st.gambles, st.sent_versions, st.applied_versions
    )


class TestCollect:
    def make_state(self):
        net = make_random_network(16, 22, seed=1, name="small")
        owner = {v: v % 2 for v in net.nodes}
        st = ProcessorState(net, owner, 1, net.default_values(seed=0), max(net.nodes))
        oracle = GvtOracle(2)
        rng = np.random.default_rng(0)
        u = min(st.remote_parents)
        for t in range(1, 5):
            st.sample_iteration(t, rng, oracle)
            st.fold_correction(u, t, 1, 1, rng, oracle)
        st.published_upto = 4
        return st, oracle, rng, u

    def test_collect_pops_every_table_up_to_the_bound(self):
        st, _, _, _ = self.make_state()
        st.sent_versions[2] = {0: 1}
        assert all(2 in table for table in tables(st))
        st.collect(2)
        for table in tables(st):
            assert not set(table) & {1, 2}
        assert set(st.own_values) == {3, 4}
        st.collect(1)  # a lower bound collects nothing more
        assert st.collected_upto == 2 and set(st.own_values) == {3, 4}

    @pytest.mark.parametrize("fold", ["apply_actual", "fold_correction"])
    def test_a_touch_of_a_collected_run_raises(self, fold):
        st, oracle, rng, u = self.make_state()
        st.collect(2)
        args = (u, 2, 0, rng, oracle) if fold == "apply_actual" else (u, 2, 0, 9, rng, oracle)
        with pytest.raises(RuntimeError, match=rf"processor 1: node {u}, run 2 .*bound 2"):
            getattr(st, fold)(*args)
        # and no state was recreated for the collected run
        assert 2 not in st.remote_values and 2 not in st.applied_versions
        assert 2 not in st.own_values and 2 not in st.sent_versions
        # the first live run still folds
        getattr(st, fold)(u, 3, 0, *args[3:])


@pytest.mark.parametrize(
    "precision,committed,rollbacks", [(0.02, 1_690, 10_077), (0.01, 6_780, 40_003)]
)
def test_sampler_memory_is_a_lag_window_not_the_run_count(
    monkeypatch, precision, committed, rollbacks
):
    """Four times the committed runs, the same held state: the per-run
    entries left at the end stay within a lag window (age + batch +
    check_every runs) per table and processor, whatever the precision."""
    cfg = gr_rollback_config(precision)
    r, states = run_with_states(monkeypatch, cfg)
    assert (r.committed_runs, r.rollback.rollbacks) == (committed, rollbacks)
    window = cfg.age + min(cfg.age, 16) + parallel.CHECK_EVERY
    held = sum(len(table) for st in states for table in tables(st))
    assert held <= 5 * window * cfg.n_procs


LOSSLESS = FaultPlan(seed=11, messages=MessageFaults(duplicate=0.05, delay=0.05, reorder=0.05))


class _Uncollected(ProcessorState):
    def collect(self, bound):
        pass


def _outcome(r) -> tuple:
    return (
        r.committed_runs, r.posterior.tolist(), r.iterations_sampled, r.messages_sent,
        r.completion_time, dataclasses.asdict(r.rollback),
    )


@pytest.mark.parametrize(
    "mode,age,n_procs,faults",
    [
        (mode, age, n_procs, faults)
        for (mode, age), n_procs, faults in itertools.product(
            [
                (CoherenceMode.NON_STRICT, 0),
                (CoherenceMode.NON_STRICT, 20),
                (CoherenceMode.ASYNCHRONOUS, 5),
                (CoherenceMode.SYNCHRONOUS, 5),
            ],
            (2, 4),
            (None, LOSSLESS),
        )
    ],
    ids=lambda x: getattr(x, "name", None) or ("faults" if x is LOSSLESS else None),
)
def test_collection_is_exact(monkeypatch, mode, age, n_procs, faults):
    """Every run completes without a touch of a collected run, collects,
    and computes exactly what it computes with collection switched off."""
    cfg = dataclasses.replace(
        golden_bayes(faults, max_iterations=1_500, mode=mode, n_procs=n_procs), age=age
    )
    r, states = run_with_states(monkeypatch, cfg)
    assert all(st.collected_upto > 0 for st in states)
    twin, _ = run_with_states(monkeypatch, cfg, _Uncollected)
    assert _outcome(r) == _outcome(twin)
