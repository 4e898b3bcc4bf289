"""Liveness of the compiled sampling plan.

A processor reads three kinds of own node: the query (the estimator),
its interface nodes (published to readers) and their own-partition
ancestors.  The plan samples only those; every other own node keeps its
draw (the random stream is that of a sampler that samples every node)
but no value.  These tests pin the live set and show that skipping the
dead nodes changes nothing a run reports.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.bayes import make_random_network, make_table2_network
from repro.bayes.network import BayesianNetwork, BayesNode
from repro.bayes.rollback import GvtOracle, ProcessorState
from repro.core.coherence import CoherenceMode
from repro.experiments.table2 import pick_query
from repro.partition.multilevel import best_of
from tests.bayes.oracles import StraightLineState, live_nodes, run_recorded


def six_node_net() -> BayesianNetwork:
    """0 → 1 → 2 ← 4, 0 → 3 → 4 → 5: processor 0 owns 0–3, processor 1
    owns 4 and 5, and 5 is the query."""
    flip = np.array([[0.9, 0.1], [0.2, 0.8]])
    return BayesianNetwork([
        BayesNode(0, 2, (), np.array([0.6, 0.4])),
        BayesNode(1, 2, (0,), flip),
        BayesNode(2, 2, (1, 4), np.array([[[0.7, 0.3], [0.4, 0.6]], [[0.5, 0.5], [0.1, 0.9]]])),
        BayesNode(3, 2, (0,), flip),
        BayesNode(4, 2, (3,), flip),
        BayesNode(5, 2, (4,), flip),
    ], name="six")


OWNER = {0: 0, 1: 0, 2: 0, 3: 0, 4: 1, 5: 1}
QUERY = 5


def six_node_states() -> list[ProcessorState]:
    net = six_node_net()
    defaults = net.default_values(seed=0)
    return [ProcessorState(net, OWNER, p, defaults, QUERY) for p in (0, 1)]


class TestSixNodeNet:
    def test_live_set(self):
        p0, p1 = six_node_states()
        # 2 is a non-query leaf; 1's only own child is 2; 3 is an
        # interface node (its child 4 is remote) and 0 its parent
        assert [e[1] for e in p0.plan] == [0, 3]
        # 5 is the query and 4 both its parent and an interface node
        assert [e[1] for e in p1.plan] == [4, 5]
        for st in (p0, p1):
            assert st.live == {e[1] for e in st.plan} == live_nodes(st, QUERY)

    def test_plan_entries_carry_their_draw_positions(self):
        p0, p1 = six_node_states()
        assert p0.own_nodes == [0, 1, 3, 2]  # topological: 2 waits on 4
        assert [e[0] for e in p0.plan] == [0, 2]
        assert [e[0] for e in p1.plan] == [0, 1]
        # remote parent 4 reaches only the dead node 2: one draw, no entry
        assert p0.affected_plan == {4: (1, [])}
        assert p1.affected_plan[3][0] == 2
        assert [(j, v) for j, v, *_ in p1.affected_plan[3][1]] == [(0, 4), (1, 5)]

    def test_a_run_keeps_the_draws_and_leaves_dead_slots_empty(self):
        p0, _ = six_node_states()
        oracle = GvtOracle(2)
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        p0.sample_iteration(1, rng, oracle)
        twin.random(4)  # one draw per own node, dead ones included
        vals = p0.own_values[1]
        assert vals[1] is None and vals[2] is None
        assert vals[0] in (0, 1) and vals[3] in (0, 1)
        p0.apply_actual(4, 1, 1 - vals[4], rng, oracle)  # a failed gamble
        twin.random(1)
        assert p0.stats.nodes_resampled == 1 and vals[2] is None
        assert rng.random() == twin.random()


@pytest.mark.parametrize(
    "n_procs,counts",
    [
        (2, [(27, 26, 8, 5), (27, 12, 170, 60)]),
        (4, [(14, 14, 28, 28), (13, 9, 10, 8), (13, 13, 96, 96), (14, 3, 121, 13)]),
    ],
)
def test_network_a_live_counts(n_procs, counts):
    """Per processor on network A with the perfbench query and partition
    seed: own nodes, live nodes, rollback recompute entries (the summed
    recompute-set depths) and the live ones among them."""
    net = make_table2_network("A")
    query = pick_query(net)
    owner = best_of(net.skeleton(), n_procs, tries=4, seed=7)
    defaults = net.default_values(seed=7)
    got = []
    for p in range(n_procs):
        st = ProcessorState(net, owner, p, defaults, query)
        got.append((
            len(st.own_nodes),
            len(st.plan),
            sum(depth for depth, _ in st.affected_plan.values()),
            sum(len(entries) for _, entries in st.affected_plan.values()),
        ))
    assert got == counts


MODES = [CoherenceMode.SYNCHRONOUS, CoherenceMode.ASYNCHRONOUS, CoherenceMode.NON_STRICT]


@pytest.mark.parametrize(
    "seed,n_procs,mode", list(itertools.product((2, 5), (1, 2, 3, 4), MODES)),
    ids=lambda x: getattr(x, "name", None),
)
def test_skipping_dead_nodes_changes_no_result(monkeypatch, seed, n_procs, mode):
    """The live plan reports exactly what a sampler of every own node
    reports: posterior, committed runs, completion time, messages and
    every rollback counter."""
    net = make_random_network(14, 20, seed=seed, name="liveness")
    kw = dict(n_procs=n_procs, max_iterations=1_500, precision=0.05)
    got, states, _ = run_recorded(monkeypatch, ProcessorState, net, mode, **kw)
    ref, _, _ = run_recorded(monkeypatch, StraightLineState, net, mode, **kw)
    assert got.converged
    assert any(len(st.plan) < len(st.own_nodes) for st in states)  # a node skipped
    assert got.posterior.tolist() == ref.posterior.tolist()
    assert got.committed_runs == ref.committed_runs
    assert got.completion_time == ref.completion_time
    assert got.messages_sent == ref.messages_sent
    assert dataclasses.asdict(got.rollback) == dataclasses.asdict(ref.rollback)
