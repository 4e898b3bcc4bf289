"""Parity pin: partitions, topological orders and skeletons, as literals.

``parity_pin.json`` holds what the networkx-backed partitioner and
belief-network DAG produced before the simulator stopped importing
networkx.  The owner map feeds ``bayes_result``, the Bayes chaos rows,
``results/table2.txt`` and the sharded GA's ``par.records_routed``, so
every owner map here must come back identical: the part of each node
(``parts``, one digit per node in sorted node order) and the dict's key
order (``order``, the first 12 hex digits of the sha256 of
``repr(list(owner))``).

* ``best_of``: ``best_of(net.skeleton(), k, tries=4, seed=seed)`` for
  networks A, AA, C (generator seeds 0-2) and Hailfinder, k in 2..5 and
  seeds 0, 1, 7, 42;
* ``partition`` / ``plan_shards``: ``partition(g, k, seed=0)`` and
  ``plan_shards(g, k, lookahead=1e-3).owner`` on the GA's comm graphs
  (every topology at 16, 64 and 100 demes, k in 2..4);
* ``dag``: ``topo_order``, every node's children and descendants, and
  the skeleton's adjacency in iteration order.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.bayes import make_hailfinder, make_table2_network
from repro.ga.topology import comm_graph, wiring
from repro.partition.multilevel import best_of, partition
from repro.sim.parallel import plan_shards

PIN = json.loads((Path(__file__).parent / "parity_pin.json").read_text())

NETS = [f"{name}/{s}" for name in ("A", "AA", "C") for s in range(3)] + ["hailfinder"]


def _net(label):
    if label == "hailfinder":
        return make_hailfinder()
    name, seed = label.split("/")
    return make_table2_network(name, seed=int(seed))


def _pinned_form(owner):
    parts = "".join(str(owner[v]) for v in sorted(owner))
    return [parts, hashlib.sha256(repr(list(owner)).encode()).hexdigest()[:12]]


def _comm_graph(case):
    kind, n, _ = case.split()
    return comm_graph(wiring(kind, int(n[2:]))[0], 1000)


@pytest.mark.parametrize("label", NETS)
def test_best_of_owner_maps_match_the_pin(label):
    sk = _net(label).skeleton()
    for k in (2, 3, 4, 5):
        for seed in (0, 1, 7, 42):
            got = _pinned_form(best_of(sk, k, tries=4, seed=seed))
            assert got == PIN["best_of"][f"{label} k={k} seed={seed}"], (label, k, seed)


def test_comm_graph_partitions_match_the_pin():
    for case, pinned in PIN["partition"].items():
        k = int(case.split()[-1][2:])
        assert _pinned_form(partition(_comm_graph(case), k, seed=0)) == pinned, case


def test_plan_shards_owner_matches_the_pin():
    for case, pinned in PIN["plan_shards"].items():
        k = int(case.split()[-1][2:])
        plan = plan_shards(_comm_graph(case), k, lookahead=1e-3)
        assert "".join(map(str, plan.owner)) == pinned, case


@pytest.mark.parametrize("label", sorted(PIN["dag"]))
def test_dag_and_skeleton_match_the_pin(label):
    net, pinned = _net(label), PIN["dag"][label]
    names = sorted(net.nodes)
    assert net.topo_order == pinned["topo_order"]
    assert [net.children(v) for v in names] == pinned["children"]
    assert [sorted(net.descendants(v)) for v in names] == pinned["descendants"]
    sk = net.skeleton()
    assert [[u, list(nbrs)] for u, nbrs in sk.adj.items()] == pinned["skeleton"]
