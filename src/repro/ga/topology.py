"""Migration topologies for the island GA.

The paper's island GA broadcasts migrants all-to-all — fine at 8 SP2
nodes, quadratic death at thousands of demes.  *The Distributed Genetic
Algorithm Revisited* (Belding; PAPERS.md) studies exactly the structured
alternatives this module provides: each deme reads migrants only from a
small, fixed set of *in-peers*, so migration traffic is O(degree) per
deme and the DSM reader sets stay constant-size as the deme count grows.

Topology kinds
--------------
``all``
    every other deme — the paper's default.  Peer and reader
    enumeration is ascending, byte-identical to the historical inline
    expressions, so the pinned digests (:mod:`repro.check`) are unaffected.
``ring``
    in-peers ``(d-1) mod n`` and ``(d+1) mod n``.
``torus``
    4-neighbour wraparound grid; the grid is ``rows x cols`` with
    ``rows`` the largest divisor of ``n`` not exceeding ``sqrt(n)``
    (prime ``n`` degenerates to a ring).
``hierarchical``
    demes are grouped in blocks of ``GROUP`` consecutive ids;
    within-group migration is all-to-all and the group leaders (lowest
    id of each block) additionally form a ring — Belding's
    two-level island structure.
``random``
    each deme draws ``DEGREE`` distinct in-peers with a seeded
    generator; the draw for deme ``d`` depends only on
    ``(SEED, n_demes, d)``, never on evaluation order.

Every function is a pure function of the kind — no hidden state — so
shard workers, the serial kernel and the experiment drivers all derive
the identical wiring.
"""

from __future__ import annotations

import numpy as np

from repro.partition.graph import Graph

TOPOLOGIES = ("all", "ring", "torus", "hierarchical", "random")

#: entropy for ``random`` wiring (ignored by the structured kinds)
SEED = 0
#: in-degree of each deme under ``random``
DEGREE = 3
#: block size of ``hierarchical`` groups
GROUP = 8


def grid_shape(n: int) -> tuple[int, int]:
    """``rows x cols`` of the torus grid: rows = largest divisor <= sqrt(n)."""
    rows = 1
    for r in range(int(np.sqrt(n)), 0, -1):
        if n % r == 0:
            rows = r
            break
    return rows, n // rows


def _random_peers(deme: int, n_demes: int) -> list[int]:
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=SEED, spawn_key=(n_demes, deme))
    )
    options = np.arange(n_demes - 1)
    options[deme:] += 1  # every deme but this one, ascending
    k = min(DEGREE, options.size)
    return sorted(int(p) for p in rng.choice(options, size=k, replace=False))


def in_peers(kind: str, deme: int, n_demes: int) -> list[int]:
    """The demes whose migrants ``deme`` incorporates under topology
    ``kind`` (one of :data:`TOPOLOGIES`), ascending."""
    if kind not in TOPOLOGIES:
        raise ValueError(f"unknown topology {kind!r}; expected one of {TOPOLOGIES}")
    if n_demes < 2:
        return []
    if not 0 <= deme < n_demes:
        raise ValueError(f"deme {deme} out of range for {n_demes} demes")
    if kind == "all":
        return [p for p in range(n_demes) if p != deme]
    if kind == "ring":
        return sorted({(deme - 1) % n_demes, (deme + 1) % n_demes} - {deme})
    if kind == "torus":
        rows, cols = grid_shape(n_demes)
        if rows == 1:  # prime deme count: the grid collapses to a ring
            return in_peers("ring", deme, n_demes)
        i, j = divmod(deme, cols)
        neigh = {
            ((i - 1) % rows) * cols + j,
            ((i + 1) % rows) * cols + j,
            i * cols + (j - 1) % cols,
            i * cols + (j + 1) % cols,
        }
        return sorted(neigh - {deme})
    if kind == "hierarchical":
        gid, n_groups = deme // GROUP, -(-n_demes // GROUP)
        lo = gid * GROUP
        peers = set(range(lo, min(lo + GROUP, n_demes)))
        if deme == lo and n_groups > 1:  # group leader: ring of leaders
            peers.add(((gid - 1) % n_groups) * GROUP)
            peers.add(((gid + 1) % n_groups) * GROUP)
        return sorted(peers - {deme})
    return _random_peers(deme, n_demes)


def wiring(kind: str, n_demes: int) -> tuple[list[list[int]], list[tuple[int, ...]]]:
    """``(peers, readers)``: every deme's in-peers and their inverse.

    ``readers[w]`` are the demes that read ``migrants.<w>`` (the DSM
    reader set), ascending.  One :func:`in_peers` call per deme — under
    ``random`` each seeds a generator — so whoever wires a whole run
    builds this once and indexes it.
    """
    peers = [in_peers(kind, d, n_demes) for d in range(n_demes)]
    readers: list[list[int]] = [[] for _ in range(n_demes)]
    for d, ps in enumerate(peers):
        for p in ps:
            readers[p].append(d)
    return peers, [tuple(r) for r in readers]


def comm_graph(peers: list[list[int]], migrant_nbytes: int) -> Graph:
    """The migration pattern ``peers`` (see :func:`wiring`) as the shard
    partitioner's unit graph.

    Undirected — the bounded-lag planner cares about which demes
    communicate at all, not direction — with every deme present as a
    node (isolated demes still need an owner shard).
    """
    g = Graph()
    for d in range(len(peers)):
        g.add_node(d)
    for d, ps in enumerate(peers):
        for p in ps:
            g.add_edge(d, p, float(migrant_nbytes))
    return g
