"""Migration topologies: wiring shapes, symmetry, seeded determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ga.topology import (
    DEGREE,
    TOPOLOGIES,
    comm_graph,
    grid_shape,
    in_peers,
    wiring,
)


def readers_of(kind, writer, n):
    """The demes that read ``migrants.<writer>``, from the wiring table a
    run builds its DSM reader sets from."""
    return wiring(kind, n)[1][writer]


class TestSpec:
    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError, match="unknown topology 'mesh'"):
            in_peers("mesh", 0, 4)
        with pytest.raises(ValueError, match="unknown topology 'mesh'"):
            wiring("mesh", 4)

    def test_out_of_range_deme_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            in_peers("all", 4, 4)


class TestShapes:
    def test_all_matches_historical_enumeration(self):
        """The digest-neutrality anchor: "all" must reproduce the exact
        ascending peer list the pre-topology code inlined."""
        spec = "all"
        for n in (2, 3, 8):
            for d in range(n):
                assert in_peers(spec, d, n) == [p for p in range(n) if p != d]
                assert readers_of(spec, d, n) == tuple(
                    p for p in range(n) if p != d
                )

    def test_ring_has_two_neighbours(self):
        spec = "ring"
        assert in_peers(spec, 0, 8) == [1, 7]
        assert in_peers(spec, 3, 8) == [2, 4]
        assert in_peers(spec, 0, 2) == [1]  # two demes: one neighbour

    def test_grid_shape_prefers_squarest_factorisation(self):
        assert grid_shape(16) == (4, 4)
        assert grid_shape(12) == (3, 4)
        assert grid_shape(7) == (1, 7)  # prime: degenerates to a ring

    def test_torus_has_four_neighbours(self):
        spec = "torus"
        assert in_peers(spec, 5, 16) == [1, 4, 6, 9]  # 4x4 grid, cell (1,1)
        # prime count falls back to the ring
        assert in_peers(spec, 0, 7) == [1, 6]

    def test_hierarchical_groups_and_leader_ring(self):
        spec = "hierarchical"  # blocks of 8
        # non-leader: its own block only
        assert in_peers(spec, 9, 32) == [8, 10, 11, 12, 13, 14, 15]
        # leader of block 1: block plus the neighbouring leaders
        assert in_peers(spec, 8, 32) == [0, 9, 10, 11, 12, 13, 14, 15, 16]

    def test_random_is_seeded_and_order_free(self):
        peers = {d: in_peers("random", d, 32) for d in range(32)}
        assert all(len(p) == DEGREE == 3 for p in peers.values())
        # independent of evaluation order, pure function of (n, d)
        assert in_peers("random", 17, 32) == peers[17]

    def test_random_readers_are_the_exact_inverse(self):
        spec = "random"
        n = 16
        for writer in range(n):
            readers = readers_of(spec, writer, n)
            assert readers == tuple(
                d for d in range(n) if writer in in_peers(spec, d, n)
            )


class TestWiringTable:
    """``wiring`` is what a run wires itself from: one generator per
    deme under ``random``, not one per (writer, deme) pair."""

    @pytest.mark.parametrize("n", [2, 17, 64, 256])
    def test_random_table_equals_the_per_deme_definition(self, n):
        spec = "random"

        def definition(deme):  # the draw as first written, options as a list
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=0, spawn_key=(n, deme))
            )
            options = np.array([p for p in range(n) if p != deme])
            k = min(3, options.size)
            return sorted(int(p) for p in rng.choice(options, size=k, replace=False))

        peers, readers = wiring(spec, n)
        assert peers == [definition(d) for d in range(n)]
        assert peers == [in_peers(spec, d, n) for d in range(n)]
        assert readers == [
            tuple(d for d in range(n) if w in peers[d]) for w in range(n)
        ]

    @pytest.mark.parametrize("kind", TOPOLOGIES)
    def test_table_rows_are_in_peers_and_readers_of(self, kind):
        spec = kind
        for n in (1, 2, 17):
            peers, readers = wiring(spec, n)
            assert peers == [in_peers(spec, d, n) for d in range(n)]
            assert readers == [
                tuple(d for d in range(n) if w in in_peers(spec, d, n))
                for w in range(n)
            ]

    def test_a_run_seeds_one_generator_per_deme(self, monkeypatch, island_cfg):
        """Call count, not a stopwatch: 256 demes used to cost 256 * 256
        ``_random_peers`` calls for the reader sets alone."""
        from repro.ga import topology
        from repro.ga.island import _run_island

        calls = []
        real = topology._random_peers

        def counting(deme, n_demes):
            calls.append(deme)
            return real(deme, n_demes)

        monkeypatch.setattr(topology, "_random_peers", counting)
        result = _run_island(island_cfg(demes=256, gens=0, topology="random"))
        assert result.generations_run == [0] * 256
        assert sorted(calls) == list(range(256))


topo_specs = st.sampled_from(TOPOLOGIES)


@settings(max_examples=60, deadline=None)
@given(topo_specs, st.integers(min_value=2, max_value=48))
def test_property_wiring_well_formed(spec, n):
    """Every kind: peers are ascending, in-range, self-free, and every
    deme can reach migrants (no isolated deme)."""
    for d in range(n):
        peers = in_peers(spec, d, n)
        assert peers == sorted(set(peers))
        assert all(0 <= p < n and p != d for p in peers)
        assert peers  # n >= 2: nobody is isolated


@settings(max_examples=60, deadline=None)
@given(topo_specs, st.integers(min_value=2, max_value=48))
def test_property_readers_invert_in_peers(spec, n):
    """writer in in_peers(reader) iff reader in readers_of(writer) —
    the DSM registration contract every kind must satisfy."""
    for writer in range(n):
        for reader in readers_of(spec, writer, n):
            assert writer in in_peers(spec, reader, n)
    for d in range(n):
        for p in in_peers(spec, d, n):
            assert d in readers_of(spec, p, n)


@settings(max_examples=40, deadline=None)
@given(topo_specs, st.integers(min_value=2, max_value=32))
def test_property_symmetric_kinds_are_symmetric(spec, n):
    """Structured kinds: migration is mutual (readers == in-peers)."""
    if spec == "random":
        return
    for d in range(n):
        assert readers_of(spec, d, n) == tuple(in_peers(spec, d, n))


@settings(max_examples=30, deadline=None)
@given(topo_specs, st.integers(min_value=2, max_value=32))
def test_property_comm_graph_covers_every_deme(spec, n):
    g = comm_graph(wiring(spec, n)[0], 100)
    assert sorted(g.adj) == list(range(n))
    for d in range(n):
        for p in in_peers(spec, d, n):
            assert g.adj[d][p] == g.adj[p][d] == 100.0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=3, max_value=40))
def test_property_random_wiring_deterministic(n):
    spec = "random"
    assert [in_peers(spec, d, n) for d in range(n)] == [
        in_peers(spec, d, n) for d in range(n)
    ]
