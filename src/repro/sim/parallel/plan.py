"""Shard planning: unit→shard assignment and lookahead extraction.

The coordinator partitions the scenario's *unit-communication graph*
(for the island GA: demes, edges weighted by migrant traffic) with the
repo's METIS-style multilevel partitioner, so heavily-communicating
units land in the same shard and the record traffic crossing shard
boundaries is minimised.

The *lookahead* is the classical conservative-PDES bound — the minimum
simulated latency of any cross-shard interaction, extracted from the
interconnect model: no shard can affect another sooner than one
minimum-size frame can cross the network.  The bounded-lag scheme
(Lubachevsky) uses it as the window quantum; the coordinator's floor
broadcasts are quantised to window boundaries (DESIGN.md §13).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.machine import MachineConfig
from repro.network import ethernet
from repro.partition.graph import Graph
from repro.partition.multilevel import partition


@dataclass(frozen=True)
class ShardPlan:
    """Static plan for one sharded run."""

    n_shards: int
    #: unit index -> owning shard id
    owner: tuple[int, ...]
    #: minimum cross-shard simulated latency (seconds) — the window quantum
    lookahead: float
    #: bounded-lag horizon (simulated seconds): a shard wall-pauses once
    #: its clock exceeds ``floor + lag_bound`` until the floor advances
    lag_bound: float

    def owned_by(self, shard_id: int) -> frozenset:
        """The unit indices shard ``shard_id`` computes authoritatively."""
        return frozenset(u for u, s in enumerate(self.owner) if s == shard_id)

    def window_of(self, t: float) -> int:
        """Bounded-lag window index containing simulated time ``t``."""
        return int(t / self.lookahead) if self.lookahead > 0 else 0


def lookahead_of(mcfg: MachineConfig) -> float:
    """Minimum cross-node frame latency of the configured interconnect.

    Ethernet: inter-frame gap + wire time of a minimum frame + one-way
    propagation.  Switched fabrics: two host-link traversals around one
    edge switch — a genuine per-link latency floor, which is what
    finally gives the bounded-lag kernel frame-level lookahead
    (shared-bus arbitration has none past the minimum frame; DESIGN.md
    §13/§14).  This is the
    natural conservative lookahead — no simulated node can influence
    another in less simulated time than this.
    """
    if mcfg.interconnect == "ethernet":
        return ethernet.IFG + ethernet.tx_time(ethernet.MIN_PAYLOAD) + ethernet.PROP_DELAY
    return mcfg.switched.min_latency()


def plan_shards(
    graph: Graph,
    n_shards: int,
    lookahead: float,
    seed: int = 0,
) -> ShardPlan:
    """Partition ``graph``'s units into ``n_shards`` shards.

    ``n_shards`` is clamped to the unit count.  Part labels from the
    recursive bisection are normalised to 0..k-1 in order of first
    appearance (unit order), so the plan — like everything else in the
    simulator — is a pure function of its inputs.
    """
    units = sorted(graph.adj)
    if units != list(range(len(units))):
        raise ValueError("unit-communication graph must be labelled 0..n-1")
    k = max(1, min(n_shards, len(units)))
    if k == 1:
        raw = {u: 0 for u in units}
    else:
        raw = partition(graph, k, seed=seed)
    relabel: dict[int, int] = {}
    owner = []
    for u in units:
        part = raw[u]
        if part not in relabel:
            relabel[part] = len(relabel)
        owner.append(relabel[part])
    return ShardPlan(
        n_shards=len(relabel),
        owner=tuple(owner),
        lookahead=lookahead,
        # generous: execution safety comes from demand-driven record
        # blocking; the lag bound only caps divergence/buffering
        lag_bound=max(0.05, 256.0 * lookahead),
    )
