"""Switched-fabric microbenchmark (the ``fabric.*`` BENCH keys).

The scale-out acceptance bar (ROADMAP item 2 / PR 8): per-message
simulator cost on the switched fabric must stay flat — O(1) — as the
node count grows 64 → 4096.  The busy-until-clock hot path of
:mod:`repro.network.switched` does constant work per frame (path length
is fixed by fabric depth, not node count), and ``fabric.o1_ratio`` is
the measured check: wall microseconds per delivered frame at 4096 nodes
over the same at 64 nodes, ~1.0 when the hot path is truly O(1).

Two traffic shapes:

* ring unicast — every node sends one frame per round to its clockwise
  neighbour (the migration pattern of the ring-topology island GA);
* broadcast — one node multicasts per round; cost is measured *per
  delivery*, so the tree replication's O(1)-per-receiver claim is the
  thing on the clock.

Plus one end-to-end point: a 4096-deme ring-topology island GA on the
hierarchical fabric, the scenario the scale_study driver sweeps.
"""

from __future__ import annotations

from repro.bench.harness import timed
from repro.network.frame import BROADCAST, Frame
from repro.network.switched import SwitchedConfig, SwitchedNetwork
from repro.sim import Kernel


def _ring_mill(n_nodes: int, n_rounds: int, fabric: str = "hierarchical") -> int:
    """Drive ring unicast traffic; returns frames delivered."""
    kernel = Kernel(seed=17)
    net = SwitchedNetwork(kernel, SwitchedConfig(fabric=fabric))
    delivered = 0

    def on_frame(frame: Frame) -> None:
        nonlocal delivered
        delivered += 1

    for i in range(n_nodes):
        net.attach(i, on_frame)

    def send_round(r: int) -> None:
        for i in range(n_nodes):
            net.adapters[i].send(
                Frame(src=i, dst=(i + 1) % n_nodes, size_bytes=256)
            )
        if r + 1 < n_rounds:
            kernel.schedule(1e-3, send_round, r + 1)

    kernel.schedule(0.0, send_round, 0)
    kernel.run()
    return delivered


def _bcast_mill(n_nodes: int, n_rounds: int, fabric: str = "hierarchical") -> int:
    """Drive one broadcast per round; returns deliveries (receivers)."""
    kernel = Kernel(seed=19)
    net = SwitchedNetwork(kernel, SwitchedConfig(fabric=fabric))
    delivered = 0

    def on_frame(frame: Frame) -> None:
        nonlocal delivered
        delivered += 1

    for i in range(n_nodes):
        net.attach(i, on_frame)

    def send_round(r: int) -> None:
        net.adapters[r % n_nodes].send(
            Frame(src=r % n_nodes, dst=BROADCAST, size_bytes=256)
        )
        if r + 1 < n_rounds:
            kernel.schedule(1e-3, send_round, r + 1)

    kernel.schedule(0.0, send_round, 0)
    kernel.run()
    return delivered


def bench_fabric(repeat: int = 2) -> dict:
    """The fabric micro; returns flat ``fabric.*`` keys.

    Frame counts are scaled so each point delivers the same number of
    frames — the per-frame cost comparison is then free of fixed setup
    effects (attach loops, first-touch dict growth) at the small sizes.
    """
    out: dict = {}
    total_frames = 16384
    per_msg: dict[int, float] = {}
    for n_nodes in (64, 1024, 4096):
        rounds = max(1, total_frames // n_nodes)
        frames, best_s = timed(_ring_mill, n_nodes, rounds, repeat=repeat)
        per_msg[n_nodes] = best_s / frames * 1e6
        out[f"fabric.msg_us_{n_nodes}"] = per_msg[n_nodes]
    out["fabric.o1_ratio"] = per_msg[4096] / per_msg[64]

    deliveries, best_s = timed(_bcast_mill, 256, 64, repeat=repeat)
    out["fabric.mcast_per_dest_us"] = best_s / deliveries * 1e6
    out["fabric.mcast_deliveries"] = float(deliveries)

    from repro.experiments.scale_study import run_scale_proof

    proof = run_scale_proof(4096)
    out["fabric.ga_ring_4096_wall_s"] = proof["wall_s"]
    out["fabric.ga_ring_4096_sim_s"] = proof["total_time"]
    return out
