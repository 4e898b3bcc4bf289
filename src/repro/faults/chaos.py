"""The chaos plans: fixed-seed fault plans and the raw-traffic workload.

A chaos row of the golden table (:data:`repro.check.GOLDEN`) runs one
workload under one :class:`~repro.faults.plan.FaultPlan` and reduces the
run to a SHA-256 digest over its observable behaviour (delivered-traffic
sequence or application result) *plus* the injected-fault log — the
executable form of the determinism contract (DESIGN.md §9): a chaos run
is a pure function of ``(workload, plan)``.  This module holds the
plans (:data:`PLANS`, keyed by row name) and the one workload that
exists only for chaos; the GA and Bayes rows run the golden recipes of
:mod:`repro.check` under their plan.

Digests deliberately exclude ``Frame.frame_id`` — it comes from a
process-global counter, so it varies with whatever ran earlier in the
interpreter; everything digested is derived from simulated time and
seeded draws only.

Three workload families:

``traffic``
    A raw Ethernet frame mill (no blocking protocol above it), safe
    under loss — exercises drop/duplicate/delay/reorder/crash at the
    link layer in isolation.
``ga``
    The small island GA under *lossless* chaos (duplicate + delay +
    reorder) or node faults; Global_Read keeps its age bound throughout.
    The GA's migrant exchange has no retransmission, so a dropped final
    update can (correctly) block a Global_Read forever; loss-bearing
    plans belong to the traffic family until a retry layer exists.
``bayes``
    The small parallel logic-sampling run under duplication — the case
    that historically underflowed the GVT oracle and is now the
    regression for bounded rollback cascades: duplicated correction/
    update messages must neither crash the oracle nor re-trigger settled
    rollbacks, and the run must terminate.
"""

from __future__ import annotations

from typing import Callable

from repro.faults.injectors import install_faults
from repro.faults.plan import FaultPlan, MessageFaults, NodeFault
from repro.util.digest import digest_values


class _TrafficNode:
    """Minimal stand-in satisfying the node-fault installer's interface."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.fault_model = None


def traffic_case(plan: FaultPlan) -> tuple[str, dict]:
    """Digest a raw frame mill under ``plan``.

    Every node sends one frame per round to two rotating peers; delivery
    callbacks record ``(time, src, dst, size)``.  There is no protocol
    above the link layer, so any plan — including heavy loss — is safe.
    """
    from repro.network.ethernet import EthernetNetwork
    from repro.network.frame import Frame
    from repro.sim import Kernel

    n_nodes, n_rounds, interval = 6, 60, 0.35e-3
    kernel = Kernel(seed=11)
    net = EthernetNetwork(kernel)
    delivered: list = []

    def receiver(dst: int) -> Callable:
        def on_frame(frame: Frame) -> None:
            delivered.extend(
                (round(kernel.now, 12), frame.src, dst, frame.size_bytes)
            )

        return on_frame

    for i in range(n_nodes):
        net.attach(i, receiver(i))
    injector = install_faults(
        kernel, net, [_TrafficNode(i) for i in range(n_nodes)], plan
    )

    def send_round(r: int) -> None:
        for i in range(n_nodes):
            for hop in (1, 3):
                dst = (i + hop) % n_nodes
                if dst != i:
                    net.adapters[i].send(
                        Frame(src=i, dst=dst, size_bytes=200 + 40 * (r % 5))
                    )
        if r + 1 < n_rounds:
            kernel.schedule(interval, send_round, r + 1)

    kernel.schedule(0.0, send_round, 0)
    kernel.run()
    digest = digest_values(delivered, injector.log.digest_fields())
    return digest, injector.summary()


def _mk(seed: int, **rates) -> FaultPlan:
    return FaultPlan(seed=seed, messages=MessageFaults(**rates))


#: the fault plan of every chaos row of :data:`repro.check.GOLDEN`
PLANS: dict[str, FaultPlan] = {
    "traffic-drop": _mk(1, drop=0.15, stop=0.015),
    "traffic-duplicate": _mk(2, duplicate=0.15),
    "traffic-delay": _mk(3, delay=0.2),
    "traffic-reorder": _mk(4, reorder=0.2),
    "traffic-mixed": _mk(
        5, drop=0.05, duplicate=0.05, delay=0.05, reorder=0.05, stop=0.018
    ),
    "traffic-crash": FaultPlan(
        seed=6,
        node_faults=(
            NodeFault(node=1, kind="crash", start=0.004, duration=0.003),
            NodeFault(node=4, kind="crash", start=0.009, duration=0.002),
        ),
    ),
    "ga-lossless-chaos": _mk(7, duplicate=0.05, delay=0.05, reorder=0.05),
    "ga-switched-ring": _mk(10, duplicate=0.05, delay=0.05, reorder=0.05),
    "ga-node-faults": FaultPlan(
        seed=8,
        node_faults=(
            NodeFault(node=0, kind="pause", start=0.3, duration=0.15),
            NodeFault(node=1, kind="slowdown", start=0.6, duration=0.4, factor=2.5),
        ),
    ),
    "bayes-duplicate": _mk(9, duplicate=0.1),
}
