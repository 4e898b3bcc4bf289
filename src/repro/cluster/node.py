"""Per-node compute model.

Applications express work in *baseline seconds* — the cost of an operation
on the paper's reference node (a 77 MHz RS/6000-591; serial GA and BN
costs are calibrated against the paper's reported uniprocessor times, see
``repro.bayes`` / ``repro.ga`` cost models).  A :class:`Node` converts a
baseline cost to this node's cost by dividing by its ``speed_factor`` and
applying multiplicative *jitter*.

Jitter matters: §3.2's "load skew" — a few nodes transiently slower per
iteration — is one of the things `Global_Read` tolerates and barriers do
not (a barrier waits for the *max* of the per-node iteration times, which
grows with the processor count).  We model it as lognormal noise with
configurable sigma, drawn from the node's own named RNG stream so runs
stay reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.inputs import check_fields, nonnegative, positive
from repro.obs.bus import shape
from repro.sim.kernel import Kernel

#: the key tuples of a traced compute interval, without and with its op
_COMPUTE = shape("baseline", "cost")
_COMPUTE_OP = shape("baseline", "cost", "op")


@dataclass(frozen=True)
class NodeSpec:
    """Static description of one node, relative to the reference node."""

    #: relative speed vs. the reference node (1.0 = reference)
    speed_factor: float = positive(default=1.0)
    #: sigma of lognormal per-operation compute-time noise (0 = none)
    jitter_sigma: float = nonnegative(default=0.0)

    def __post_init__(self) -> None:
        check_fields(self)  # a non-finite factor makes every compute free or NaN long


class Node:
    """A compute node: converts baseline costs into this node's costs."""

    def __init__(self, kernel: Kernel, node_id: int, spec: NodeSpec) -> None:
        self.kernel = kernel
        self.node_id = node_id
        self.spec = spec
        #: optional repro.faults.NodeFaultModel; maps compute intervals
        #: through scheduled pause/slowdown/crash windows
        self.fault_model = None
        self._rng = kernel.rng.get(f"node{node_id}.jitter")
        # E[lognormal(mu, sigma)] = exp(mu + sigma^2/2); choose mu so the
        # mean multiplier is exactly 1 and jitter never biases mean cost.
        self._mu = -0.5 * spec.jitter_sigma**2

    def cost(self, baseline_seconds: float, label: str | None = None) -> float:
        """This node's cost for work that takes ``baseline_seconds`` on the
        reference node (jittered, mean-preserving).

        ``label`` optionally names the operation ("evolve", "sample", …)
        and rides along on the ``node.compute`` trace event as ``op`` so
        the causal span builder can tell application phases apart; it has
        no effect on the returned cost.
        """
        if baseline_seconds < 0:
            raise ValueError("baseline cost must be >= 0")
        scaled = baseline_seconds / self.spec.speed_factor
        if self.spec.jitter_sigma != 0.0 and baseline_seconds != 0.0:
            mult = float(
                np.exp(self._mu + self.spec.jitter_sigma * self._rng.standard_normal())
            )
            scaled *= mult
        if self.fault_model is not None:
            scaled = self.fault_model.perturb(self.kernel.now, scaled)
        bus = self.kernel.obs
        if bus is not None:
            if label is None:
                bus.append((bus.clock(), "node.compute", self.node_id, _COMPUTE,
                            baseline_seconds, scaled))
            else:
                bus.append((bus.clock(), "node.compute", self.node_id, _COMPUTE_OP,
                            baseline_seconds, scaled, label))
        return scaled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.node_id}, x{self.spec.speed_factor})"
