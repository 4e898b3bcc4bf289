"""Record types exchanged between shard workers and the coordinator.

The bounded-lag parallel kernel (DESIGN.md §13) partitions the heavy
*application* computation across worker processes while every worker
replays the full (cheap) simulated event stream.  The unit of exchange
is the :class:`GenRecord`: whatever an owned unit computes that its
ghost replicas on other shards need to replay the identical stream —
a compute cost, report values, and the migrant payload the unit writes
to the DSM.

Records are plain picklable dataclasses: the transport is a
``multiprocessing`` pipe, whose :meth:`Connection.send` pickles for us.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class GenRecord:
    """One owned-unit production step, replayed verbatim by ghosts.

    ``kind`` names the step within the unit's per-generation protocol
    (for the island GA: ``"start"``, ``"evolve"``, ``"inc"``); ``gen``
    is the application generation/iteration the step belongs to.  Ghosts
    consume a unit's records strictly in publication order, so a
    kind/gen mismatch on consume is a determinism violation and raises.
    """

    kind: str
    unit: int
    gen: int
    #: baseline seconds of simulated compute the step charges (before
    #: the consuming node's jitter/speed model, which is replayed locally)
    cost: float = 0.0
    best: float = math.inf
    mean: float = math.inf
    #: opaque application payload (e.g. the GA's ``(genomes, fitness)``
    #: migrant arrays) — whatever the unit writes to shared state
    payload: Any = None


@dataclass
class ShardOutcome:
    """What one shard worker reports back when its replica run finishes.

    Every shard executes the identical event stream, so every field
    except ``trace_path``/``feed_stats``/``window_spans`` must
    agree across shards — the coordinator enforces digest equality as a
    built-in determinism check before returning shard 0's ``result``.
    """

    shard_id: int
    #: canonical digest over the scenario's observable result (and the
    #: injected-fault log, when a fault plan is active)
    digest: str
    #: final simulated clock of the shard's kernel
    clock: float = 0.0
    #: kernel events executed (identical across shards by construction)
    events: int = 0
    #: the scenario result object (picklable); shard 0's is returned
    result: Any = None
    #: injected-fault log digest fields (empty without a fault plan)
    fault_log: list = field(default_factory=list)
    #: per-shard JSONL trace file, when the scenario traced the run
    trace_path: str | None = None
    #: RecordFeed counters (records in/out, wall seconds blocked)
    feed_stats: dict = field(default_factory=dict)
    #: per-floor-epoch synchronization waits for obs attribution:
    #: ``[(epoch, floor, wall_wait_s, waits), ...]``
    window_spans: list = field(default_factory=list)
