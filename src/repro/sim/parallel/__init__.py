"""Bounded-lag parallel event kernel: intra-scenario PDES across processes.

One big simulated scenario no longer has to run on one core: the
coordinator (:func:`run_sharded`) partitions the scenario's units into
shards with the multilevel partitioner, runs one worker process per
shard, and advances them under a bounded-lag window protocol with a
GVT-style distributed floor (DESIGN.md §13; the conservative scheme of
Lubachevsky, with Synchronous Relaxation as the documented stretch
mode).

The execution model is *replicated event stream, partitioned compute*:
every shard replays the complete (cheap) kernel/network/DSM event
stream — the shared-Ethernet arbitration makes any event-partitioned
alternative zero-lookahead, see DESIGN.md §13 — while the expensive
application work (GA evolution, fitness evaluation) runs only on the
unit's owning shard and is replayed elsewhere from exchanged records.
That construction makes sharded runs **bit-identical to serial**
(``python -m repro.check`` holds every GA row of the golden table to its
pin at shards ∈ {1, 2, 4}), and the coordinator enforces it at runtime
by requiring every shard to produce the same result digest and the same
JSONL trace.

Entry point: ``run_island_ga(cfg, shards=N)`` for the island GA.
"""

from repro.sim.parallel.channel import RecordFeed
from repro.sim.parallel.coordinator import ShardedRun, run_sharded
from repro.sim.parallel.plan import ShardPlan, lookahead_of, plan_shards
from repro.sim.parallel.records import GenRecord, ShardOutcome
from repro.sim.parallel.trace import merge_shard_traces
from repro.sim.parallel.worker import ShardContext

__all__ = [
    "GenRecord",
    "RecordFeed",
    "ShardContext",
    "ShardOutcome",
    "ShardPlan",
    "ShardedRun",
    "lookahead_of",
    "merge_shard_traces",
    "plan_shards",
    "run_sharded",
]
