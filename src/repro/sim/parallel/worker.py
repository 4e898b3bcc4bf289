"""Shard worker entry point (runs in a child OS process).

A worker owns one shard: it rebuilds the complete scenario (machine,
kernel, DSM, application processes — the *entire* simulated cluster,
not a slice of it), binds a :class:`~repro.sim.parallel.channel.
RecordFeed` to its kernel clock, and runs the scenario's shard
executor.  Owned units compute authoritatively and publish records;
ghost units replay records from their owning shards.  Because every
worker replays the identical totally-ordered event stream, the shard's
result is bit-identical to a serial run — the coordinator cross-checks
the shards' digests to enforce exactly that.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass

from repro.sim.parallel.channel import BYE, DONE, ERR, RecordFeed
from repro.sim.parallel.plan import ShardPlan


@dataclass
class ShardContext:
    """Everything a scenario's shard executor needs from the harness."""

    shard_id: int
    plan: ShardPlan
    feed: RecordFeed
    #: per-shard JSONL trace destination (None = tracing off)
    trace_path: str | None = None


def shard_worker_main(conn, scenario, shard_id: int, plan: ShardPlan,
                      trace_path: str | None = None) -> None:
    """Child-process body: run one shard replica and report the outcome.

    Any exception — including determinism tripwires like a diverged
    record stream — is shipped back as a formatted traceback; the
    coordinator re-raises it in the parent.
    """
    try:
        feed = RecordFeed(conn, shard_id, plan)
        ctx = ShardContext(
            shard_id=shard_id, plan=plan, feed=feed, trace_path=trace_path
        )
        outcome = scenario.run_shard(ctx)
        outcome.feed_stats = feed.stats()
        outcome.window_spans = feed.spans()
        conn.send((DONE, shard_id, outcome))
        # Linger until the coordinator says BYE: it may still be routing
        # records to us for streams we have already finished, and exiting
        # early would turn those sends into broken pipes.  (EOF alone
        # never comes under fork: this process holds an inherited copy of
        # the coordinator's end of its own pipe.)
        try:
            while conn.recv()[0] != BYE:
                pass
        except EOFError:
            pass
    except BaseException:
        try:
            conn.send((ERR, shard_id, traceback.format_exc()))
        except (OSError, ValueError):
            pass
    finally:
        conn.close()
