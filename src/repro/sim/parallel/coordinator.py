"""The bounded-lag coordinator: shard spawn, record routing, floor.

Scheme (DESIGN.md §13, after Lubachevsky's bounded-lag conservative
PDES): the scenario's units are partitioned into shards with the
multilevel partitioner; one worker process per shard replays the *full*
simulated event stream but computes only its owned units, exchanging
:class:`~repro.sim.parallel.records.GenRecord` payloads through this
coordinator.  The coordinator:

* routes every published record to every other shard (each shard hosts
  ghost replicas of all non-owned units);
* folds clock beacons into the distributed floor — the GVT-style
  minimum over shard clocks — and broadcasts it when it crosses a
  lookahead-sized window boundary;
* collects per-shard outcomes, **enforces cross-shard digest equality**
  (every shard ran the identical event stream, so any divergence is a
  determinism bug and raises), and returns shard 0's result;
* merges per-shard JSONL traces deterministically, folding the workers'
  window-synchronization spans in as ``par.window`` events.

A scenario object must provide::

    units() -> int                    # how many partitionable units
    comm_graph() -> Graph             # unit-communication graph (0..n-1)
    machine_config() -> MachineConfig # for lookahead extraction
    shardable() -> (bool, reason)     # e.g. noisy RNG coupling -> False
    run_serial() -> result            # the graceful fallback
    run_shard(ctx) -> ShardOutcome    # the worker-side executor

Fallback is always graceful: ``shards <= 1``, an unshardable scenario,
or a platform where worker processes cannot start all degrade to
``run_serial()`` with the reason recorded on the returned
:class:`ShardedRun`.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection

from repro.sim.parallel.channel import BYE, CLK, DONE, ERR, FLOOR, REC
from repro.sim.parallel.plan import ShardPlan, lookahead_of, plan_shards
from repro.sim.parallel.records import ShardOutcome

#: seconds of coordinator silence after which worker liveness is checked
_WATCHDOG_S = 30.0


@dataclass
class ShardedRun:
    """Outcome of :func:`run_sharded` (sharded or fallen back to serial)."""

    result: object
    n_shards: int
    #: why the run fell back to serial; None = it really ran sharded
    fallback: str | None = None
    plan: ShardPlan | None = None
    outcomes: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    floor_broadcasts: int = 0
    records_routed: int = 0
    merged_trace: str | None = None

    @property
    def sharded(self) -> bool:
        """Whether worker processes actually executed the run."""
        return self.fallback is None

    def info(self) -> dict:
        """The ``result.metrics["parallel"]`` block describing this run."""
        info: dict = {
            "shards": self.n_shards,
            "sharded": self.sharded,
            "fallback": self.fallback,
        }
        if self.sharded:
            info.update(
                owner=list(self.plan.owner),
                lookahead=self.plan.lookahead,
                lag_bound=self.plan.lag_bound,
                records_routed=self.records_routed,
                floor_broadcasts=self.floor_broadcasts,
                feed=[o.feed_stats for o in self.outcomes],
                fault_log=self.outcomes[0].fault_log,
                merged_trace=self.merged_trace,
            )
        return info


def _mp_context():
    """Fork where available (cheap, Linux), spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def run_sharded(
    scenario,
    shards: int,
    seed: int = 0,
    trace_path: str | None = None,
) -> ShardedRun:
    """Execute ``scenario`` across ``shards`` worker processes.

    Bit-identical to ``scenario.run_serial()`` by construction; the
    cross-shard digest check turns any violation into a hard error
    rather than a silently wrong result.
    """
    units = scenario.units()
    n = max(1, min(shards, units))
    if n <= 1:
        reason = "shards <= 1" if shards <= 1 else f"clamped to {units} unit(s)"
        return ShardedRun(result=scenario.run_serial(), n_shards=1, fallback=reason)
    ok, reason = scenario.shardable()
    if not ok:
        return ShardedRun(result=scenario.run_serial(), n_shards=1, fallback=reason)

    lookahead = lookahead_of(scenario.machine_config())
    plan = plan_shards(scenario.comm_graph(), n, lookahead, seed=seed)
    n = plan.n_shards

    from repro.sim.parallel.worker import shard_worker_main

    ctx = _mp_context()
    conns, procs = [], []
    shard_traces = [
        f"{trace_path}.shard{k}.jsonl" if trace_path else None for k in range(n)
    ]
    try:
        for k in range(n):
            parent, child = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=shard_worker_main,
                args=(child, scenario, k, plan, shard_traces[k]),
                name=f"repro-shard-{k}",
            )
            proc.start()
            child.close()
            conns.append(parent)
            procs.append(proc)
    except (OSError, ValueError, ImportError, AssertionError) as exc:
        # AssertionError covers "daemonic processes are not allowed to
        # have children" when a shard run is nested inside a pool worker
        for p in procs:
            p.terminate()
        return ShardedRun(
            result=scenario.run_serial(),
            n_shards=1,
            fallback=f"worker processes unavailable ({exc})",
        )

    try:
        done, floor_broadcasts, routed = _route(conns, procs, plan)
    finally:
        for c in conns:
            try:
                c.send((BYE,))
            except (OSError, ValueError):
                pass
            c.close()
        for p in procs:
            p.join(timeout=10.0)
            if p.is_alive():
                p.terminate()
                p.join(timeout=5.0)

    outcomes = [done[k] for k in range(n)]
    digests = [o.digest for o in outcomes]
    if len(set(digests)) != 1:
        raise RuntimeError(
            "cross-shard determinism violation: shard digests diverged "
            f"({digests}) — every shard must replay the identical event stream"
        )

    merged = None
    if trace_path and all(o.trace_path for o in outcomes):
        from repro.sim.parallel.trace import merge_shard_traces

        merged = merge_shard_traces(outcomes, trace_path, plan)

    return ShardedRun(
        result=outcomes[0].result,
        n_shards=n,
        fallback=None,
        plan=plan,
        outcomes=outcomes,
        digests=digests,
        floor_broadcasts=floor_broadcasts,
        records_routed=routed,
        merged_trace=merged,
    )


def _route(conns, procs, plan: ShardPlan):
    """Route records/clocks until every shard reports DONE (or ERR)."""
    n = len(conns)
    clocks = [0.0] * n
    finished = [False] * n
    done: dict[int, ShardOutcome] = {}
    floor = 0.0
    last_window = -1
    floor_broadcasts = 0
    routed = 0

    def broadcast_floor() -> None:
        nonlocal floor, last_window, floor_broadcasts
        new_floor = min(clocks)
        if new_floor <= floor:
            return
        if math.isinf(new_floor):
            return  # every shard is done; nobody is left to unblock
        floor = new_floor
        window = plan.window_of(floor)
        if window <= last_window:
            return
        last_window = window
        floor_broadcasts += 1
        for k, c in enumerate(conns):
            if not finished[k]:
                try:
                    c.send((FLOOR, floor))
                except (OSError, ValueError):
                    pass  # shard finishing concurrently; DONE is in flight

    while len(done) < n:
        ready = mp_connection.wait(
            [c for k, c in enumerate(conns) if not finished[k]],
            timeout=_WATCHDOG_S,
        )
        if not ready:
            dead = [
                k for k in range(n)
                if not finished[k] and not procs[k].is_alive()
            ]
            if dead:
                raise RuntimeError(
                    f"parallel-kernel worker(s) {dead} died without reporting"
                )
            continue
        for conn in ready:
            k = conns.index(conn)
            try:
                msg = conn.recv()
            except EOFError:
                if not finished[k]:
                    raise RuntimeError(
                        f"parallel-kernel worker {k} closed its channel mid-run"
                    ) from None
                continue
            tag = msg[0]
            if tag == REC:
                _, src, rec = msg
                routed += 1
                for j, c in enumerate(conns):
                    if j != src and not finished[j]:
                        try:
                            c.send((REC, rec))
                        except (OSError, ValueError):
                            if not finished[j]:
                                raise
            elif tag == CLK:
                _, src, now = msg
                if now > clocks[src]:
                    clocks[src] = now
                    broadcast_floor()
            elif tag == DONE:
                _, src, outcome = msg
                done[src] = outcome
                finished[src] = True
                clocks[src] = math.inf
                broadcast_floor()
            elif tag == ERR:
                _, src, tb = msg
                for p in procs:
                    p.terminate()
                raise RuntimeError(
                    f"parallel-kernel worker {src} failed:\n{tb}"
                )
            else:
                raise RuntimeError(f"unexpected worker message tag {tag!r}")
    return done, floor_broadcasts, routed
