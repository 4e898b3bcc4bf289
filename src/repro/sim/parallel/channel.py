"""Worker↔coordinator wire protocol and the worker-side record feed.

Message tuples on the ``multiprocessing`` pipes (first element is the
tag):

====== =============================== ===============================
tag    direction                       payload
====== =============================== ===============================
REC    worker → coordinator            ``(REC, shard_id, GenRecord)``
CLK    worker → coordinator            ``(CLK, shard_id, sim_now)``
DONE   worker → coordinator            ``(DONE, shard_id, ShardOutcome)``
ERR    worker → coordinator            ``(ERR, shard_id, traceback_str)``
REC    coordinator → worker            ``(REC, GenRecord)`` (routed)
FLOOR  coordinator → worker            ``(FLOOR, floor_time)``
====== =============================== ===============================

The :class:`RecordFeed` is the worker half of the bounded-lag protocol:
owners :meth:`publish` records eagerly; ghosts :meth:`consume` them
demand-driven, wall-blocking (the whole shard, conservatively) until
the owning shard's record arrives.  Clock beacons ride along with every
publish/consume; the coordinator folds them into the distributed floor
(GVT-style min over shard clocks) and broadcasts it at window
boundaries.  A shard whose clock runs past ``floor + lag_bound`` pauses
in :meth:`publish` until the floor catches up — the bounded-lag gate.

Wall-clock blocking here is *wall* time only: it never touches the
simulated clock, RNG streams or event order, so a sharded run stays
bit-identical to serial no matter how the OS schedules the workers.
"""

from __future__ import annotations

import time
from collections import defaultdict, deque

from repro.sim.parallel.plan import ShardPlan
from repro.sim.parallel.records import GenRecord

REC = "rec"
CLK = "clk"
DONE = "done"
ERR = "err"
FLOOR = "floor"
BYE = "bye"

#: cap on stored per-epoch window spans (tail waits aggregate into the
#: last slot so the outcome stays bounded however long the run is)
MAX_WINDOW_SPANS = 512


class RecordFeed:
    """Worker-side record buffer + bounded-lag gate over one pipe."""

    def __init__(self, conn, shard_id: int, plan: ShardPlan) -> None:
        self.conn = conn
        self.shard_id = shard_id
        self.plan = plan
        self._buf: dict[int, deque] = defaultdict(deque)
        self.floor = 0.0
        #: floor-advance epoch — bumped on every FLOOR broadcast received;
        #: synchronization waits are attributed to the current epoch
        self.epoch = 0
        self._clock = lambda: 0.0
        self.records_in = 0
        self.records_out = 0
        self.consume_wait_s = 0.0
        self.gate_wait_s = 0.0
        #: epoch -> [floor_at_epoch, wall_wait_s, waits]
        self._spans: dict[int, list] = {}

    # -- wiring --------------------------------------------------------
    def bind_clock(self, clock) -> None:
        """Bind the shard kernel's simulated clock (after machine build)."""
        self._clock = clock

    # -- owner side ----------------------------------------------------
    def publish(self, rec: GenRecord) -> None:
        """Ship one owned-unit record, then honour the bounded-lag gate."""
        self.conn.send((REC, self.shard_id, rec))
        self.records_out += 1
        self._beacon()
        self._drain()
        while self._clock() > self.floor + self.plan.lag_bound:
            # ahead of the lag horizon: wall-pause until the floor moves.
            # Re-beacon first — if *every* shard were gated, fresh clocks
            # let the coordinator raise the floor and unblock the minimum.
            self._beacon()
            self._wait_one(self.gate_waited)

    # -- ghost side ----------------------------------------------------
    def consume(self, unit: int) -> GenRecord:
        """Next record for ``unit``, wall-blocking until the owner ships it."""
        buf = self._buf[unit]
        self._drain()
        if not buf:
            self._beacon()
            while not buf:
                self._wait_one(self.consume_waited)
        self.records_in += 1
        return buf.popleft()

    # -- plumbing ------------------------------------------------------
    def _beacon(self) -> None:
        self.conn.send((CLK, self.shard_id, self._clock()))

    def _drain(self) -> None:
        while self.conn.poll(0):
            self._dispatch(self.conn.recv())

    def _wait_one(self, account) -> None:
        t0 = time.perf_counter()  # repro-lint: allow[RPR002] — wall-clock wait accounting
        try:
            msg = self.conn.recv()
        except EOFError as exc:
            raise RuntimeError(
                "parallel-kernel coordinator channel closed mid-run"
            ) from exc
        account(time.perf_counter() - t0)  # repro-lint: allow[RPR002] — wall-clock wait accounting
        self._dispatch(msg)
        self._drain()

    def _dispatch(self, msg) -> None:
        tag = msg[0]
        if tag == REC:
            rec: GenRecord = msg[1]
            self._buf[rec.unit].append(rec)
        elif tag == FLOOR:
            floor = float(msg[1])
            if floor > self.floor:
                self.floor = floor
                self.epoch += 1
        elif tag == BYE:
            pass  # shutdown marker; the run is already over when it arrives
        else:
            raise RuntimeError(f"unexpected coordinator message tag {tag!r}")

    def _span(self) -> list:
        key = min(self.epoch, MAX_WINDOW_SPANS - 1)
        span = self._spans.get(key)
        if span is None:
            span = self._spans[key] = [self.floor, 0.0, 0]
        return span

    def gate_waited(self, dt: float) -> None:
        """Account one bounded-lag gate wait of ``dt`` wall seconds."""
        self.gate_wait_s += dt
        span = self._span()
        span[1] += dt
        span[2] += 1

    def consume_waited(self, dt: float) -> None:
        """Account one record-consume wait of ``dt`` wall seconds."""
        self.consume_wait_s += dt
        span = self._span()
        span[1] += dt
        span[2] += 1

    # -- reporting -----------------------------------------------------
    def stats(self) -> dict:
        """Feed counters for the shard outcome."""
        return {
            "records_in": self.records_in,
            "records_out": self.records_out,
            "consume_wait_s": self.consume_wait_s,
            "gate_wait_s": self.gate_wait_s,
            "floor": self.floor,
            "epochs": self.epoch,
        }

    def spans(self) -> list:
        """Per-epoch synchronization waits: ``[(epoch, floor, wall_s, n)]``."""
        return [
            (epoch, span[0], span[1], span[2])
            for epoch, span in sorted(self._spans.items())
        ]
