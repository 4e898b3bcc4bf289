"""The software-DSM runtime: writes, update propagation, Global_Read.

One :class:`DsmNode` per task mirrors the paper's "simple layer of
software on top of PVM" (§4.1): writes are direct sends to the
compile-time reader set, reads come from the local age buffer, and
``Global_Read`` blocks by waiting on the mailbox until a satisfying update
arrives (WAIT mode) or after asking the writer's daemon (REQUEST mode).

All blocking/charging operations are generators used with ``yield from``
inside the owning simulated process::

    yield from dsm_node.write("migrants.0", genomes, iter_no=g, nbytes=600)
    copy = yield from dsm_node.global_read("migrants.1", curr_iter=g, age=10)

Values travel by reference inside the simulator (a multicast shares one
payload object among receivers); receivers must treat payloads as
immutable and copy before mutating — the applications in this repository
do.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Generator

from repro.core.agebuffer import AgeBuffer
from repro.core.coherence import UpdatePolicy
from repro.core.global_read import (
    GlobalReadMode,
    GlobalReadStats,
    satisfies_age_bound,
)
from repro.core.location import SharedLocationSpec, VersionedValue
from repro.obs.bus import shape
from repro.pvm.vm import Task, VirtualMachine
from repro.sim.process import Compute, WaitSignal

#: reserved PVM tags for the DSM protocol
DSM_UPDATE_TAG = -2000
DSM_REQUEST_TAG = -2001

#: bytes of DSM header per update message (location id + age stamp)
UPDATE_HEADER_BYTES = 12
#: a COALESCE writer buffers while its adapter queue holds more frames than this
COALESCE_THRESHOLD = 4
#: wire size of one explicit-request message
REQUEST_NBYTES = 16

#: the key tuples of the dsm.* and gr.* trace records (values go in this order)
_WRITE = shape("iter", "locn")
_READ = shape("locn", "ret")
_HIT = shape("age", "curr_iter", "locn", "ret", "staleness")
_BLOCK = shape("age", "curr_iter", "locn")
_UNBLOCK = shape(
    "age", "curr_iter", "locn", "ref", "ret", "staleness", "waited", "writer"
)


@dataclass
class DsmNodeStats:
    """Per-node DSM activity counters."""

    writes: int = 0
    updates_sent: int = 0
    updates_received: int = 0
    updates_coalesced: int = 0
    requests_served: int = 0
    requests_deferred: int = 0


class DsmNode:
    """Per-task handle onto the DSM (see module docstring)."""

    #: REQUEST's deferred requests and COALESCE's unsent updates, per
    #: location: built per node only under that mode or policy
    _pending_requests = _outbox = MappingProxyType({})

    def __init__(self, dsm: "Dsm", task: Task) -> None:
        self.dsm = dsm
        self.task = task
        self.agebuf = AgeBuffer(task.tid)
        self.local_store: dict[str, VersionedValue] = {}
        self.gr_stats = GlobalReadStats()
        self.stats = DsmNodeStats()
        #: the machine's trace bus (or None); cached once — the bus is
        #: installed on the kernel before any DsmNode exists
        self.obs = dsm.vm.kernel.obs
        #: optional hook called as ``on_update(locn, age, value) -> cost``
        #: for every update :meth:`drain` applies; the returned simulated
        #: seconds are charged with the drain (applications use this to
        #: process update streams, e.g. folding interface-value batches)
        self.on_update = None
        if dsm.mode is GlobalReadMode.REQUEST:
            self._pending_requests: dict[str, list[tuple[int, int]]] = {}
        if dsm.update_policy is UpdatePolicy.COALESCE:
            self._outbox: dict[str, tuple[Any, int, int]] = {}

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def write(
        self, locn: str, value: Any, iter_no: int, nbytes: int | None = None
    ) -> Generator:
        """Write ``value`` as iteration ``iter_no``'s value of ``locn``.

        Updates the local store, serves any deferred explicit requests
        that the new value satisfies, and propagates to the reader set
        according to the update policy.  Returns once the sends have been
        submitted (writes are asynchronous, as in slow memory — they never
        wait for delivery).
        """
        spec = self.dsm.spec(locn)
        if spec.writer != self.task.tid:
            raise PermissionError(
                f"task {self.task.tid} is not the writer of {locn!r} "
                f"(writer is {spec.writer})"
            )
        now = self.dsm.vm.kernel.now
        current = self.local_store.get(locn)
        if current is not None and iter_no <= current.age:
            raise ValueError(
                f"{locn!r}: write ages must increase (got {iter_no} after "
                f"{current.age}); iterative producers write once per iteration"
            )
        self.local_store[locn] = VersionedValue(value=value, age=iter_no, write_time=now)
        self.stats.writes += 1
        obs = self.obs
        if obs is not None:
            obs.append((obs.clock(), "dsm.write", self.task.tid, _WRITE, iter_no, spec.name))
        payload_bytes = (nbytes if nbytes is not None else spec.value_nbytes)
        wire_bytes = payload_bytes + UPDATE_HEADER_BYTES

        # Serve deferred explicit requests this write satisfies.
        pending = self._pending_requests.get(locn, [])
        still_waiting = []
        for requester, min_age in pending:
            if iter_no >= min_age:
                yield from self.task.send(
                    requester, DSM_UPDATE_TAG, (locn, iter_no, value, now), wire_bytes,
                    trace_ref=self._ref(locn, iter_no),
                )
                self.stats.updates_sent += 1
                self.stats.requests_served += 1
            else:
                still_waiting.append((requester, min_age))
        if pending:
            self._pending_requests[locn] = still_waiting

        if not spec.readers:
            return
        if self.dsm.update_policy is UpdatePolicy.EAGER:
            yield from self._propagate(spec, value, iter_no, now, wire_bytes)
        else:
            yield from self._coalescing_propagate(spec, value, iter_no, now, wire_bytes)

    def _ref(self, locn: str, iter_no: int) -> str | None:
        """Content-addressed lineage id for a write, or None when untraced.

        ``"locn@iter"`` is a pure function of (location, iteration) — never
        a process-global counter — so identical-seed runs emit identical
        traces (the bit-identity contract of DESIGN.md §10).
        """
        return f"{locn}@{iter_no}" if self.obs is not None else None

    def _propagate(self, spec, value, iter_no, write_time, wire_bytes) -> Generator:
        yield from self.task.mcast(
            spec.readers, DSM_UPDATE_TAG, (spec.name, iter_no, value, write_time), wire_bytes,
            trace_ref=self._ref(spec.name, iter_no),
        )
        self.stats.updates_sent += len(spec.readers)

    def _coalescing_propagate(self, spec, value, iter_no, write_time, wire_bytes) -> Generator:
        """Mermera-style sender buffering: hold updates while the egress
        queue is backlogged; a held update is superseded by newer writes
        (slow-memory legality) and flushed by the first uncongested write."""
        adapter = self.dsm.vm.network.adapters[self.task.tid]
        congested = adapter.queue_len > COALESCE_THRESHOLD
        if congested:
            if spec.name in self._outbox:
                self.stats.updates_coalesced += 1
            self._outbox[spec.name] = (value, iter_no, wire_bytes)
            return
        # flush anything held back, oldest declaration order first
        for name, (v, a, wb) in list(self._outbox.items()):
            held_spec = self.dsm.spec(name)
            yield from self._propagate(held_spec, v, a, write_time, wb)
            del self._outbox[name]
        yield from self._propagate(spec, value, iter_no, write_time, wire_bytes)

    def flush(self) -> Generator:
        """Force-propagate every update held back by the COALESCE policy.

        Coalescing producers must call this after their last write (and may
        call it periodically): without it the freshest value of a location
        can sit in the outbox forever once the producer stops writing.
        """
        for name, (v, a, wb) in list(self._outbox.items()):
            yield from self._propagate(self.dsm.spec(name), v, a, self.dsm.vm.kernel.now, wb)
            del self._outbox[name]

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def drain(self) -> Generator:
        """Fold every waiting DSM update into the age buffer.

        Charges the aggregate receive cost and returns the number of
        updates applied.  Called implicitly by the read operations; the
        asynchronous applications also call it once per iteration.
        """
        cost = 0.0
        applied = 0
        now = self.dsm.vm.kernel.now
        for msg in self.task.nrecv_all(DSM_UPDATE_TAG):
            cost += self.task.consume_cost(msg)
            locn, age, value, write_time = msg.payload
            self.stats.updates_received += 1
            if self.agebuf.update(locn, value, age, write_time, now):
                applied += 1
                if self.on_update is not None:
                    cost += self.on_update(locn, age, value)
        if cost > 0.0:
            yield Compute(cost)
        return applied

    def read_local(self, locn: str) -> Generator:
        """Slow-memory read: the freshest local copy, possibly ``None``.

        Never blocks — this is what the fully asynchronous programs use.
        """
        spec = self._check_reader(locn)
        yield from self.drain()
        copy = self.agebuf.get(locn)
        obs = self.obs
        if copy is not None and obs is not None:
            obs.append((obs.clock(), "dsm.read", self.task.tid, _READ, spec.name, copy.age))
        return copy

    def global_read(self, locn: str, curr_iter: int, age: int) -> Generator:
        """The paper's primitive (see :mod:`repro.core.global_read`).

        Returns the current :class:`VersionedValue` as soon as its age is
        within bound; blocks the calling process otherwise.
        """
        spec = self._check_reader(locn)
        self.gr_stats.calls += 1
        if self.task.mailbox:  # an empty mailbox drains to nothing
            yield from self.drain()
        copy = self.agebuf.get(locn)
        if satisfies_age_bound(copy.age if copy else None, curr_iter, age):
            self.gr_stats.hits += 1
            self.gr_stats.record_return(curr_iter, copy.age)
            obs = self.obs
            if obs is not None:
                obs.append((
                    obs.clock(), "gr.hit", self.task.tid, _HIT, age, curr_iter,
                    spec.name, copy.age, max(0, curr_iter - copy.age),
                ))
            return copy

        # Blocking path.
        self.gr_stats.blocked += 1
        block_start = self.dsm.vm.kernel.now
        obs = self.obs
        if obs is not None:
            obs.append((obs.clock(), "gr.block", self.task.tid, _BLOCK, age, curr_iter, spec.name))
        if self.dsm.mode is GlobalReadMode.REQUEST:
            yield from self.task.send(
                spec.writer, DSM_REQUEST_TAG, (locn, curr_iter - age), REQUEST_NBYTES
            )
            self.gr_stats.requests_sent += 1
        while True:
            # A message may have arrived while drain() was charging its
            # receive cost (the signal fires with no waiter — a classic
            # lost wakeup).  Never park while undrained updates exist.
            if not self.task.probe(tag=DSM_UPDATE_TAG):
                yield WaitSignal(self.task.mail_signal)
            yield from self.drain()
            copy = self.agebuf.get(locn)
            if satisfies_age_bound(copy.age if copy else None, curr_iter, age):
                break
        self.gr_stats.block_time += self.dsm.vm.kernel.now - block_start
        self.gr_stats.record_return(curr_iter, copy.age)
        if obs is not None:
            # ref names the write that unblocked us; writer its producer —
            # together the blocking-cause edge of the causal span graph
            obs.append((
                obs.clock(), "gr.unblock", self.task.tid, _UNBLOCK, age, curr_iter,
                spec.name, f"{spec.name}@{copy.age}", copy.age,
                max(0, curr_iter - copy.age), self.dsm.vm.kernel.now - block_start,
                spec.writer,
            ))
        return copy

    def _check_reader(self, locn: str) -> SharedLocationSpec:
        """``locn``'s registered spec, once this task is known to read it."""
        spec = self.dsm.spec(locn)
        if self.task.tid not in spec.readers:
            raise PermissionError(
                f"task {self.task.tid} is not a declared reader of {locn!r}"
            )
        return spec

    # ------------------------------------------------------------------
    # REQUEST-mode daemon
    # ------------------------------------------------------------------
    def daemon(self) -> Generator:
        """Serve explicit Global_Read requests for locations we write.

        Runs forever; spawn via :meth:`Dsm.spawn_daemons`.  A request whose
        bound the local store cannot yet satisfy is deferred and answered
        by the producing process's next satisfying :meth:`write`.
        """
        while True:
            msg = yield from self.task.recv(tag=DSM_REQUEST_TAG)
            locn, min_age = msg.payload
            spec = self.dsm.spec(locn)
            copy = self.local_store.get(locn)
            if copy is not None and copy.age >= min_age:
                wire = spec.value_nbytes + UPDATE_HEADER_BYTES
                yield from self.task.send(
                    msg.src, DSM_UPDATE_TAG, (locn, copy.age, copy.value, copy.write_time), wire,
                    trace_ref=self._ref(locn, copy.age),
                )
                self.stats.updates_sent += 1
                self.stats.requests_served += 1
            else:
                self._pending_requests.setdefault(locn, []).append((msg.src, min_age))
                self.stats.requests_deferred += 1


class Dsm:
    """DSM registry: location specs and per-task nodes over one VM."""

    def __init__(
        self,
        vm: VirtualMachine,
        mode: GlobalReadMode = GlobalReadMode.WAIT,
        update_policy: UpdatePolicy = UpdatePolicy.EAGER,
    ) -> None:
        self.vm = vm
        self.mode = mode
        self.update_policy = update_policy
        self._specs: dict[str, SharedLocationSpec] = {}
        self._nodes: dict[int, DsmNode] = {}

    def register(self, spec: SharedLocationSpec) -> SharedLocationSpec:
        """Declare a shared location; all parties must be existing tasks."""
        if spec.name in self._specs:
            raise ValueError(f"location {spec.name!r} already registered")
        for tid in (spec.writer, *spec.readers):
            if tid not in self.vm.tasks:
                raise KeyError(f"{spec.name!r} references unknown task {tid}")
        self._specs[spec.name] = spec
        return spec

    def spec(self, locn: str) -> SharedLocationSpec:
        """The :class:`SharedLocationSpec` registered for ``locn``."""
        try:
            return self._specs[locn]
        except KeyError:
            raise KeyError(f"unknown shared location {locn!r}") from None

    def node(self, tid: int) -> DsmNode:
        """The DSM handle for task ``tid`` (created on first use)."""
        node = self._nodes.get(tid)
        if node is None:
            node = DsmNode(self, self.vm.tasks[tid])
            self._nodes[tid] = node
        return node

    def spawn_daemons(self) -> list:
        """Spawn the REQUEST-mode daemon on every node that writes.

        Needed only in :attr:`GlobalReadMode.REQUEST`; in WAIT mode no
        daemon exists (the whole point of the waiting implementation is
        its lower message and process overhead).
        """
        handles = []
        writers = {s.writer for s in self._specs.values()}
        for tid in sorted(writers):
            node = self.node(tid)
            handles.append(
                self.vm.kernel.spawn(node.daemon(), name=f"dsm-daemon-{tid}")
            )
        return handles

    def merged_gr_stats(self) -> GlobalReadStats:
        """Global_Read statistics aggregated over all nodes."""
        out = GlobalReadStats()
        for node in self._nodes.values():
            out = out.merge(node.gr_stats)
        return out

    @property
    def locations(self) -> list[str]:
        """All registered location names, in registration order."""
        return sorted(self._specs)
