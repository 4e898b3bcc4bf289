"""Rollback machinery for asynchronous parallel logic sampling.

§3.2: each processor gambles that an unreceived interface-node value
equals its *default* (the node's modal prior value).  "When a processor
receives a value from a node that differs from the default value for that
node, the value of the child node and the values of all the nodes in the
network that are dependent on this node and that have already been
computed must be invalidated and recomputed.  The processor then has to
*roll back*.  We use standard rollback techniques [2], such as sending
antimessages, to implement the rollback."

This module holds the two pieces of bookkeeping:

* :class:`ProcessorState` — one processor's optimistic state: its own
  sampled values per iteration, the actual remote values received so far,
  the outstanding gambles, and the rollback operation (recompute the
  affected descendants of a changed input, diff the processor's published
  interface values, and emit corrections — the anti-message + corrected
  value pair, fused into one "supersede" message as modern optimistic
  engines do), plus Time Warp's fossil collection: every per-run table
  is keyed by run, and :meth:`ProcessorState.collect` drops the runs no
  value can reach any more.
* :class:`GvtOracle` — the global-virtual-time floor below which no
  correction can ever arrive, so runs can be *committed* to the
  estimator.  A real deployment computes this floor with a distributed
  GVT algorithm [2]; the simulation computes it centrally from the same
  information (per-processor progress, outstanding gambles, in-flight
  messages), which is behaviourally equivalent and documented in
  DESIGN.md as a simulation shortcut.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.bayes.network import BayesianNetwork


@dataclass
class RollbackStats:
    """Counters reported by the parallel-sampler experiments."""

    gambles: int = 0
    gamble_hits: int = 0
    rollbacks: int = 0
    nodes_resampled: int = 0
    corrections_sent: int = 0
    corrections_received: int = 0
    #: corrections skipped because a newer version for the same (node, t)
    #: was already applied — nonzero only under message reordering
    stale_corrections: int = 0
    #: whole correction messages discarded as duplicates (same sender
    #: message id seen before) — nonzero only under message duplication
    duplicate_messages: int = 0
    #: cascade-depth distribution: recompute-set size -> rollback count
    #: (the Lubachevsky/Weiss "does optimism pay" quantity; reported by
    #: the repro.obs metrics snapshot as the rb.depth histogram)
    depth_histogram: dict = field(default_factory=dict)

    @property
    def gamble_hit_rate(self) -> float:
        """Fraction of resolved gambles that matched the actual value."""
        resolved = self.gamble_hits + self.rollbacks
        return self.gamble_hits / resolved if resolved else 1.0

    def merge(self, other: "RollbackStats") -> "RollbackStats":
        """Aggregate counters across processors (for result envelopes)."""
        merged_depths = dict(self.depth_histogram)
        for k, v in other.depth_histogram.items():
            merged_depths[k] = merged_depths.get(k, 0) + v
        return RollbackStats(
            gambles=self.gambles + other.gambles,
            gamble_hits=self.gamble_hits + other.gamble_hits,
            rollbacks=self.rollbacks + other.rollbacks,
            nodes_resampled=self.nodes_resampled + other.nodes_resampled,
            corrections_sent=self.corrections_sent + other.corrections_sent,
            corrections_received=self.corrections_received + other.corrections_received,
            stale_corrections=self.stale_corrections + other.stale_corrections,
            duplicate_messages=self.duplicate_messages + other.duplicate_messages,
            depth_histogram=merged_depths,
        )


class GvtOracle:
    """Central GVT floor: the largest iteration t such that every run
    <= t is final everywhere (no unsampled work, no outstanding gamble,
    no in-flight batch or correction touching it)."""

    def __init__(self, n_procs: int):
        self.progress = [0] * n_procs  # iterations fully sampled, per proc
        #: per-proc dict: iteration -> number of unresolved gambles (kept
        #: by ProcessorState.sample_iteration and apply_actual)
        self.pending_gambles: list[dict[int, int]] = [dict() for _ in range(n_procs)]
        #: in-flight message count per lowest-iteration-it-carries
        self.in_flight: dict[int, int] = {}
        #: acknowledgements for messages already fully accounted — nonzero
        #: only when fault injection duplicates a message end to end
        self.duplicate_acks = 0

    # -- processor hooks -------------------------------------------------
    def sampled(self, proc: int, t: int) -> None:
        """Record that ``proc`` committed a sample for iteration ``t``."""
        self.progress[proc] = max(self.progress[proc], t)

    def message_sent(self, min_iter: int) -> None:
        """Account an in-flight message carrying iterations >= ``min_iter``."""
        self.in_flight[min_iter] = self.in_flight.get(min_iter, 0) + 1

    def message_applied(self, min_iter: int) -> None:
        """Retire the in-flight message accounted by :meth:`message_sent`."""
        n = self.in_flight.get(min_iter, 0)
        if n <= 0:
            # a duplicated delivery acking a message the original already
            # cleared: ignoring it keeps the floor conservative (never
            # advanced early) instead of underflowing the count
            self.duplicate_acks += 1
            return
        if n == 1:
            del self.in_flight[min_iter]
        else:
            self.in_flight[min_iter] = n - 1

    # -- the floor --------------------------------------------------------
    def floor(self) -> int:
        """Largest iteration t with every run <= t final everywhere."""
        f = min(self.progress)
        for d in self.pending_gambles:
            if d:
                f = min(f, min(d) - 1)
        if self.in_flight:
            f = min(f, min(self.in_flight) - 1)
        return f


class ProcessorState:
    """One processor's partition view and optimistic sample store."""

    def __init__(
        self,
        net: BayesianNetwork,
        owner: dict[int, int],
        proc: int,
        defaults: dict[int, int],
        query: int,
        obs=None,
    ) -> None:
        self.net = net
        self.n_nodes = net.n_nodes
        self.proc = proc
        self.defaults = defaults
        self.own_nodes = [v for v in net.topo_order if owner[v] == proc]
        #: remote parents feeding this partition: node -> owning proc
        self.remote_parents: dict[int, int] = {}
        for v in self.own_nodes:
            for u in net.nodes[v].parents:
                if owner[u] != proc:
                    self.remote_parents[u] = owner[u]
        #: own nodes with a child on another processor (published)
        self.interface_nodes = sorted(
            v
            for v in self.own_nodes
            if any(owner[c] != proc for c in net.children(v))
        )
        #: procs that read our interface values
        self.readers = sorted(
            {
                owner[c]
                for v in self.interface_nodes
                for c in net.children(v)
                if owner[c] != proc
            }
        )
        #: procs we depend on
        self.writers = sorted(set(self.remote_parents.values()))
        #: own nodes whose value something reads: the query (the
        #: estimator), the interface nodes (published), and every own
        #: parent of a live own node — one reverse-topological pass
        live = {query, *self.interface_nodes}
        for v in reversed(self.own_nodes):
            if v in live:
                live.update(u for u in net.nodes[v].parents if owner[u] == proc)
        self.live = live.intersection(self.own_nodes)
        #: the compiled sampling plan of a run (see :meth:`plan_for`)
        self.plan = self.plan_for(self.own_nodes)
        #: per remote parent, ``(depth, plan)``: ``depth`` own nodes
        #: descend from it (the rollback recompute set, one draw each) and
        #: ``plan`` samples the live ones among them
        self.affected_plan: dict[int, tuple[int, list[tuple]]] = {}
        for u in self.remote_parents:
            desc = net.descendants(u)
            affected = [v for v in self.own_nodes if v in desc]
            self.affected_plan[u] = (len(affected), self.plan_for(affected))

        # optimistic state: every table is keyed by run first, so
        # collect() drops a run with one pop per table
        #: t -> the run's values indexed by node id (None where unused):
        #: its own samples, plus the value each remote parent is believed
        #: to have (the actual, else the gamble)
        self.own_values: dict[int, list] = {}
        self.remote_values: dict[int, dict[int, int]] = {}  # t -> {node: actual}
        self.gambles: dict[int, dict[int, int]] = {}  # t -> {node: assumed}
        self.published_upto = -1
        # correction versioning: each correction we emit for (node, t)
        # carries a per-(node, t) sequence number (the batch publication
        # is implicitly version 0); receivers apply a correction only if
        # its version exceeds the last one applied for that (node, t), so
        # a reordered stale correction can never revert newer state and
        # correction ping-pong cascades are bounded (DESIGN.md §9)
        self.sent_versions: dict[int, dict[int, int]] = {}  # t -> {node: version}
        self.applied_versions: dict[int, dict[int, int]] = {}  # t -> {node: version}
        #: every run <= this has been fossil-collected (see collect)
        self.collected_upto = -1
        self.stats = RollbackStats()
        #: the machine's repro.obs trace bus (None = tracing off)
        self.obs = obs

    def plan_for(self, nodes: list[int]) -> list[tuple]:
        """The compiled sampling plan over ``nodes`` (own nodes in
        topological order): one entry per *live* node, ``(i, node,
        cumulative CPT rows, parents, is_interface)``, where ``i`` is the
        node's draw position — its index in ``nodes``.

        A sampler draws ``len(nodes)`` uniforms and each entry bisects
        draw ``i``, so skipping the dead nodes leaves the random stream,
        and every live value, as if every node were sampled; a dead
        node's slot in the run's list stays ``None``, so a reader of one
        fails loudly.  The sampler walks ``rows`` by the value each parent
        has in the run's list — own samples and believed remote inputs
        alike — and bisects its draw; the loop is inlined at its three
        sites (here twice, ``parallel.sync_iteration``) because a call per
        node is the overhead the plan exists to remove.
        """
        net = self.net
        return [
            (i, v, net.cum_rows[v], net.nodes[v].parents, v in self.interface_nodes)
            for i, v in enumerate(nodes)
            if v in self.live
        ]

    # ------------------------------------------------------------------
    def sample_iteration(self, t: int, rng: np.random.Generator, oracle: GvtOracle) -> None:
        """Sample run ``t`` (optimistically): one draw per own node, a
        value for each live one.

        Each remote parent takes its actual if one has arrived, else its
        default, which opens a gamble on ``(u, t)``: the run is sampled
        once, so each gamble is opened (and counted in ``stats`` and the
        oracle's pending count) exactly once; a rollback recompute reads
        the run's list, never the gamble table.
        """
        vals = [None] * self.n_nodes
        remote = self.remote_values.get(t) or {}
        opened = None
        for u in self.remote_parents:
            val = remote.get(u)
            if val is None:
                if opened is None:
                    opened = self.gambles[t] = {}
                val = opened[u] = self.defaults[u]
            vals[u] = val
        if opened is not None:
            self.stats.gambles += len(opened)
            oracle.pending_gambles[self.proc][t] = len(opened)
        us = rng.random(len(self.own_nodes)).tolist()
        for i, v, rows, parents, _ in self.plan:
            for p in parents:
                rows = rows[vals[p]]
            vals[v] = bisect_right(rows, us[i])
        self.own_values[t] = vals
        oracle.sampled(self.proc, t)

    def apply_actual(
        self,
        u: int,
        t: int,
        value: int,
        rng: np.random.Generator,
        oracle: GvtOracle,
        cause: str = "actual",
        version: int = 0,
    ) -> list[tuple[int, int, int, int]]:
        """Fold an actual remote value in; returns corrections to send.

        Corrections are ``(node, t, new_value, version)`` tuples for our
        own interface nodes whose already-published value for ``t``
        changed; ``version`` is the per-(node, t) sequence number readers
        use to discard stale reordered corrections.  ``cause`` and
        ``version`` only annotate the ``rb.begin`` trace event (what kind
        of message triggered a rollback, and which correction version);
        they never affect the fold itself.
        """
        if t <= self.collected_upto:
            raise self._collected(u, t)
        actuals = self.remote_values.get(t)
        if actuals is None:
            old = None
            self.remote_values[t] = {u: value}
        else:
            old = actuals.get(u)
            actuals[u] = value
        gambled = self.gambles.get(t)
        if gambled and u in gambled:
            gamble = gambled.pop(u)
            # resolve it in the oracle's pending count for the run
            pending = oracle.pending_gambles[self.proc]
            left = pending[t] - 1
            if left:
                pending[t] = left
            else:
                del pending[t]
            if gamble == value:
                self.stats.gamble_hits += 1
                return []
            self.stats.rollbacks += 1
            return self._recompute(u, t, rng, oracle, cause="gamble", version=version)
        if old is not None and old != value:
            # a correction superseding an earlier actual: cascade rollback
            self.stats.rollbacks += 1
            return self._recompute(u, t, rng, oracle, cause=cause, version=version)
        return []

    def fold_correction(
        self,
        u: int,
        t: int,
        value: int,
        version: int,
        rng: np.random.Generator,
        oracle: GvtOracle,
    ) -> list[tuple[int, int, int, int]]:
        """Apply one received correction, discarding stale versions.

        Under reordering a version-``k`` correction can arrive after
        version ``k+1`` for the same ``(u, t)``; applying it would revert
        state to a superseded value and re-trigger the very cascade the
        newer correction settled.  The monotone version filter makes the
        fold idempotent and order-insensitive.
        """
        if t <= self.collected_upto:
            raise self._collected(u, t)
        applied = self.applied_versions.get(t)
        if applied is None:
            applied = self.applied_versions[t] = {}
        if version <= applied.get(u, 0):
            self.stats.stale_corrections += 1
            return []
        applied[u] = version
        return self.apply_actual(
            u, t, value, rng, oracle, cause="correction", version=version
        )

    def _recompute(
        self,
        u: int,
        t: int,
        rng: np.random.Generator,
        oracle: GvtOracle,
        cause: str = "actual",
        version: int = 0,
    ) -> list[tuple[int, int, int, int]]:
        """Resample the descendants of ``u`` for run ``t`` (one draw each,
        a value for each live one); diff publications."""
        vals = self.own_values.get(t)
        if vals is None:
            return []  # not sampled yet; the stored actual will be used
        vals[u] = self.remote_values[t][u]
        depth, affected = self.affected_plan[u]
        stats = self.stats
        stats.nodes_resampled += depth
        stats.depth_histogram[depth] = stats.depth_histogram.get(depth, 0) + 1
        if self.obs is not None:
            # cause ∈ {gamble, actual, correction}; writer = the process
            # owning the triggering input — the parent edge of a cascade
            self.obs.emit(
                "rb.begin", node=self.proc, input=u, iter=t, depth=depth,
                cause=cause, writer=self.remote_parents.get(u, -1), version=version,
            )
        changed: list[tuple[int, int, int, int]] = []
        published = t <= self.published_upto
        sent = None
        us = rng.random(depth).tolist()
        for j, v, rows, parents, is_iface in affected:
            for p in parents:
                rows = rows[vals[p]]
            new = bisect_right(rows, us[j])
            if new != vals[v]:
                vals[v] = new
                if is_iface and published:
                    if sent is None:
                        sent = self.sent_versions.setdefault(t, {})
                    ver = sent.get(v, 0) + 1
                    sent[v] = ver
                    changed.append((v, t, new, ver))
        stats.corrections_sent += len(changed)
        if self.obs is not None:
            self.obs.emit(
                "rb.end", node=self.proc, input=u, iter=t,
                depth=depth, corrections=len(changed),
            )
        return changed

    def iface_snapshot(self, t: int) -> list[int]:
        """Interface-node values for run ``t`` in interface order."""
        vals = self.own_values[t]
        return [vals[v] for v in self.interface_nodes]

    def collect(self, bound: int) -> None:
        """Fossil-collect every run <= ``bound``: pop its value list, its
        gamble entry, its actuals and both its correction-version entries.

        ``bound`` must be a fossil bound: no value for a run at or below it
        can still reach this processor (``parallel.run_parallel_logic_sampling``
        computes it at the query owner's commit).  Collection is monotone —
        a lower bound than one already collected is a no-op — and any later
        touch of a collected run raises ``RuntimeError`` rather than
        silently recreating its state.
        """
        for t in range(self.collected_upto + 1, bound + 1):
            self.own_values.pop(t, None)
            self.remote_values.pop(t, None)
            self.gambles.pop(t, None)
            self.sent_versions.pop(t, None)
            self.applied_versions.pop(t, None)
        if bound > self.collected_upto:
            self.collected_upto = bound

    def _collected(self, u: int, t: int) -> RuntimeError:
        """The error for a value of input ``u`` reaching collected run ``t``."""
        return RuntimeError(
            f"processor {self.proc}: node {u}, run {t} touched after fossil "
            f"collection (bound {self.collected_upto})"
        )
