"""Parallel logic sampling: synchronous, asynchronous, Global_Read.

The belief network is partitioned across processors (§3.2: "a subset of
the network is assigned to each processor"); each processor samples its
own nodes once per run (iteration) and needs the values its *remote
parents* took in the same run.  The three implementations:

SYNCHRONOUS
    Lock-step: a barrier aligns runs and, within each run, interface
    values are exchanged in topological *stages* so every processor
    samples with actual values only.  Pays per-run synchronisation and
    staging latency — the implementation whose drawbacks §3.2 sets out to
    fix.
ASYNCHRONOUS (rollback)
    Never waits: a missing remote value is gambled to be the node's modal
    prior (*default*) value; actual interface values are published every
    run; a failed gamble rolls the affected descendants back and
    corrections (anti-message + corrected value) cascade.  Unthrottled —
    a fast processor strays arbitrarily far ahead, flooding the network
    and accumulating costly rollbacks.
NON_STRICT (Global_Read)
    As asynchronous, but before sampling run ``t`` the processor issues
    ``Global_Read(iface_w, t-1, age)`` on every writer ``w``: it may run
    at most ``age`` runs ahead of its slowest input.  This bounds
    rollback depth and message backlog ("restrict the number of costly
    rollbacks by not allowing any processor to stray far ahead (or to lag
    far behind)") and gives writers room to batch up to ``age`` runs of
    values per message — the update-coalescing the paper credits
    asynchronous DSMs with.

Runs are *committed* to the posterior estimator only below the GVT floor
(:mod:`repro.bayes.rollback`), so all three variants compute the same
statistically valid estimate and differ only in completion time —
matching the paper's premise that asynchrony affects performance, not
correctness.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.bayes.confidence import PosteriorEstimator
from repro.bayes import costs
from repro.bayes.network import BayesianNetwork
from repro.bayes.rollback import GvtOracle, ProcessorState, RollbackStats
from repro.cluster.machine import Machine, MachineConfig
from repro.core.coherence import CoherenceMode
from repro.core.contract import dsm_contract
from repro.core.dsm import Dsm
from repro.core.global_read import GlobalReadStats
from repro.core.location import SharedLocationSpec
from repro.inputs import at_least, check_fields, positive
from repro.obs.metrics import machine_metrics
from repro.sim import CompletionCounter
from repro.partition.metrics import edge_cut as _edge_cut
from repro.partition.multilevel import best_of
from repro.sim import Compute

#: PVM tag for rollback corrections.  Corrections live outside the DSM's
#: aged locations because they revisit *older* iterations, which the
#: monotone-age write rule (correctly) forbids for shared locations.
CORRECTION_TAG = 77

#: commit/CI bookkeeping cadence at the query owner (in runs)
CHECK_EVERY = 32

#: staleness contracts for the interface-value locations (checked by the
#: static coherence analyzer, repro.analysis.coherence).  Optimistic
#: interface batches are gambles that rollback corrections repair, so a
#: missed update is a performance event, never a correctness one —
#: unbounded staleness is tolerable and Global_Read's age only throttles
#: how far a processor may stray.  The synchronous staged exchange is
#: the opposite claim: barrier-separated write/read phases with strict
#: age-0 reads.
dsm_contract(
    "iface.*",
    writers=1,
    age=None,
    tolerance="commutative",
    reason="rollback corrections repair any missed interface update",
)
dsm_contract(
    "ifr.*",
    writers=1,
    age=0,
    tolerance="phase_concurrent",
    reason="synchronous staged exchange: barrier-separated phases, strict reads",
)


@dataclass(frozen=True)
class ParallelLsConfig:
    """One parallel-inference run (one bar of Figure 3)."""

    net: BayesianNetwork
    query: int = at_least(0)
    n_procs: int = at_least(1, default=2)
    mode: CoherenceMode = CoherenceMode.NON_STRICT
    age: int = at_least(0, default=10)
    seed: int = at_least(0, default=0)
    precision: float = positive(below=0.5, default=0.01)
    machine: MachineConfig | None = None
    max_iterations: int = at_least(1, default=50_000)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.query not in self.net.nodes:
            raise KeyError(f"unknown query node {self.query}")


@dataclass
class ParallelLsResult:
    """Measurements of one run (§4.3 metrics)."""

    network: str
    mode: CoherenceMode
    age: int
    n_procs: int
    completion_time: float | None
    converged: bool
    posterior: np.ndarray
    committed_runs: int
    iterations_sampled: list[int]
    edge_cut: float
    rollback: RollbackStats
    gr_stats: GlobalReadStats
    messages_sent: int
    mean_warp: float = 0.0
    #: repro.obs metrics snapshot (plain dict, see repro.obs.metrics)
    metrics: dict = field(default_factory=dict)


class _BnRecorder:
    def __init__(self) -> None:
        self.converged = False
        self.completion_time: float | None = None
        self.posterior: np.ndarray | None = None
        self.committed = 0


def _stage_of(net: BayesianNetwork, owner: dict[int, int]) -> dict[int, int]:
    """stage(v) = cross-partition depth: the number of ownership changes
    along the deepest path into v.  Drives the synchronous exchange."""
    stage: dict[int, int] = {}
    for v in net.topo_order:
        best = 0
        for u in net.nodes[v].parents:
            hop = 1 if owner[u] != owner[v] else 0
            best = max(best, stage[u] + hop)
        stage[v] = best
    return stage


def run_parallel_logic_sampling(
    cfg: ParallelLsConfig, instrument=None
) -> ParallelLsResult:
    """Execute one parallel logic-sampling run on a fresh machine.

    ``instrument``, if given, is called with the freshly built
    :class:`~repro.core.dsm.Dsm` before any process is spawned —
    mirroring :func:`repro.ga.island.run_island_ga`, so the trace
    extractor in :mod:`repro.experiments.traced` attaches the same way to
    both applications.
    """
    net = cfg.net
    mcfg = cfg.machine or MachineConfig(
        n_nodes=cfg.n_procs, seed=cfg.seed, measure_warp=True
    )
    if mcfg.n_nodes != cfg.n_procs:
        raise ValueError("machine node count must equal n_procs")
    machine = Machine(mcfg)
    dsm = Dsm(machine.vm)
    if instrument is not None:
        instrument(dsm)

    skeleton = net.skeleton()
    if cfg.n_procs == 1:
        owner = {v: 0 for v in net.nodes}
    else:
        owner = best_of(skeleton, cfg.n_procs, tries=4, seed=cfg.seed)
    cut = _edge_cut(skeleton, owner)
    defaults = net.default_values(seed=cfg.seed)
    states = [
        ProcessorState(net, owner, p, defaults, cfg.query, obs=machine.kernel.obs)
        for p in range(cfg.n_procs)
    ]
    oracle = GvtOracle(cfg.n_procs)
    recorder = _BnRecorder()
    stage = _stage_of(net, owner)
    q_owner = owner[cfg.query]
    sync = cfg.mode is CoherenceMode.SYNCHRONOUS
    non_strict = cfg.mode is CoherenceMode.NON_STRICT
    # Writers may batch as many runs per message as readers tolerate
    # staleness; sync and fully-async publish every run.
    batch = max(1, min(cfg.age, 16)) if non_strict else 1

    # ---- shared-location declarations ----------------------------------
    if sync:
        # publications: per (writer, stage) the interface nodes at that stage
        sync_pubs: dict[int, dict[int, list[int]]] = {}
        for p, st in enumerate(states):
            by_stage: dict[int, list[int]] = {}
            for v in st.interface_nodes:
                by_stage.setdefault(stage[v], []).append(v)
            sync_pubs[p] = {s: sorted(ns) for s, ns in by_stage.items()}
        # needs: per reader the (writer, stage) pairs it must fetch
        sync_needs: dict[int, set[tuple[int, int]]] = {
            p: {(w, stage[u]) for u, w in states[p].remote_parents.items()}
            for p in range(cfg.n_procs)
        }
        for p, pubs in sync_pubs.items():
            for s, nodes in pubs.items():
                readers = tuple(
                    r for r in range(cfg.n_procs) if r != p and (p, s) in sync_needs[r]
                )
                dsm.register(
                    SharedLocationSpec(
                        f"ifr.{p}.{s}", writer=p, readers=readers,
                        value_nbytes=4 + len(nodes),
                    )
                )
    else:
        #: location name -> the interface nodes its batches carry
        iface_nodes: dict[str, list[int]] = {}
        for p, st in enumerate(states):
            if st.interface_nodes:
                iface_nodes[f"iface.{p}"] = st.interface_nodes
                dsm.register(
                    SharedLocationSpec(
                        f"iface.{p}",
                        writer=p,
                        readers=tuple(st.readers),
                        value_nbytes=8 + batch * (4 + len(st.interface_nodes)),
                    )
                )

    est = PosteriorEstimator(net.nodes[cfg.query].n_values, precision=cfg.precision)
    # Each processor's pending_out: the corrections it has folded but not
    # yet accounted by oracle.message_sent for every reader (a batch stays
    # in it until its last reader's send).  The floor does not see them
    # (DESIGN.md §5), so the fossil bound must.
    outboxes: list[list[tuple[int, int, int, int]]] = [[] for _ in states]

    def fossil_bound(floor: int) -> int:
        """``floor`` lowered below every run an unaccounted correction carries."""
        return min([floor, *(tt - 1 for box in outboxes for (_, tt, _, _) in box)])

    # ---- per-processor process ------------------------------------------
    def processor(p: int):
        st = states[p]
        # the sampling plan grouped by stage: the (writer, stage)
        # publications to fetch first, the stage's own-node count (its
        # draws and its charge), the plan over its nodes, and the
        # interface nodes to publish after
        stages = []
        if sync:
            for s in range(max((stage[v] for v in st.own_nodes), default=0) + 1):
                in_stage = [v for v in st.own_nodes if stage[v] == s]
                stages.append((
                    [ws for ws in sorted(sync_needs[p]) if ws[1] == s - 1],
                    len(in_stage),
                    st.plan_for(in_stage),
                    sync_pubs[p].get(s),
                ))

        def proc(node, task):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=cfg.seed, spawn_key=(101, p))
            )
            dnode = dsm.node(p)
            unpublished: list[int] = []
            pending_out = outboxes[p]
            seen_corrections: set[tuple[int, int]] = set()
            next_commit = 1

            def on_update(locn: str, age: int, entries) -> float:
                """Fold one interface batch into the optimistic state."""
                cost = costs.APPLY_BATCH_BASE
                w_ifaces = iface_nodes[locn]
                for (tt, vals) in entries:
                    cost += costs.APPLY_BATCH_PER_VALUE * len(vals)
                    for u, val in zip(w_ifaces, vals):
                        if u in st.remote_parents:
                            pending_out.extend(
                                st.apply_actual(u, tt, int(val), rng, oracle)
                            )
                oracle.message_applied(entries[0][0])
                return cost

            if not sync:
                dnode.on_update = on_update

            def flush_corrections():
                while pending_out:
                    outs = list(pending_out)
                    min_t = min(tt for (_, tt, _, _) in outs)
                    for r in st.readers:
                        oracle.message_sent(min_t)
                        # 6 bytes per correction on the wire: node id,
                        # iteration delta, value, and the (small) version
                        # counter packed together
                        yield from task.send(
                            r, CORRECTION_TAG, list(outs), 8 + 6 * len(outs)
                        )
                    # corrections folded during the sends wait for the next
                    # batch; this one leaves only once every reader has it
                    del pending_out[: len(outs)]

            def drain_corrections():
                cost = 0.0
                for msg in task.nrecv_all(CORRECTION_TAG):
                    cost += task.consume_cost(msg)
                    # end-to-end dedupe: a duplicated frame can complete
                    # fragment reassembly twice, re-delivering the same
                    # message; re-applying it would double-ack the oracle
                    # and re-trigger settled rollbacks
                    key = (msg.src, msg.msg_id)
                    if key in seen_corrections:
                        st.stats.duplicate_messages += 1
                        continue
                    seen_corrections.add(key)
                    st.stats.corrections_received += len(msg.payload)
                    min_t = min(tt for (_, tt, _, _) in msg.payload)
                    for (u, tt, val, ver) in msg.payload:
                        if u in st.remote_parents:
                            pending_out.extend(
                                st.fold_correction(u, tt, int(val), ver, rng, oracle)
                            )
                    oracle.message_applied(min_t)
                if cost:
                    yield Compute(cost)

            def sync_iteration(t: int):
                """One lock-step run: staged exchange, actual values only."""
                yield from task.barrier(range(cfg.n_procs))
                vals = [None] * st.n_nodes
                for s, (fetch, n_draws, entries, pubs) in enumerate(stages):
                    for w, ws in fetch:
                        copy = yield from dnode.global_read(f"ifr.{w}.{ws}", t, 0)
                        _, arrived = copy.value
                        for u, val in zip(sync_pubs[w][ws], arrived):
                            vals[u] = int(val)
                    if n_draws:
                        us = rng.random(n_draws).tolist()
                        for j, v, rows, parents, _ in entries:
                            for u in parents:
                                rows = rows[vals[u]]
                            vals[v] = bisect_right(rows, us[j])
                        yield Compute(
                            node.cost(
                                costs.SAMPLE_PER_NODE * n_draws,
                                label="sample",
                            )
                        )
                    if pubs is not None:
                        snap = [vals[v] for v in pubs]
                        yield from dnode.write(f"ifr.{p}.{s}", (t, snap), t, 4 + len(snap))
                st.own_values[t] = vals
                oracle.sampled(p, t)

            def optimistic_iteration(t: int):
                """One asynchronous / Global_Read run."""
                if non_strict and t - 1 - cfg.age >= 1:
                    # receiver-driven throttle: stay within `age` runs of
                    # every input's published progress.  Skipped while the
                    # bound is vacuous (t-1-age < 1): Global_Read returns a
                    # *value* and would otherwise block on inputs that are
                    # not even required to exist yet.
                    for w in st.writers:
                        yield from dnode.global_read(f"iface.{w}", t - 1, cfg.age)
                else:
                    yield from dnode.drain()
                yield from drain_corrections()
                st.sample_iteration(t, rng, oracle)
                yield Compute(
                    node.cost(costs.iteration_cost(len(st.own_nodes)), label="sample")
                )
                if st.interface_nodes:
                    unpublished.append(t)
                    if len(unpublished) >= batch or t == cfg.max_iterations:
                        entries = [(tt, st.iface_snapshot(tt)) for tt in unpublished]
                        for _ in st.readers:
                            oracle.message_sent(unpublished[0])
                        yield from dnode.write(
                            f"iface.{p}",
                            entries,
                            t,
                            8 + len(unpublished) * (4 + len(st.interface_nodes)),
                        )
                        st.published_upto = t
                        unpublished.clear()
                yield from flush_corrections()

            t = 0
            for t in range(1, cfg.max_iterations + 1):
                if recorder.converged:
                    break
                if sync and cfg.n_procs > 1:
                    yield from sync_iteration(t)
                else:
                    yield from optimistic_iteration(t)

                if p == q_owner and t % CHECK_EVERY == 0:
                    floor = oracle.floor()
                    added = 0
                    while next_commit <= floor:
                        est.add(st.own_values[next_commit][cfg.query])
                        next_commit += 1
                        added += 1
                    # Time Warp's fossil collection: no value can reach a
                    # run below the bound any more, so every processor
                    # drops its state for those runs
                    bound = fossil_bound(floor)
                    for other in states:
                        other.collect(bound)
                    if st.obs is not None and added:
                        st.obs.emit("gvt.advance", node=p, floor=floor)
                        st.obs.emit(
                            "bn.commit", node=p, runs=added, total=est.n
                        )
                    if added:
                        yield Compute(
                            node.cost(
                                added * costs.COMMIT_PER_ITER + costs.CI_CHECK,
                                label="commit",
                            )
                        )
                        recorder.committed = est.n
                        if est.converged:
                            recorder.converged = True
                            recorder.completion_time = task.vm.kernel.now
                            recorder.posterior = est.posterior.copy()
                            break
            return t

        return proc

    handles = [
        machine.spawn_on(p, processor(p), name=f"bnproc{p}") for p in range(cfg.n_procs)
    ]
    counter = CompletionCounter(handles)
    machine.kernel.run(
        stop_when=lambda: recorder.converged or counter.remaining == 0
    )
    rb = RollbackStats()
    for st in states:
        rb = rb.merge(st.stats)
    return ParallelLsResult(
        network=net.name,
        mode=cfg.mode,
        age=cfg.age,
        n_procs=cfg.n_procs,
        completion_time=recorder.completion_time,
        converged=recorder.converged,
        posterior=recorder.posterior if recorder.posterior is not None else np.array([]),
        committed_runs=recorder.committed,
        iterations_sampled=[oracle.progress[p] for p in range(cfg.n_procs)],
        edge_cut=cut,
        rollback=rb,
        gr_stats=dsm.merged_gr_stats(),
        messages_sent=machine.vm.total_messages(),
        mean_warp=machine.warp.mean_warp if machine.warp else 0.0,
        metrics=machine_metrics(machine, dsm=dsm, rollback=rb),
    )
