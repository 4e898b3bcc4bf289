"""Sharded island GA on the bounded-lag parallel kernel.

This is the island GA's adapter for :mod:`repro.sim.parallel`: every
shard worker runs the *complete* simulated cluster (kernel, network,
PVM, DSM, all deme processes — the replicated event stream of
DESIGN.md §13) but performs the heavy numpy work (population
initialisation, ``evolve_one_generation``, fitness evaluation, migrant
incorporation) only for the demes its shard owns.  Non-owned demes run
as *ghosts*: the same simulated process, but the compute step replays a
:class:`~repro.sim.parallel.records.GenRecord` published by the owning
shard instead of recomputing — same cost charged, same best/mean
reported, same migrant payload written to the DSM.

Because the simulated side is untouched, a sharded run is bit-identical
to serial: ``python -m repro.check`` holds every GA row of the golden
table to its pin at each shard count in {1, 2, 4} the row's deme count
allows.

Runs that cannot shard fall back to serial gracefully, with the reason
recorded under ``result.metrics["parallel"]["fallback"]``:

* noisy fitness (f4) — demes interleave draws from one module-level
  RNG, so partitioned compute cannot replay the serial draw order;
* a single deme — nothing to partition;
* an ``instrument`` hook — a live closure cannot cross the process
  boundary to the workers;
* worker processes unavailable on the platform.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.cluster.machine import MachineConfig
from repro.ga.island import (
    IslandGaConfig,
    IslandGaResult,
    _GaPlan,
    _LocalDeme,
    _run_island,
)
from repro.ga.topology import comm_graph
from repro.sim.parallel.records import GenRecord, ShardOutcome
from repro.util.digest import digest_values


class _OwnerDeme:
    """Authoritative deme on its owning shard: compute, then publish.

    Wraps :class:`~repro.ga.island._LocalDeme` and ships each step's
    outputs (cost, best, mean, migrant payload) to the coordinator for
    the ghost replicas on other shards.  Publication happens *between*
    simulated events — it costs wall time only, never simulated time —
    and the bounded-lag gate inside ``publish`` is what keeps this shard
    within ``lag_bound`` of the distributed floor.
    """

    def __init__(self, plan: _GaPlan, deme: int, feed) -> None:
        self._local = _LocalDeme(plan, deme)
        self.deme = deme
        self.feed = feed
        self._gen = 0

    def start(self):
        """Compute the initial population step and publish its record."""
        cost, best, mean, mig = self._local.start()
        self.feed.publish(
            GenRecord("start", self.deme, 0, cost, best, mean, mig)
        )
        return cost, best, mean, mig

    def evolve(self, g: int):
        """Compute generation ``g`` and publish its record."""
        cost, best, mean, mig = self._local.evolve(g)
        self._gen = g
        self.feed.publish(
            GenRecord("evolve", self.deme, g, cost, best, mean, mig)
        )
        return cost, best, mean, mig

    def incorporate(self, pool_g: np.ndarray, pool_f: np.ndarray):
        """Incorporate arrivals and publish the post-incorporation stats."""
        best, mean = self._local.incorporate(pool_g, pool_f)
        self.feed.publish(GenRecord("inc", self.deme, self._gen, 0.0, best, mean))
        return best, mean

    def finish(self) -> float:
        """The deme's final best-so-far."""
        return self._local.finish()


class _GhostDeme:
    """Replica of a deme owned elsewhere: replay records, never compute.

    Consumes the owner's records strictly in publication order; a
    kind/generation mismatch means the shards' event streams diverged
    and raises immediately (the coordinator surfaces the traceback).
    The deme's simulated process is otherwise identical to the owner's
    — it charges the same Compute cost, writes the same migrant payload
    to the DSM and reports the same best/mean to the recorder.
    """

    def __init__(self, plan: _GaPlan, deme: int, feed) -> None:
        self.deme = deme
        self.feed = feed
        self.best_so_far = float("inf")
        self._gen = 0

    def _next(self, kind: str, gen: int) -> GenRecord:
        rec = self.feed.consume(self.deme)
        if rec.kind != kind or rec.gen != gen:
            raise RuntimeError(
                f"ghost deme {self.deme} record stream diverged: expected "
                f"({kind!r}, gen {gen}), got ({rec.kind!r}, gen {rec.gen}) — "
                "shards are not replaying the identical event stream"
            )
        return rec

    def start(self):
        """Replay the initial population step from the owner's record."""
        rec = self._next("start", 0)
        self.best_so_far = rec.best
        return rec.cost, rec.best, rec.mean, rec.payload

    def evolve(self, g: int):
        """Replay generation ``g`` from the owner's record."""
        rec = self._next("evolve", g)
        self._gen = g
        self.best_so_far = rec.best
        return rec.cost, rec.best, rec.mean, rec.payload

    def incorporate(self, pool_g: np.ndarray, pool_f: np.ndarray):
        """Replay the post-incorporation stats from the owner's record."""
        rec = self._next("inc", self._gen)
        self.best_so_far = rec.best
        return rec.best, rec.mean

    def finish(self) -> float:
        """The deme's final best-so-far, as replayed."""
        return self.best_so_far


class GaShardScenario:
    """The island GA rendered as a :func:`repro.sim.parallel.run_sharded`
    scenario: units are demes, the communication graph is the all-to-all
    migrant exchange, and the shard executor swaps owner/ghost deme
    models into the island run.  ``instrument`` is the caller's
    ``run_island_ga`` hook: a live closure cannot cross the process
    boundary, so a run that has one is not shardable.
    """

    def __init__(self, cfg: IslandGaConfig, instrument=None) -> None:
        self.cfg = cfg
        self.instrument = instrument

    # -- coordinator-side protocol -------------------------------------
    def units(self) -> int:
        """Partitionable units: one per deme."""
        return self.cfg.n_demes

    def comm_graph(self):
        """Migrant-exchange graph under the run's migration topology.

        All-to-all gives the historical complete graph; structured
        topologies (ring/torus/hierarchical/random) give the partitioner
        a sparse graph it can actually cut well, so neighbouring demes
        land on the same shard and cross-shard record traffic shrinks.
        """
        plan = _GaPlan(self.cfg)
        return comm_graph(plan.peers, plan.migrant_nbytes)

    def machine_config(self) -> MachineConfig:
        """The machine the run will build (for lookahead extraction)."""
        return self.cfg.machine or MachineConfig(
            n_nodes=self.cfg.n_demes, seed=self.cfg.seed, measure_warp=True
        )

    def shardable(self) -> tuple[bool, str]:
        """Whether partitioned compute can replay the serial run exactly."""
        if self.cfg.fn.noisy:
            return (
                False,
                "noisy fitness function: demes interleave draws from a "
                "shared RNG, so partitioned compute cannot replay the "
                "serial draw order",
            )
        if self.cfg.n_demes < 2:
            return False, "single deme: nothing to partition"
        if self.instrument is not None:
            return False, "instrument hook cannot cross the process boundary"
        return True, ""

    def run_serial(self) -> IslandGaResult:
        """The graceful fallback: the ordinary serial run."""
        return _run_island(self.cfg, self.instrument)

    # -- worker-side executor ------------------------------------------
    def run_shard(self, ctx) -> ShardOutcome:
        """Run this shard's replica of the full cluster (worker process)."""
        cfg = self.cfg
        if ctx.trace_path is not None:
            cfg = replace(cfg, machine=replace(self.machine_config(), trace=True))

        holder: dict = {}

        def grab(dsm) -> None:
            holder["dsm"] = dsm
            ctx.feed.bind_clock(lambda: dsm.vm.kernel.now)

        owned = ctx.plan.owned_by(ctx.shard_id)

        def model(plan: _GaPlan, deme: int):
            if deme in owned:
                return _OwnerDeme(plan, deme, ctx.feed)
            return _GhostDeme(plan, deme, ctx.feed)

        result = _run_island(cfg, instrument=grab, deme_model=model)

        kernel = holder["dsm"].vm.kernel
        injector = getattr(holder["dsm"].vm.network, "fault_injector", None)
        fault_log = injector.log.digest_fields() if injector is not None else []

        trace_path = None
        if ctx.trace_path is not None and kernel.obs is not None:
            kernel.obs.write_jsonl(ctx.trace_path)
            trace_path = ctx.trace_path

        return ShardOutcome(
            shard_id=ctx.shard_id,
            digest=digest_values(
                result.digest_fields(),
                list(fault_log),
                float(kernel.now),
                int(kernel.events_executed),
            ),
            clock=float(kernel.now),
            events=int(kernel.events_executed),
            result=result,
            fault_log=fault_log,
            trace_path=trace_path,
        )
