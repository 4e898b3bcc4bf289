"""Island-model parallel GA: synchronous, asynchronous and Global_Read.

§3.1/§4.2.1: the population is split into demes, one per node; every
generation each deme broadcasts its best N/2 individuals to all other
demes and replaces its worst individuals with arriving migrants.  The
three implementations differ only in how a deme *obtains* its peers'
migrants — everything else (operators, costs, RNG streams) is shared, so
measured differences are attributable to the coherence mode alone:

=================  ====================================================
SYNCHRONOUS        write migrants → group barrier → ``global_read(g, 0)``
                   per peer (wait for everyone's generation-g migrants)
ASYNCHRONOUS       write migrants → ``read_local`` per peer (whatever
                   copy is present, however stale; never blocks)
NON_STRICT         write migrants → ``global_read(g, age)`` per peer
                   (block only if a peer's copy is older than ``age``
                   generations — the paper's partially asynchronous GA)
=================  ====================================================

Completion metric (§4.3 / §5.1.1): the simulated time at which any deme's
best-so-far first reaches the convergence target (the serial baseline's
final best), measured over a capped number of generations.  The paper
equivalently runs the asynchronous/controlled versions "for enough
generations so that the subpopulation converged further than the
synchronous version".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.machine import Machine, MachineConfig
from repro.core.coherence import CoherenceMode, UpdatePolicy
from repro.core.contract import dsm_contract
from repro.core.dsm import Dsm
from repro.core.dynamic_age import MAX_AGE
from repro.core.global_read import GlobalReadStats
from repro.core.location import SharedLocationSpec
from repro.ga.costs import INCORPORATE_PER_MIGRANT, generation_cost
from repro.ga.encoding import BinaryEncoding
from repro.ga.fitness_cache import FitnessCache
from repro.ga.functions import TestFunction, reseed_f4
from repro.ga.operators import GaParams, evolve_one_generation
from repro.ga.population import Population
from repro.ga.topology import TOPOLOGIES, wiring
from repro.inputs import at_least, check_fields, one_of, unconstrained
from repro.obs.metrics import machine_metrics
from repro.sim import CompletionCounter, Compute

#: staleness contract for the migrant-exchange locations.  Incorporation
#: is pure selection (pool immigrants, stable argsort, replace_worst):
#: order- and staleness-insensitive, so arbitrarily stale copies are
#: algorithmically tolerable — the asynchronous mode reads them with no
#: bound by design, and Global_Read's age only trades convergence speed
#: for blocking.  The static coherence analyzer checks this claim
#: against the source (see repro.analysis.coherence).
dsm_contract(
    "migrants.*",
    writers=1,
    age=None,
    tolerance="commutative",
    reason="selection-based migrant incorporation is order/staleness-insensitive",
)

#: emigrants per generation = MIGRATION_FRACTION * N (the paper's N/2)
MIGRATION_FRACTION = 0.5


@dataclass(frozen=True)
class IslandGaConfig:
    """One island-GA run (a single trial of one bar of Figure 2/4)."""

    fn: TestFunction
    n_demes: int = at_least(1)
    mode: CoherenceMode
    age: int = at_least(0, default=0)
    n_generations: int = at_least(0, default=300)
    seed: int = at_least(0, default=0)
    params: GaParams = field(default_factory=GaParams)
    machine: MachineConfig | None = None
    #: convergence target (serial baseline's final best); None = run all
    #: generations and only record quality
    target: float | None = unconstrained(
        "a fitness level: any value, and a target never met runs every generation",
        default=None,
    )
    #: DSM write-propagation policy (EAGER = the paper's direct sends;
    #: COALESCE = Mermera-style sender buffering, ablation A3)
    update_policy: UpdatePolicy = UpdatePolicy.EAGER
    #: adapt the Global_Read age at runtime (§6 future work); when set,
    #: ``age`` is the controller's initial value.  NON_STRICT only: the
    #: other modes have no age to adapt
    dynamic_age: bool = False
    #: migration topology (see repro.ga.topology); "all" reproduces the
    #: paper's all-to-all exchange bit-identically
    topology: str = one_of(TOPOLOGIES, default="all")

    def __post_init__(self) -> None:
        check_fields(self)
        if self.dynamic_age and self.mode is not CoherenceMode.NON_STRICT:
            raise ValueError(
                f"IslandGaConfig.dynamic_age adapts a Global_Read age, but "
                f"IslandGaConfig.mode={self.mode.name} has none (use NON_STRICT)"
            )
        if self.dynamic_age and self.age > MAX_AGE:
            raise ValueError(f"IslandGaConfig.age must be <= {MAX_AGE} (the controller's "
                             f"MAX_AGE) when IslandGaConfig.dynamic_age is set, got {self.age}")


@dataclass
class IslandGaResult:
    """Measurements of one run (the paper's §4.3 metrics)."""

    mode: CoherenceMode
    age: int
    n_demes: int
    fid: int
    #: simulated time at which the target was first reached (None = never)
    completion_time: float | None
    #: simulated time when the run stopped (target hit or all generations)
    total_time: float
    #: generation at which the target was reached, per the winning deme
    generations_to_target: int | None
    best_fitness: float
    mean_fitness: float
    per_deme_best: list[float] = field(default_factory=list)
    generations_run: list[int] = field(default_factory=list)
    messages_sent: int = 0
    mean_warp: float = 0.0
    max_warp: float = 0.0
    network_utilization: float = 0.0
    gr_stats: GlobalReadStats = field(default_factory=GlobalReadStats)
    #: repro.obs metrics snapshot (plain dict, see repro.obs.metrics)
    metrics: dict = field(default_factory=dict)

    def digest_fields(self) -> list:
        """The simulated-side observables a pinned digest covers, in order.

        :mod:`repro.check` hashes these against its golden table and the
        sharded run's cross-shard tripwire hashes them per shard.  The
        warp pair comes last because the chaos rows, pinned before warp
        was measured on those machines, leave it out.
        """
        return [
            self.completion_time,
            self.total_time,
            self.best_fitness,
            self.mean_fitness,
            [float(b) for b in self.per_deme_best],
            list(self.generations_run),
            self.messages_sent,
            self.mean_warp,
            self.max_warp,
        ]


class _Recorder:
    """Tracks per-deme progress and the global time-to-target."""

    def __init__(self, target: float | None):
        self.target = target
        self.target_time: float | None = None
        self.target_generation: int | None = None
        self.best: dict[int, float] = {}
        self.mean: dict[int, float] = {}
        self.generations: dict[int, int] = {}

    def report(self, deme: int, gen: int, best: float, mean: float, now: float) -> None:
        self.best[deme] = min(best, self.best.get(deme, np.inf))
        self.mean[deme] = mean
        self.generations[deme] = gen
        if (
            self.target is not None
            and self.target_time is None
            and best <= self.target
        ):
            self.target_time = now
            self.target_generation = gen

    @property
    def done(self) -> bool:
        return self.target is not None and self.target_time is not None


class _GaPlan:
    """What every deme of one run shares, built once in :func:`_run_island`.

    The one definition of the migrant geometry (``n_mig`` emigrants of
    ``enc.nbytes`` packed bytes plus an 8-byte fitness each), the
    encoding with its decode weights, the migration wiring and the
    crossover column index; :mod:`repro.ga.sharded` reads the same one.
    """

    def __init__(self, cfg: IslandGaConfig) -> None:
        self.cfg = cfg
        self.enc = BinaryEncoding.for_function(cfg.fn)
        self.n_mig = max(1, int(round(MIGRATION_FRACTION * cfg.params.population_size)))
        self.migrant_nbytes = self.n_mig * (self.enc.nbytes + 8)
        self.cols = np.arange(self.enc.length)
        #: in-peers of every deme, and the DSM reader set of every
        #: ``migrants.<d>`` (their inverse)
        self.peers, self.readers = wiring(cfg.topology, cfg.n_demes)

    def evaluate(self, genomes: np.ndarray) -> np.ndarray:
        """Objective values of an ``(n, L)`` genome array (uncached)."""
        return self.cfg.fn(self.enc.decode(genomes))


class _LocalDeme:
    """Authoritative deme computation (the serial path and owner shards).

    The heavy, non-simulated work of one deme — fitness evaluation,
    ``evolve_one_generation``, migrant extraction, incorporation — lives
    behind this small interface so a sharded run can swap in a ghost
    implementation (:mod:`repro.ga.sharded`) that replays records from
    the owning shard instead of recomputing.  The simulated side of the
    process (Compute charges, DSM traffic, barriers, Global_Reads) is
    identical either way, which is what keeps sharded event streams
    bit-identical to serial.

    Every method is a pure reordering of the original inline code: all
    numpy work still happens between the same two kernel events it did
    before the refactor (pinned by the GOLDEN digests).
    """

    def __init__(self, plan: _GaPlan, deme: int) -> None:
        cfg = plan.cfg
        self.plan = plan
        self.deme = deme
        self.rng = np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(cfg.fn.fid, deme))
        )
        self.cache = FitnessCache(plan.evaluate, enabled=not cfg.fn.noisy)
        self.pop: Population | None = None
        self.best_so_far = float("inf")

    def _adopt(self, pop: Population, misses_before: int) -> tuple:
        """Adopt ``pop``; returns (cost_s, best, mean, migrants)."""
        cfg = self.plan.cfg
        self.pop = pop
        cost = generation_cost(cfg.fn, pop.size, self.cache.misses - misses_before)
        self.best_so_far = min(self.best_so_far, pop.best_fitness)
        migrants = pop.best_individuals(self.plan.n_mig)
        return cost, self.best_so_far, pop.mean_fitness, migrants

    def start(self) -> tuple[float, float, float, tuple]:
        """Initial population + evaluation; returns (cost_s, best, mean, migrants)."""
        plan = self.plan
        genomes = plan.enc.random_population(
            plan.cfg.params.population_size, self.rng
        )
        return self._adopt(Population(genomes, self.cache(genomes)), 0)

    def evolve(self, g: int) -> tuple[float, float, float, tuple]:
        """One generation of evolution; returns (cost_s, best, mean, migrants)."""
        plan = self.plan
        misses_before = self.cache.misses
        pop = evolve_one_generation(self.pop, self.cache, self.rng, plan.cols)
        return self._adopt(pop, misses_before)

    def incorporate(self, pool_g: np.ndarray, pool_f: np.ndarray) -> tuple[float, float]:
        """Install the best arrivals; returns post-incorporation (best, mean)."""
        pop = self.pop
        order = pool_f.argsort(kind="stable")[: self.plan.n_mig]
        pop.replace_worst(pool_g[order], pool_f[order])
        self.best_so_far = min(self.best_so_far, pop.best_fitness)
        return self.best_so_far, pop.mean_fitness

    def finish(self) -> float:
        """The deme's final best-so-far (the process return value)."""
        return self.best_so_far


def _deme_process(plan: _GaPlan, dsm: Dsm, deme: int, recorder: _Recorder, model=None):
    """Build the simulated process for one deme.

    ``model`` is the execution-model factory: ``(plan, deme) ->`` an
    object with the :class:`_LocalDeme` interface.  ``None`` (the serial
    default) computes locally; :mod:`repro.ga.sharded` substitutes
    owner/ghost implementations for sharded runs.
    """
    cfg = plan.cfg
    peers = plan.peers[deme]
    # only the synchronous barrier needs the full group; materialising it
    # per deme is O(n_demes^2) across the run — ruinous at 4096 demes
    group = (
        range(cfg.n_demes) if cfg.mode is CoherenceMode.SYNCHRONOUS else None
    )
    migrant_nbytes = plan.migrant_nbytes

    def proc(node, task):
        exec_ = (model or _LocalDeme)(plan, deme)
        dnode = dsm.node(deme)
        age_ctl = None
        if cfg.dynamic_age:
            from repro.core.dynamic_age import DynamicAgeController

            age_ctl = DynamicAgeController(initial_age=cfg.age)
        cost, best, mean, (mg, mf) = exec_.start()
        yield Compute(node.cost(cost))
        recorder.report(deme, 0, best, mean, task.vm.kernel.now)

        # generation-0 emigrants so nobody blocks on a missing first copy
        yield from dnode.write(f"migrants.{deme}", (mg, mf), 0, migrant_nbytes)

        for g in range(1, cfg.n_generations + 1):
            cost, best, mean, (mg, mf) = exec_.evolve(g)
            yield Compute(node.cost(cost, label="evolve"))
            recorder.report(deme, g, best, mean, task.vm.kernel.now)

            # emigrate this generation's best
            yield from dnode.write(f"migrants.{deme}", (mg, mf), g, migrant_nbytes)

            # immigrate according to the coherence mode
            if cfg.mode is CoherenceMode.SYNCHRONOUS and cfg.n_demes > 1:
                yield from task.barrier(group)
            arrivals: list[tuple[np.ndarray, np.ndarray]] = []
            for p in peers:
                locn = f"migrants.{p}"
                if cfg.mode is CoherenceMode.ASYNCHRONOUS:
                    copy = yield from dnode.read_local(locn)
                elif cfg.mode is CoherenceMode.SYNCHRONOUS:
                    copy = yield from dnode.global_read(locn, g, 0)
                elif age_ctl is not None:
                    blocked_before = dnode.gr_stats.blocked
                    copy = yield from dnode.global_read(locn, g, age_ctl.age)
                    age_ctl.observe(
                        dnode.gr_stats.blocked > blocked_before,
                        max(0, g - copy.age),
                    )
                else:
                    copy = yield from dnode.global_read(locn, g, cfg.age)
                if copy is not None:
                    arrivals.append(copy.value)
            if arrivals:
                pool_g = np.concatenate([a[0] for a in arrivals], axis=0)
                pool_f = np.concatenate([a[1] for a in arrivals], axis=0)
                yield Compute(
                    node.cost(
                        INCORPORATE_PER_MIGRANT * pool_f.size,
                        label="incorporate",
                    )
                )
                best, mean = exec_.incorporate(pool_g, pool_f)
                recorder.report(deme, g, best, mean, task.vm.kernel.now)
        return exec_.finish()

    return proc


def run_island_ga(
    cfg: IslandGaConfig,
    instrument=None,
    shards: int = 1,
    trace_path: str | None = None,
) -> IslandGaResult:
    """Execute one island-GA run on a freshly built machine.

    ``instrument``, if given, is called with the freshly built
    :class:`~repro.core.dsm.Dsm` before any process is spawned — the
    trace readers reach the run's bus (``dsm.vm.kernel.obs``) this way
    without perturbing the run.

    ``shards > 1`` executes the run on the bounded-lag parallel kernel
    (:mod:`repro.sim.parallel`): worker processes each replay the full
    event stream but only compute the demes they own, so the result is
    bit-identical to serial (DESIGN.md §13).  Falls back to serial —
    with the reason recorded under ``result.metrics["parallel"]`` —
    when the run cannot shard (noisy fitness function, single deme,
    instrument hook) or worker processes cannot start.

    ``trace_path`` is where a sharded run writes its merged JSONL trace
    (the per-shard traces land beside it); a serial run is traced
    through ``MachineConfig.trace`` instead.
    """
    if shards < 2:
        if trace_path is not None:
            raise ValueError(
                "trace_path is the merged-trace destination of a sharded run; "
                "trace a serial run with MachineConfig(trace=True)"
            )
        return _run_island(cfg, instrument)
    from repro.ga.sharded import GaShardScenario
    from repro.sim.parallel.coordinator import run_sharded

    run = run_sharded(
        GaShardScenario(cfg, instrument), shards, seed=cfg.seed, trace_path=trace_path
    )
    run.result.metrics["parallel"] = run.info()
    return run.result


def _run_island(
    cfg: IslandGaConfig, instrument=None, deme_model=None
) -> IslandGaResult:
    """One run on this process's kernel: the serial path and every shard replica.

    ``deme_model`` is the execution-model hook of the sharded workers;
    see :func:`_deme_process`.
    """
    mcfg = cfg.machine or MachineConfig(n_nodes=cfg.n_demes, seed=cfg.seed, measure_warp=True)
    if mcfg.n_nodes != cfg.n_demes:
        raise ValueError(
            f"machine has {mcfg.n_nodes} nodes but the run wants {cfg.n_demes} demes"
        )
    reseed_f4(cfg.seed * 8 + cfg.fn.fid)
    machine = Machine(mcfg)
    dsm = Dsm(machine.vm, update_policy=cfg.update_policy)
    if instrument is not None:
        instrument(dsm)
    plan = _GaPlan(cfg)
    for d in range(cfg.n_demes):
        dsm.register(
            SharedLocationSpec(
                f"migrants.{d}",
                writer=d,
                readers=plan.readers[d],
                value_nbytes=plan.migrant_nbytes,
            )
        )
    recorder = _Recorder(cfg.target)
    handles = [
        machine.spawn_on(
            d, _deme_process(plan, dsm, d, recorder, model=deme_model), name=f"deme{d}"
        )
        for d in range(cfg.n_demes)
    ]
    counter = CompletionCounter(handles)
    machine.kernel.run(
        stop_when=lambda: recorder.done or counter.remaining == 0
    )
    total_time = machine.kernel.now
    return IslandGaResult(
        mode=cfg.mode,
        age=cfg.age,
        n_demes=cfg.n_demes,
        fid=cfg.fn.fid,
        completion_time=recorder.target_time,
        total_time=total_time,
        generations_to_target=recorder.target_generation,
        best_fitness=min(recorder.best.values()),
        mean_fitness=float(np.mean(list(recorder.mean.values()))),
        # a deme that had not reported when the target stopped the
        # simulation contributes inf/0 (it did no measurable work yet)
        per_deme_best=[recorder.best.get(d, np.inf) for d in range(cfg.n_demes)],
        generations_run=[recorder.generations.get(d, 0) for d in range(cfg.n_demes)],
        messages_sent=machine.vm.total_messages(),
        mean_warp=machine.warp.mean_warp if machine.warp else 0.0,
        max_warp=machine.warp.max_warp if machine.warp else 0.0,
        network_utilization=machine.network.stats.utilization(total_time),
        gr_stats=dsm.merged_gr_stats(),
        metrics=machine_metrics(machine, dsm=dsm),
    )
