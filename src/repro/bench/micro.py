"""Kernel and application microbenchmarks.

Four rates anchor the perf trajectory:

* ``kernel_events_per_sec`` — raw discrete-event throughput on a mixed
  workload (same-instant resumptions, timed computes, signal wakeups,
  cooperative yields, joins) that exercises every kernel fast path;
* ``ga_generations_per_sec`` — the serial GA baseline, numpy-bound;
* ``bayes_samples_per_sec`` — serial logic sampling, numpy-bound;
* ``bayes_parallel_samples_per_sec`` — the parallel samplers' per-node
  path (forward samples plus rollback resamples) on the golden
  Global_Read run, simulator and all.

All workloads are deterministic (fixed seeds, no wall-clock dependence in
the *simulated* results); only the measured wall time varies run to run,
which is why :func:`repro.bench.harness.timed` keeps the best of
``repeat``.
"""

from __future__ import annotations

from repro.bench.harness import timed
from repro.ga.functions import get_function
from repro.ga.sga import run_serial_ga
from repro.sim import CompletionCounter, Compute, Join, Kernel, Signal, WaitSignal, Yield

#: the mixed kernel workload :func:`bench_kernel` times
KERNEL_WORKERS, KERNEL_STEPS = 40, 300


def build_kernel_workload(n_workers: int, n_steps: int) -> Kernel:
    """A finite mixed workload touching every kernel scheduling path.

    Every process marks ``kernel.obs`` (kind ``bench.step``: its name and
    step) before each of its yields, so with a bus attached every executed
    event leaves exactly one record — that mark, or the kernel's
    ``proc.done`` for a final resumption.  That trace is what
    :func:`repro.check.kernel_trace_digest` hashes.
    """
    kernel = Kernel(seed=1)
    tick = Signal("tick")
    n_fires = n_steps // 4

    def mark(name: str, step: int) -> None:
        if kernel.obs is not None:
            kernel.obs.emit("bench.step", name=name, step=step)

    def worker(name: str, i: int):
        for s in range(n_steps):
            mark(name, s)
            yield Compute(0.0005 * ((i + s) % 7))  # mixes 0.0 and timed
            if (s & 15) == 0:
                mark(name, s)
                yield Yield()

    def ticker():
        for s in range(n_fires):
            mark("ticker", s)
            yield Compute(0.004)
            tick.fire()

    def listener(name: str):
        for s in range(n_fires):
            mark(name, s)
            yield WaitSignal(tick)
            mark(name, s)
            yield Compute(0.0001)

    def joiner(handle):
        mark("joiner", 0)
        result = yield Join(handle)
        return result

    handles = [kernel.spawn(worker(f"w{i}", i), name=f"w{i}") for i in range(n_workers)]
    kernel.spawn(ticker(), name="ticker")
    for j in range(4):
        kernel.spawn(listener(f"l{j}"), name=f"l{j}")
    kernel.spawn(joiner(handles[0]), name="joiner")
    return kernel


def bench_kernel(repeat: int = 3) -> dict:
    """Events/sec of the mixed workload, driven the way every application
    drives the kernel: ``run(stop_when=counter.all_done)``."""

    def one_run() -> int:
        kernel = build_kernel_workload(KERNEL_WORKERS, KERNEL_STEPS)
        kernel.run(stop_when=CompletionCounter(kernel.processes).all_done)
        return kernel.events_executed

    events, best_s = timed(one_run, repeat=repeat)
    return {
        "kernel_events": float(events),
        "kernel_wall_s": best_s,
        "kernel_events_per_sec": events / best_s,
    }


def bench_ga(repeat: int = 2) -> dict:
    """Serial-GA generations/sec (the numpy-bound application hot loop)."""
    n_generations = 150
    _, best_s = timed(
        run_serial_ga,
        get_function(1),
        repeat=repeat,
        seed=0,
        n_generations=n_generations,
        population_size=100,
    )
    return {
        "ga_generations": float(n_generations),
        "ga_wall_s": best_s,
        "ga_generations_per_sec": n_generations / best_s,
    }


def bench_bayes(repeat: int = 2) -> dict:
    """Logic-sampling rates: the serial batch sampler on one Table 2
    network, and node samples/sec of the golden parallel run."""
    from repro.bayes.logic_sampling import run_serial_logic_sampling
    from repro.bayes.parallel import run_parallel_logic_sampling
    from repro.check import golden_bayes
    from repro.experiments.table2 import build_network, pick_query

    net = build_network("Hailfinder")
    query = pick_query(net, seed=0)
    result, best_s = timed(
        run_serial_logic_sampling, net, repeat=repeat, query=query, seed=7
    )
    cfg = golden_bayes()
    par, par_s = timed(run_parallel_logic_sampling, cfg, repeat=repeat)
    # whole runs every processor sampled, plus every rollback resample
    node_samples = (
        min(par.iterations_sampled) * cfg.net.n_nodes + par.rollback.nodes_resampled
    )
    return {
        "bayes_network": "Hailfinder",
        "bayes_samples": float(result.n_runs),
        "bayes_wall_s": best_s,
        "bayes_samples_per_sec": result.n_runs / best_s,
        "bayes_parallel_node_samples": float(node_samples),
        "bayes_parallel_wall_s": par_s,
        "bayes_parallel_samples_per_sec": node_samples / par_s,
    }


def _faulted_traffic_kernel(plan) -> Kernel:
    """A dense frame mill, optionally under a fault plan."""
    from repro.faults.injectors import install_faults
    from repro.network.ethernet import EthernetNetwork
    from repro.network.frame import Frame

    n_nodes, n_rounds = 8, 250
    kernel = Kernel(seed=13)
    net = EthernetNetwork(kernel)
    for i in range(n_nodes):
        net.attach(i, lambda f: None)
    if plan is not None:
        install_faults(kernel, net, [], plan)

    def send_round(r: int) -> None:
        for i in range(n_nodes):
            net.adapters[i].send(
                Frame(src=i, dst=(i + 1 + r % (n_nodes - 1)) % n_nodes,
                      size_bytes=256)
            )
        if r + 1 < n_rounds:
            kernel.schedule(0.3e-3, send_round, r + 1)

    kernel.schedule(0.0, send_round, 0)
    return kernel


def bench_faulted_kernel(repeat: int = 3) -> dict:
    """Events/sec with the message-fault injector in the delivery path.

    Two runs of the same frame mill: clean (no injector installed) and
    under a mixed drop/duplicate/delay/reorder plan.  The overhead ratio
    is the cost of chaos-mode simulation — the injector's dice roll plus
    the extra events duplicates/delays/reorders schedule.
    """
    from repro.faults.plan import FaultPlan

    plan = FaultPlan.parse("drop=0.05,dup=0.05,delay=0.05,reorder=0.05,seed=13")

    def one_run(p) -> int:
        kernel = _faulted_traffic_kernel(p)
        kernel.run()
        return kernel.events_executed

    clean_events, clean_s = timed(one_run, None, repeat=repeat)
    faulted_events, faulted_s = timed(one_run, plan, repeat=repeat)
    clean_eps = clean_events / clean_s
    faulted_eps = faulted_events / faulted_s
    return {
        "faulted_kernel_events": float(faulted_events),
        "faulted_kernel_wall_s": faulted_s,
        "faulted_kernel_events_per_sec": faulted_eps,
        "clean_kernel_events_per_sec": clean_eps,
        "fault_overhead_ratio": clean_eps / faulted_eps,
    }


def bench_obs(repeat: int = 2) -> dict:
    """Tracing + causal-analysis overhead on a small parallel GA run.

    Two timings of the same 2-deme island-GA run (the golden GA):
    tracing off vs on — the ratio prices the obs hooks on the
    simulation's hot paths (``if obs is not None`` guards plus event
    appends).  Span building is timed separately over the traced run's
    events (build + attribute + critical path), since the causal layer
    runs offline, after the simulation.
    """
    from repro.check import golden_ga
    from repro.experiments.traced import traced_trial
    from repro.ga.island import run_island_ga
    from repro.obs.causal import attribute, build_spans, critical_path

    def one_run(trace: bool):
        return traced_trial(run_island_ga, golden_ga(trace=trace)).bus

    _, off_s = timed(one_run, False, repeat=repeat)
    bus, on_s = timed(one_run, True, repeat=repeat)
    events = list(bus.events)

    def analyse() -> int:
        g = build_spans(events)
        attribute(g)
        critical_path(g)
        return g.events

    n_events, span_s = timed(analyse, repeat=repeat)
    return {
        "obs_trace_events": float(n_events),
        "obs_off_wall_s": off_s,
        "obs_on_wall_s": on_s,
        "obs_overhead_ratio": on_s / off_s,
        "obs_span_build_wall_s": span_s,
        "obs_span_build_events_per_sec": n_events / span_s,
    }


def run_micro(repeat: int = 2) -> dict:
    """The full micro suite as one flat dict (the BENCH ``micro`` block)."""
    out: dict = {}
    out.update(bench_kernel(repeat=repeat))
    out.update(bench_faulted_kernel(repeat=repeat))
    out.update(bench_obs(repeat=repeat))
    out.update(bench_ga(repeat=repeat))
    out.update(bench_bayes(repeat=repeat))
    return out
