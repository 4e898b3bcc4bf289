"""The bare-kernel loop: raw discrete-event throughput.

``kernel_events_per_sec`` times a mixed workload (same-instant
resumptions, timed computes, signal wakeups, cooperative yields, joins)
that exercises every kernel fast path, with no network, PVM or
application above it.  The workload is deterministic (fixed seed); only
the measured wall time varies run to run, which is why
:func:`bench_kernel` keeps the best of :data:`KERNEL_REPEAT`.
"""

from __future__ import annotations

from repro.bench.harness import timed
from repro.sim import CompletionCounter, Compute, Join, Kernel, Signal, WaitSignal, Yield

#: the mixed kernel workload :func:`bench_kernel` times
KERNEL_WORKERS, KERNEL_STEPS = 40, 300
#: runs of it :func:`bench_kernel` keeps the best of
KERNEL_REPEAT = 2


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


def bench_kernel() -> dict:
    """Events/sec of the mixed workload, driven the way every application
    drives the kernel: ``run(stop_when=counter.all_done)``."""

    def one_run() -> int:
        kernel = build_kernel_workload(KERNEL_WORKERS, KERNEL_STEPS)
        kernel.run(stop_when=CompletionCounter(kernel.processes).all_done)
        return kernel.events_executed

    events, best_s = timed(one_run, repeat=KERNEL_REPEAT)
    return {
        "kernel_events": float(events),
        "kernel_wall_s": best_s,
        "kernel_events_per_sec": events / best_s,
    }
