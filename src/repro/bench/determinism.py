"""Golden determinism digests guarding the kernel's scheduling order.

The kernel optimisations (same-instant fast lane, type-tag dispatch)
promise *bit-identical* behaviour.  This module pins that promise three
ways:

* ``kernel_trace`` — SHA-256 of the bus trace of a mixed scheduling
  workload, one record per executed event plus the kernel's ``proc.*``
  events (pure-Python floats: platform-stable);
* ``ga_result`` — digest of every numeric field of one small island-GA
  run (Global_Read, 2 demes);
* ``bayes_result`` — digest of one small parallel logic-sampling run
  (Global_Read, 2 processors, Hailfinder).

``GOLDEN`` holds the expected values.  Any reordering introduced by a
future "optimisation" — a heap that breaks FIFO ties, a dispatch path
that resumes processes early — shifts at least one digest.  The digests
are checked by ``tests/sim/test_determinism.py`` /
``tests/experiments/test_determinism_golden.py`` and by every
``python -m repro.bench`` run (CI's bench-smoke job fails on mismatch).
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.obs.bus import TraceBus


def _fold(h: "hashlib._Hash", value: Any) -> None:
    """Canonical, numpy-scalar-proof serialisation into a running hash."""
    if isinstance(value, bool) or value is None:
        h.update(repr(value).encode())
    elif isinstance(value, int):
        h.update(str(value).encode())
    elif isinstance(value, float):
        # repr(float(x)) also normalises np.float64 (a float subclass whose
        # repr is numpy-version-dependent) to the portable Python spelling
        h.update(repr(float(value)).encode())
    elif isinstance(value, str):
        h.update(value.encode())
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for v in value:
            _fold(h, v)
            h.update(b",")
        h.update(b"]")
    else:  # numpy scalars / arrays: go through float/list explicitly
        import numpy as np

        if isinstance(value, np.ndarray):
            _fold(h, [float(v) for v in value.ravel()])
        elif isinstance(value, np.floating):
            _fold(h, float(value))
        elif isinstance(value, np.integer):
            _fold(h, int(value))
        else:
            raise TypeError(f"undigestable value {value!r}")


def digest_values(*values: Any) -> str:
    """SHA-256 digest of ``values`` rendered to canonical JSON."""
    h = hashlib.sha256()
    for v in values:
        _fold(h, v)
        h.update(b";")
    return h.hexdigest()


def kernel_trace_digest(n_workers: int = 12, n_steps: int = 64) -> str:
    """Trace digest of the mixed kernel workload (pure-Python floats).

    The workload's processes mark the bus before every yield and the
    kernel adds its ``proc.*`` events, so the trace holds each executed
    event's exact time (``repr`` round-trip) in execution order: swapping
    any two events, or moving one by an ulp, changes the digest.
    """
    from repro.bench.micro import build_kernel_workload

    kernel = build_kernel_workload(n_workers, n_steps)
    bus = kernel.obs = TraceBus(clock=lambda: kernel.now)
    kernel.run()
    return digest_values(bus.digest(), kernel.now, kernel.events_executed)


def ga_result_digest(seed: int = 7) -> str:
    """Digest of one small Global_Read island-GA run (2 demes, f1)."""
    from repro.core.coherence import CoherenceMode
    from repro.experiments.config import Scale
    from repro.experiments.speedup import machine_for
    from repro.ga.functions import get_function
    from repro.ga.island import IslandGaConfig, run_island_ga

    result = run_island_ga(
        IslandGaConfig(
            fn=get_function(1),
            n_demes=2,
            mode=CoherenceMode.NON_STRICT,
            age=10,
            n_generations=40,
            seed=seed,
            machine=machine_for(Scale.smoke(), 2, seed),
        )
    )
    return digest_values(
        result.completion_time,
        result.total_time,
        result.best_fitness,
        result.mean_fitness,
        [float(b) for b in result.per_deme_best],
        list(result.generations_run),
        result.messages_sent,
        result.mean_warp,
        result.max_warp,
    )


def bayes_result_digest(seed: int = 7) -> str:
    """Digest of one small Global_Read parallel logic-sampling run."""
    from repro.bayes.parallel import ParallelLsConfig, run_parallel_logic_sampling
    from repro.core.coherence import CoherenceMode
    from repro.experiments.config import Scale
    from repro.experiments.speedup import machine_for
    from repro.experiments.table2 import build_network, pick_query

    net = build_network("Hailfinder")
    result = run_parallel_logic_sampling(
        ParallelLsConfig(
            net=net,
            query=pick_query(net, seed=0),
            n_procs=2,
            mode=CoherenceMode.NON_STRICT,
            age=5,
            seed=seed,
            machine=machine_for(Scale.smoke(), 2, seed),
            max_iterations=20_000,
        )
    )
    return digest_values(
        result.completion_time,
        bool(result.converged),
        result.committed_runs,
        result.posterior,
        list(result.iterations_sampled),
        result.messages_sent,
        result.edge_cut,
    )


#: expected digests; regenerate with `python -m repro.bench --print-digests`
#: after an *intentional* behaviour change (and say so in the PR).
GOLDEN = {
    "kernel_trace": "6b642c9f171f06bdb3efe16a351a0259780ac16747ea716bdb05574e7a792fb8",
    "ga_result": "ef359529eb245f017ce361128dd0087e5a373fb21d1701fc731809646d2b335b",
    "bayes_result": "e6c4a755cbbad4696d24fe88106d6dcea5fdb863713f4f615f766a31a007252a",
}

_PRODUCERS = {
    "kernel_trace": kernel_trace_digest,
    "ga_result": ga_result_digest,
    "bayes_result": bayes_result_digest,
}


def check_digests() -> dict:
    """Compute every digest and compare to GOLDEN.

    Returns the BENCH ``determinism`` block:
    ``{name: {"digest": ..., "golden": ..., "ok": bool}}``.
    """
    out = {}
    for name, producer in _PRODUCERS.items():
        digest = producer()
        golden = GOLDEN[name]
        out[name] = {"digest": digest, "golden": golden, "ok": digest == golden}
    return out
