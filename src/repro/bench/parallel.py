"""Parallel-kernel microbenchmark (the ``kernel_parallel.*`` BENCH keys).

``kernel_parallel.speedup_2shard`` is serial wall-clock over 2-shard
wall-clock for a compute-heavy scenario (large populations, several
demes — the regime the bounded-lag kernel exists for), reported flat
into the BENCH envelope's ``micro`` block.  ``None`` with a recorded
``kernel_parallel.skipped`` reason on single-core hosts, where a
wall-clock speedup is physically unmeasurable: two workers timesharing
one core measure scheduler overhead, not the kernel.  Sharded identity
is not measured here: ``python -m repro.bench`` runs
:func:`repro.check.run_checks`, whose ``ga_result`` row already runs at
``shards=2`` against its ``GOLDEN`` hex.
"""

from __future__ import annotations

import os

from repro.bench.harness import timed
from repro.cluster.machine import MachineConfig
from repro.cluster.node import NodeSpec
from repro.core.coherence import CoherenceMode


def _heavy_cfg():
    """A compute-dominated run: big populations make the numpy work (the
    part sharding partitions) outweigh the replicated event stream."""
    from repro.ga.functions import get_function
    from repro.ga.island import IslandGaConfig
    from repro.ga.operators import GaParams

    return IslandGaConfig(
        fn=get_function(1),
        n_demes=4,
        mode=CoherenceMode.NON_STRICT,
        age=10,
        n_generations=30,
        seed=13,
        params=GaParams(population_size=384),
        machine=MachineConfig(n_nodes=4, seed=13, node_spec=NodeSpec(), measure_warp=True),
    )


def bench_parallel() -> dict:
    """Run the parallel-kernel micro; returns flat ``kernel_parallel.*`` keys."""
    from repro.check import ga_digest
    from repro.ga.island import run_island_ga

    shards = 2
    cpu_count = os.cpu_count() or 1
    out: dict = {"kernel_parallel.cpu_count": cpu_count}

    if cpu_count < 2:
        out[f"kernel_parallel.speedup_{shards}shard"] = None
        out["kernel_parallel.skipped"] = (
            "single-core host: wall-clock speedup not measurable"
        )
        return out

    cfg = _heavy_cfg()
    serial_result, serial_s = timed(run_island_ga, cfg)
    shard_result, shard_s = timed(run_island_ga, cfg, shards=shards)
    out["kernel_parallel.serial_wall_s"] = serial_s
    out[f"kernel_parallel.shard{shards}_wall_s"] = shard_s
    out[f"kernel_parallel.speedup_{shards}shard"] = (
        serial_s / shard_s if shard_s > 0 else None
    )
    out["kernel_parallel.heavy_identical"] = bool(
        ga_digest(shard_result) == ga_digest(serial_result)
    )
    return out
