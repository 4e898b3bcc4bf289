"""Held trace memory per record, measured with tracemalloc.

The ROADMAP wants the trace cheap enough to leave on.  The figure here
is what the bus keeps per buffered record: the memory a traced run
still holds at its end, less what the same run holds untraced, over
the record count.  The run is a cut of the ``ga_ethernet_16``
benchmark scenario (f1, 16 demes all-to-all, age 10, 10 Mbps Ethernet
with a 1 Mbps loader, the figures' load-skew model) — 12 generations
instead of 80, so the record mix is the same and the test stays fast.
"""

import gc
import tracemalloc
from dataclasses import replace

import numpy as np

from repro.cluster.machine import MachineConfig
from repro.cluster.node import NodeSpec
from repro.core.coherence import CoherenceMode
from repro.ga.functions import get_function
from repro.ga.island import IslandGaConfig, run_island_ga

#: bytes of heap one buffered record may hold
MAX_BYTES_PER_RECORD = 200


def _ga_ethernet_16_cut(seed: int = 7) -> IslandGaConfig:
    speeds = np.random.default_rng(seed).normal(1.0, 0.03, 16)
    return IslandGaConfig(
        fn=get_function(1),
        n_demes=16,
        mode=CoherenceMode.NON_STRICT,
        age=10,
        n_generations=12,
        seed=seed,
        machine=MachineConfig(
            n_nodes=16,
            seed=seed,
            node_spec=NodeSpec(jitter_sigma=0.12),
            speed_factors=tuple(float(x) for x in speeds),
            measure_warp=True,
            loader_bps=(1e6,),
        ),
    )


def _held_after_run(cfg: IslandGaConfig) -> tuple[int, int]:
    """(bytes still allocated once the run returns, records on its bus).

    The hook keeps the run's machine — and so its bus — alive.
    """
    hook: dict = {}
    gc.collect()
    tracemalloc.start()
    try:
        run_island_ga(cfg, instrument=lambda dsm: hook.setdefault("dsm", dsm))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    bus = hook["dsm"].vm.kernel.obs
    return held, len(bus.events) if bus is not None else 0


def test_a_buffered_record_holds_at_most_200_bytes():
    cfg = _ga_ethernet_16_cut()
    untraced, _ = _held_after_run(cfg)
    traced, records = _held_after_run(
        replace(cfg, machine=replace(cfg.machine, trace=True))
    )
    assert records > 5_000
    per_record = (traced - untraced) / records
    assert per_record <= MAX_BYTES_PER_RECORD, f"{per_record:.1f} B/record"
