"""Bench plumbing: timing, environment capture and the BENCH JSON schema.

Every bench run writes one JSON document — ``BENCH_1.json``,
``BENCH_2.json``, ... at the repo root.  The points are a record, not a
gate: they were written on different hosts, whose walls do not compare
(``tools/perf_gate.py`` runs both sides of a change on one host).

Schema (``repro-bench/1``)
--------------------------
::

    {
      "schema": "repro-bench/1",
      "scale": "smoke",                  # REPRO_SCALE preset used
      "jobs": 4,                         # worker count for the figure-3 sweep
      "env": {"python": ..., "platform": ..., "cpu_count": ...},
      "micro": {                         # flat, one key per metric
        "kernel_events": float,          # the bare-kernel loop
        "kernel_wall_s": float,
        "kernel_events_per_sec": float,
        "fabric.ga_ring_4096_wall_s": float,   # the 4,096-deme ring
        "fabric.ga_ring_4096_sim_s": float
      },
      "experiments": {"figure3": {"wall_s": float}},
      "determinism": {                   # repro.check.run_checks() rows
        "kernel_trace": {"digest": "...", "golden": "...", "ok": true},
        ...
      }
    }

``kernel_wall_s`` is the best of :data:`repro.bench.micro.KERNEL_REPEAT`
runs (wall-clock seconds measured with ``time.perf_counter``), and the
rate is derived from the same best run.  Older points (BENCH_2–12) also
carry the micro, fabric, shard and suite keys that perfbench now
measures.
"""

from __future__ import annotations

import os
import platform
import re
import time
from pathlib import Path
from typing import Any, Callable

from repro.util.envelope import make_envelope, write_envelope

SCHEMA_VERSION = "repro-bench/1"

_BENCH_NAME = re.compile(r"^BENCH_(\d+)\.json$")


def timed(fn: Callable[..., Any], *args: Any, repeat: int = 1, **kwargs: Any):
    """Run ``fn(*args, **kwargs)`` ``repeat`` times; return (result, best_s)."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeat)):
        t0 = time.perf_counter()  # repro-lint: allow[RPR002] — harness timing
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)  # repro-lint: allow[RPR002]
    return result, best


def env_info() -> dict:
    """Provenance block: enough to interpret a trajectory point."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "repro_jobs": os.environ.get("REPRO_JOBS"),
        "repro_scale": os.environ.get("REPRO_SCALE"),
    }


def next_bench_path() -> Path:
    """Next free ``BENCH_<n>.json`` in the working directory (n = max
    existing + 1)."""
    taken = [
        int(m.group(1))
        for p in Path(".").glob("BENCH_*.json")
        if (m := _BENCH_NAME.match(p.name))
    ]
    return Path(f"BENCH_{max(taken, default=0) + 1}.json")


def make_payload(
    scale: str, jobs: int, micro: dict, experiments: dict, determinism: dict
) -> dict:
    """Assemble the bench-result JSON payload (schema ``repro-bench/1``)."""
    return make_envelope(
        SCHEMA_VERSION,
        {
            "scale": scale,
            "jobs": jobs,
            "unix_time": time.time(),  # repro-lint: allow[RPR002] — provenance stamp
            "env": env_info(),
            "micro": micro,
            "experiments": experiments,
            "determinism": determinism,
        },
    )


def write_bench(path: Path | str, payload: dict) -> Path:
    """Write one trajectory point; returns the path written."""
    return write_envelope(path, payload)
