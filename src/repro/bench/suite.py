"""End-to-end experiment timings (the BENCH ``experiments`` block).

Times every paper experiment at the requested scale.  Figure 2 — the
largest fan-out — is additionally run serially so the point records the
``parallel_speedup`` delivered by the :mod:`repro.experiments.runner`
fan-out at the chosen job count, and the serial/parallel row sets are
compared for bit-identity (any divergence is a determinism bug, reported
in the ``determinism`` block as ``figure2_parallel_identical``).
"""

from __future__ import annotations

import os
from typing import Callable

from repro.bench.harness import timed
from repro.experiments.config import Scale


def parallel_skip_info(jobs: int, cpu_count: int, mcfg=None) -> dict:
    """The figure2 block's skip record when no fan-out speedup is measurable.

    A measured speedup needs both a fan-out (jobs > 1) and a second core
    to fan out onto; otherwise record *why* it was skipped instead of a
    misleading 1.0 — plus the interconnect fabric and its conservative
    lookahead, so a reader of the bench point can see what the parallel
    kernel would have had to work with on this host.
    """
    from repro.cluster.machine import MachineConfig
    from repro.sim.parallel.plan import lookahead_of

    mcfg = mcfg or MachineConfig()
    return {
        "parallel_speedup": None,
        "parallel_skipped": "jobs <= 1" if jobs <= 1 else "single-core host",
        "fabric": mcfg.interconnect,
        "lookahead_s": lookahead_of(mcfg),
    }


def _experiment_runners(scale: Scale, jobs: int) -> dict[str, Callable[[], object]]:
    from repro.experiments.figure3 import run_figure3
    from repro.experiments.figure4 import run_figure4
    from repro.experiments.quality import run_quality
    from repro.experiments.table1 import run_table1
    from repro.experiments.table2 import run_table2
    from repro.experiments.warp_study import run_warp_study

    return {
        "figure3": lambda: run_figure3(scale, jobs=jobs),
        "figure4": lambda: run_figure4(scale, jobs=jobs),
        "table1": lambda: run_table1(jobs=jobs),
        "table2": lambda: run_table2(jobs=jobs),
        "quality": lambda: run_quality(scale, jobs=jobs),
        "warp_study": lambda: run_warp_study(scale, jobs=jobs),
    }


def run_suite(scale: Scale, jobs: int = 1) -> tuple[dict, dict]:
    """Time the experiment suite; returns (experiments, extra_determinism)."""
    from repro.experiments.figure2 import run_figure2

    experiments: dict = {}

    cpu_count = os.cpu_count() or 1
    serial_rows, serial_s = timed(run_figure2, scale, jobs=1)
    figure2: dict = {
        "serial_wall_s": serial_s,
        "wall_s": serial_s,
        "cpu_count": cpu_count,
    }
    identical = True
    if jobs > 1 and cpu_count > 1:
        parallel_rows, parallel_s = timed(run_figure2, scale, jobs=jobs)
        identical = parallel_rows == serial_rows
        figure2["wall_s"] = parallel_s
        figure2["parallel_speedup"] = serial_s / parallel_s
    else:
        from repro.experiments.speedup import machine_for

        figure2.update(
            parallel_skip_info(
                jobs, cpu_count,
                mcfg=machine_for(scale, scale.processor_counts[-1], 0),
            )
        )
    experiments["figure2"] = figure2

    for name, runner in _experiment_runners(scale, jobs).items():
        _, wall_s = timed(runner)
        experiments[name] = {"wall_s": wall_s}

    extra_determinism = {
        "figure2_parallel_identical": {
            "digest": "identical" if identical else "diverged",
            "golden": "identical",
            "ok": identical,
        }
    }
    return experiments, extra_determinism
