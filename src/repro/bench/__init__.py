"""Benchmark harness: microbenchmarks and suite timings.

Run with ``python -m repro.bench --scale smoke --out BENCH_ci.json``.
Each run writes one ``repro-bench/1`` JSON document (see
:mod:`repro.bench.harness` for the schema) whose ``determinism`` block
is the report of :func:`repro.check.run_checks`, and exits non-zero if
any row of it mismatches.
"""

from repro.bench.harness import (
    SCHEMA_VERSION,
    env_info,
    make_payload,
    next_bench_path,
    timed,
    write_bench,
)
from repro.bench.micro import bench_bayes, bench_ga, bench_kernel, run_micro
from repro.bench.suite import run_suite

__all__ = [
    "SCHEMA_VERSION",
    "bench_bayes",
    "bench_ga",
    "bench_kernel",
    "env_info",
    "make_payload",
    "next_bench_path",
    "run_micro",
    "run_suite",
    "timed",
    "write_bench",
]
