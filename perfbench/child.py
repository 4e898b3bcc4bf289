"""One fresh process of one workload: set up, execute cold, time, trace.

Started by ``run.py``; prints one JSON report as its last line.

Protocol: import the simulator, build the inputs, execute once cold
(``setup_end`` is stamped here: the runner subtracts the time it
spawned this process to get ``setup_s``), then repeat the scenario for
``--budget`` seconds (``gc.collect()`` before each repetition, gc left
enabled), read ``ru_maxrss``, and with ``--trace 1`` run one more
repetition under cProfile and fold it into the host-time ledger.  With
``--trace 1`` a workload that has a reference variant also times it
before every repetition, so the two sides of its ratio metric are
measured interleaved.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import platform
import pstats
import resource
import sys
import time
import traceback
from pathlib import Path

import layers
import ledger
from workloads import BY_NAME

HERE = Path(__file__).resolve().parent
SRC_REPRO = HERE.parent / "src" / "repro"

#: ledger health floors asserted on every traced repetition.  The sum
#: falls short of the traced wall by the profiler's own bookkeeping
#: between its timer reads, which grows with the call count: 0.3 % on
#: bayes_gr_rollback, up to 4 % on the call-heavy GA runs.
MIN_ATTRIBUTED = 0.9
MAX_SUM_ERROR = 0.05


def _cpu_s() -> float:
    """CPU seconds so far, this process plus its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def digest_of(stats: dict) -> str:
    """sha256 over the canonical simulated statistics."""
    return hashlib.sha256(json.dumps(stats, sort_keys=True).encode()).hexdigest()


def execute(kind: str, fn, inputs, profiler=None) -> dict:
    """Run ``fn(inputs)`` once and record times, digest and failed checks.

    An execution that raises is a failed execution, not a failed
    benchmark: the traceback is recorded and the run goes on.
    """
    gc.collect()
    record: dict = {"kind": kind, "problems": []}
    cpu0, t0 = _cpu_s(), time.perf_counter()
    outcome = None
    try:
        if profiler is not None:
            profiler.enable()
        outcome = fn(inputs)
    except Exception:
        record["problems"].append("raised: " + traceback.format_exc(limit=8))
    finally:
        if profiler is not None:
            profiler.disable()
    record["wall_s"] = time.perf_counter() - t0
    record["cpu_s"] = _cpu_s() - cpu0
    if outcome is not None:
        record.update(
            digest=digest_of(outcome.stats),
            iterations=outcome.iterations,
            sim_completion_s=outcome.sim_completion_s,
            counts=outcome.counts,
            timed=outcome.timed,
        )
        record["problems"] += outcome.problems
    return record


def traced_execution(scenario, inputs) -> tuple[dict, dict]:
    """One repetition under cProfile, folded; returns (record, host metrics)."""
    profiler = cProfile.Profile()
    record = execute("traced", scenario.run, inputs, profiler)
    folded = ledger.fold(
        pstats.Stats(profiler).stats, ledger.repro_key_of(SRC_REPRO, HERE)
    )
    host = ledger.host_metrics(folded)
    record["problems"] += layers.self_test(SRC_REPRO)
    if host["host.attributed_fraction"] < MIN_ATTRIBUTED:
        record["problems"].append(
            f"ledger attributed {host['host.attributed_fraction']:.3f} < {MIN_ATTRIBUTED}"
        )
    if abs(host["host.sum_s"] - record["wall_s"]) > MAX_SUM_ERROR * record["wall_s"]:
        record["problems"].append(
            f"ledger sums to {host['host.sum_s']:.3f} s, traced wall {record['wall_s']:.3f} s"
        )
    return record, host


def main(argv=None) -> int:
    """Run the child protocol and print the JSON report."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC_REPRO.parent))
    import numpy

    from scenarios import SCENARIOS

    scenario = SCENARIOS[args.workload]
    inputs = scenario.build(args.seed)
    cold = execute("cold", scenario.reference or scenario.run, inputs)
    setup_end = time.time()

    executions = [cold]
    spent = 0.0
    while True:
        if args.trace and scenario.reference is not None:
            executions.append(execute("reference", scenario.reference, inputs))
            spent += executions[-1]["wall_s"]
        executions.append(execute("timed", scenario.run, inputs))
        spent += executions[-1]["wall_s"]
        if spent >= args.budget:
            break

    peak_kb = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    host = None
    if args.trace and scenario.ledger:
        record, host = traced_execution(scenario, inputs)
        executions.append(record)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_end": setup_end,
        "peak_rss_mb": peak_kb / 1024.0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "executions": executions,
        "host": host,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
