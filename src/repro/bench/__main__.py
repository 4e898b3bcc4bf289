"""CLI: ``python -m repro.bench --scale smoke --out BENCH_ci.json``.

Times the three numbers perfbench does not measure yet — the bare-kernel
loop, the 4,096-deme ring and the figure-3 sweep at ``--scale`` — runs
the golden table (:func:`repro.check.run_checks`), writes one
``repro-bench/1`` JSON document, and exits 1 if any digest mismatches.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.harness import make_payload, next_bench_path, timed, write_bench
from repro.bench.micro import bench_kernel
from repro.check import run_checks
from repro.experiments.cli import add_jobs_option
from repro.experiments.config import SCALES
from repro.experiments.figure3 import run_figure3
from repro.experiments.runner import configured_jobs
from repro.experiments.scale_study import run_scale_proof


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.bench`` entry point; the exit status is 1 on digest
    mismatch."""
    parser = argparse.ArgumentParser(prog="python -m repro.bench")
    parser.add_argument("--scale", choices=sorted(SCALES), default="smoke")
    parser.add_argument("--out", default=None, help="output path (default: next BENCH_<n>.json)")
    add_jobs_option(parser)
    args = parser.parse_args(argv)

    scale = SCALES[args.scale]()
    jobs = configured_jobs() if args.jobs is None else args.jobs

    print("[bench] bare-kernel loop ...", flush=True)
    micro = bench_kernel()

    print("[bench] 4096-deme ring ...", flush=True)
    proof = run_scale_proof(4096)
    micro["fabric.ga_ring_4096_wall_s"] = proof["wall_s"]
    micro["fabric.ga_ring_4096_sim_s"] = proof["total_time"]

    print(f"[bench] figure3 (scale={args.scale}, jobs={jobs}) ...", flush=True)
    _, figure3_s = timed(run_figure3, scale, jobs=jobs)
    experiments = {"figure3": {"wall_s": figure3_s}}

    print("[bench] determinism digests ...", flush=True)
    determinism = run_checks()

    payload = make_payload(args.scale, jobs, micro, experiments, determinism)
    out = next_bench_path() if args.out is None else args.out
    write_bench(out, payload)
    print(f"[bench] wrote {out}")

    failed = [name for name, r in determinism.items() if not r["ok"]]
    for name in failed:
        r = determinism[name]
        print(
            f"[bench] DETERMINISM MISMATCH {name}: {r['digest']} != golden {r['golden']}",
            file=sys.stderr,
        )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
