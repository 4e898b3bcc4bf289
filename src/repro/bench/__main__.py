"""CLI: ``python -m repro.bench --scale smoke --out BENCH_ci.json``.

Runs the microbenchmarks, the experiment suite timings and the golden
table (:func:`repro.check.run_checks`), writes one ``repro-bench/1``
JSON document, and exits 1 if any digest mismatches.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.harness import make_payload, next_bench_path, write_bench
from repro.bench.micro import run_micro
from repro.bench.suite import run_suite
from repro.check import run_checks
from repro.experiments.cli import add_jobs_option
from repro.experiments.config import SCALES
from repro.experiments.runner import configured_jobs


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.bench`` entry point; the exit status is 1 on digest
    mismatch."""
    parser = argparse.ArgumentParser(prog="python -m repro.bench")
    parser.add_argument("--scale", choices=sorted(SCALES), default="smoke")
    parser.add_argument("--out", default=None, help="output path (default: next BENCH_<n>.json)")
    add_jobs_option(parser)
    parser.add_argument("--repeat", type=int, default=2, help="micro-benchmark repeats (best-of)")
    parser.add_argument("--skip-suite", action="store_true", help="micro + digests only")
    args = parser.parse_args(argv)

    scale = SCALES[args.scale]()
    jobs = configured_jobs() if args.jobs is None else args.jobs

    print(f"[bench] micro (repeat={args.repeat}) ...", flush=True)
    micro = run_micro(repeat=args.repeat)

    print("[bench] parallel kernel (2-shard speedup) ...", flush=True)
    from repro.bench.parallel import bench_parallel

    micro.update(bench_parallel())

    print("[bench] switched fabric (O(1) per-message check) ...", flush=True)
    from repro.bench.fabric import bench_fabric

    micro.update(bench_fabric(repeat=args.repeat))

    experiments: dict = {}
    determinism = {}
    if not args.skip_suite:
        print(f"[bench] experiment suite (scale={args.scale}, jobs={jobs}) ...", flush=True)
        experiments, determinism = run_suite(scale, jobs=jobs)

    print("[bench] determinism digests ...", flush=True)
    determinism.update(run_checks())

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
