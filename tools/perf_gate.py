#!/usr/bin/env python
"""Perf gate: does this tree run the serial perfbench workloads slower
than BASE_REF on the same host?

    python tools/perf_gate.py BASE_REF

Checks BASE_REF out in a temporary ``git worktree`` and runs ``PAIRS``
alternating pairs of ``perfbench/run.py --trace 0 --seconds 3``, each
side with its own perfbench against its own ``src``, then exits with
``perfbench/compare.py``'s status over the two sets of runs: 1 when a
metric reads ``worse``.  A run that fails (a digest mismatch, a failed
execution) exits 1 at once; an unknown BASE_REF exits 2.  The worktree
and every child process are gone on every exit path.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: pairs of runs per gate; measured, not guessed (docs/observability.md)
PAIRS = 7
#: the serial workloads; ``ga_sharded_2`` reads 36-45 % apart from
#: itself, and the perfbench CI job still checks its digest
WORKLOADS = (
    "bayes_gr_rollback",
    "bayes_sync_staged",
    "ga_ethernet_16",
    "ga_ethernet_16_traced",
    "ga_switched_1024",
)


def run(cmd: list[str], cwd: Path) -> int:
    """Run ``cmd`` in its own session; stop it if we are interrupted."""
    proc = subprocess.Popen(cmd, cwd=cwd, start_new_session=True)
    try:
        return proc.wait()
    except BaseException:
        # SIGINT lets run.py stop its own children, which it starts in
        # sessions of their own
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        raise


def gate(base_ref: str) -> int:
    """Run the pairs and the comparison; the gate's exit status."""
    resolved = subprocess.run(
        ["git", "rev-parse", "--verify", "--quiet", f"{base_ref}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if resolved.returncode != 0:
        print(f"perf_gate: unknown ref {base_ref!r}", file=sys.stderr)
        return 2
    base_sha = resolved.stdout.strip()
    with tempfile.TemporaryDirectory(prefix="perf_gate_") as tmp:
        tree = Path(tmp) / "base"
        subprocess.run(
            ["git", "worktree", "add", "--detach", str(tree), base_sha],
            cwd=ROOT, check=True, capture_output=True,
        )
        try:
            sides = {"base": tree, "head": ROOT}
            for i in range(PAIRS):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                for side in order:
                    out = Path(tmp) / "runs" / side / f"run{i}.json"
                    out.parent.mkdir(parents=True, exist_ok=True)
                    print(f"perf_gate: pair {i + 1}/{PAIRS} {side}", flush=True)
                    cmd = [sys.executable, "perfbench/run.py", "--trace", "0",
                           "--seconds", "3", "--out", str(out)]
                    for name in WORKLOADS:
                        cmd += ["--workload", name]
                    if run(cmd, sides[side]) != 0:
                        print(f"perf_gate: {side} run {i + 1} failed", file=sys.stderr)
                        return 1
            runs = Path(tmp) / "runs"
            compare = [sys.executable, "perfbench/compare.py",
                       str(runs / "base"), str(runs / "head")]
            return run(compare, ROOT)
        finally:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(tree)],
                cwd=ROOT, capture_output=True,
            )
            subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)


def main(argv: list[str] | None = None) -> int:
    """``python tools/perf_gate.py BASE_REF``."""
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    # unwind on SIGTERM (a cancelled CI job) and on SIGINT, which a shell
    # ignores in background jobs, so the cleanup runs and run.py inherits
    # a SIGINT it acts on
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    return gate(args[0])


if __name__ == "__main__":
    raise SystemExit(main())
