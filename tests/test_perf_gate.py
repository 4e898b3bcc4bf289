"""``tools/perf_gate.py``: what it gates, and how it refuses a bad ref.

Nothing here starts a perfbench run.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GATE = ROOT / "tools" / "perf_gate.py"


def _module(path: Path):
    name = f"_perf_gate_test_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # a dataclass looks its module up here
    spec.loader.exec_module(module)
    return module


def _worktrees() -> str:
    return subprocess.run(
        ["git", "worktree", "list", "--porcelain"],
        cwd=ROOT, capture_output=True, text=True,
    ).stdout


def test_the_gate_runs_every_perfbench_workload_but_the_sharded_one():
    gate = _module(GATE)
    table = _module(ROOT / "perfbench" / "workloads.py")
    assert gate.WORKLOADS == tuple(
        w.name for w in table.WORKLOADS if w.name != "ga_sharded_2"
    )


def test_an_unknown_base_ref_exits_2_naming_it_and_leaves_no_worktree():
    before = _worktrees()
    ref = "no-such-ref-for-the-perf-gate"
    proc = subprocess.run(
        [sys.executable, str(GATE), ref], cwd=ROOT, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert ref in proc.stderr
    assert _worktrees() == before
