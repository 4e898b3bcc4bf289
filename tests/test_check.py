"""``repro.check``: the golden table, the checker loop and its CLI."""

import ast
import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro import check
from repro.check import GOLDEN, SHARD_COUNTS, ga_rows, golden_ga
from repro.ga.functions import get_function

SRC = Path(check.__file__).parent


def test_every_row_and_identity_check_ok(check_report):
    assert list(check_report) == [*GOLDEN, *check.traced_identity_rows()]
    assert {n: r for n, r in check_report.items() if not r["ok"]} == {}
    for name, golden in GOLDEN.items():
        assert check_report[name]["digest"] == check_report[name]["golden"] == golden


def test_ga_rows_ok_at_every_shard_count_their_demes_allow(check_report):
    """Each count is reported under the shard count that really ran: a
    2-deme row has no 4-shard entry to show (the parent's checker printed
    ``golden_ga@4shard`` for a run ``run_sharded`` had clamped to 2)."""
    rows = ga_rows()
    assert len(rows) == 7
    for name, cfg in rows.items():
        per_shards = check_report[name]["shards"]
        assert list(per_shards) == [str(s) for s in SHARD_COUNTS]
        for shards in SHARD_COUNTS:
            entry = per_shards[str(shards)]
            if shards > cfg.n_demes:
                assert set(entry) == {"skipped"}, (name, shards)
            else:
                assert entry["effective"] == shards and entry["ok"], (name, shards)
                assert entry["digest"] == GOLDEN[name]
    four_shard = [n for n, r in check_report.items()
                  if r.get("shards", {}).get("4", {}).get("effective") == 4]
    assert four_shard == [
        "ga-switched-ring", "ring-hierarchical", "torus-fat-tree", "all-single-mcast"
    ]


def test_fallback_below_the_deme_count_fails_the_row():
    # noisy f4 cannot shard: 2 shards requested of 2 demes, 1 really ran
    noisy = replace(golden_ga(n_generations=5), fn=get_function(4))
    row = check._check_ga(noisy, golden="")
    entry = row["shards"]["2"]
    assert not row["ok"] and not entry["ok"]
    assert entry["effective"] == 1
    assert "noisy" in entry["fallback"]
    assert entry["digest"] == row["shards"]["1"]["digest"]  # the same serial run


def test_traced_identity_checks_leave_valid_merged_traces(tmp_path):
    from repro.obs.schema import validate_trace

    name = "traced-ethernet-loaded"
    row = check.run_checks([name], trace_dir=str(tmp_path))[name]
    assert row["ok"] and row["effective"] == 2 and row["digest"] == row["golden"]
    assert row["merged_trace"] == str(tmp_path / f"{name}.jsonl")
    assert validate_trace(row["merged_trace"], strict=True)["ok"]


def test_print_digests_round_trips_to_golden(check_report, monkeypatch, capsys):
    monkeypatch.setattr(check, "run_checks", lambda names, trace_dir: check_report)
    assert check.main(["--print-digests"]) == 0
    assert ast.literal_eval("{" + capsys.readouterr().out + "}") == GOLDEN


def test_mismatch_exits_one_and_names_the_row(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(check.GOLDEN, "traffic-delay", "0" * 64)
    out = tmp_path / "check.json"
    assert check.main(["traffic-delay", "traffic-drop", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "MISMATCH traffic-delay" in err and "traffic-drop" not in err
    assert '"ok": false' in out.read_text()


def test_unknown_name_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        check.main(["no-such-row"])
    assert exc.value.code == 2
    assert "no-such-row" in capsys.readouterr().err


def test_one_table_and_one_copy_of_the_golden_ga():
    hex64 = re.compile(r"\b[0-9a-f]{64}\b")
    sources = {p: p.read_text(encoding="utf-8") for p in SRC.rglob("*.py")}
    assert [p.name for p, text in sources.items() if hex64.search(text)] == ["check.py"]
    assert len(hex64.findall(sources[SRC / "check.py"])) == len(GOLDEN) == 18
    assert sum(text.count("n_generations=40") + text.count("n_generations: int = 40")
               for text in sources.values()) == 1


def test_simulator_layers_do_not_import_the_harness_layers():
    import os
    import subprocess
    import sys

    code = (
        "import sys, repro.ga, repro.ga.sharded, repro.faults, repro.faults.chaos, "
        "repro.sim, repro.sim.parallel\n"
        "bad = [m for m in sys.modules if m.startswith("
        "('repro.bench', 'repro.check', 'repro.experiments'))]\n"
        "assert not bad, bad"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60, env=env)


def test_the_simulator_imports_neither_networkx_nor_scipy():
    """networkx is dev-only (test generators and references) and nothing
    uses scipy: importing either at run time costs every process ~14 MB
    and fails a runtime-only install."""
    import os
    import subprocess
    import sys

    code = (
        "import importlib, pkgutil, sys\n"
        "import repro.analysis, repro.bayes, repro.check, repro.experiments, repro.ga, "
        "repro.obs, repro.partition, repro.sim.parallel\n"
        "for m in pkgutil.iter_modules(repro.experiments.__path__):\n"
        "    importlib.import_module('repro.experiments.' + m.name)\n"
        "bad = sorted(m for m in sys.modules if m.split('.')[0] in ('networkx', 'scipy'))\n"
        "assert not bad, bad[:5]"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60, env=env)


@pytest.mark.parametrize("hashseed", ["0", "1"])
def test_golden_rows_hold_under_a_fixed_hash_seed(hashseed):
    """Set iteration over str is ordered by ``PYTHONHASHSEED``: pinning two
    seeds makes a set-order leak into the schedule a certain failure here,
    not one that shows only when the suite's own random seed reorders it."""
    import os
    import subprocess
    import sys

    env = {**os.environ, "PYTHONPATH": str(SRC.parent), "PYTHONHASHSEED": hashseed}
    rows = ["kernel_trace", "ga_result", "bayes_result", "all-single-mcast"]
    proc = subprocess.run(
        [sys.executable, "-m", "repro.check", *rows],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
