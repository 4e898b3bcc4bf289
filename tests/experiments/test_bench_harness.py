"""The bench harness: schema, BENCH file naming, timing, the CLI's key set."""

import json

import pytest

from repro.bench.harness import (
    SCHEMA_VERSION,
    env_info,
    make_payload,
    next_bench_path,
    timed,
    write_bench,
)
from repro.bench import micro
from repro.bench.micro import bench_kernel


def test_timed_returns_result_and_positive_best():
    result, best_s = timed(sum, [1, 2, 3], repeat=3)
    assert result == 6
    assert best_s > 0


def test_next_bench_path_counts_up(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert next_bench_path().name == "BENCH_1.json"
    (tmp_path / "BENCH_1.json").write_text("{}")
    (tmp_path / "BENCH_7.json").write_text("{}")
    (tmp_path / "BENCH_nope.json").write_text("{}")  # ignored
    assert next_bench_path().name == "BENCH_8.json"


def test_payload_schema_and_roundtrip(tmp_path):
    payload = make_payload(
        "smoke",
        4,
        micro={"kernel_events_per_sec": 1e5},
        experiments={"figure2": {"wall_s": 1.0, "serial_wall_s": 2.0, "parallel_speedup": 2.0}},
        determinism={"kernel_trace": {"digest": "x", "golden": "x", "ok": True}},
    )
    assert payload["schema"] == SCHEMA_VERSION
    assert payload["jobs"] == 4
    assert payload["env"]["cpu_count"] == env_info()["cpu_count"]
    path = write_bench(tmp_path / "BENCH_3.json", payload)
    again = json.loads(path.read_text())
    assert again["micro"]["kernel_events_per_sec"] == 1e5
    assert again["scale"] == "smoke"


def test_bench_kernel_reports_consistent_rate(monkeypatch):
    monkeypatch.setattr(micro, "KERNEL_WORKERS", 4)
    monkeypatch.setattr(micro, "KERNEL_STEPS", 24)
    monkeypatch.setattr(micro, "KERNEL_REPEAT", 1)
    out = bench_kernel()
    assert out["kernel_events"] > 0
    assert out["kernel_events_per_sec"] == out["kernel_events"] / out["kernel_wall_s"]


@pytest.mark.parametrize("ok, status", [(True, 0), (False, 1)], ids=["clean", "mismatch"])
def test_cli_writes_the_three_measures_and_the_gate(ok, status, tmp_path, monkeypatch):
    """The stub's contract, with every measure and the gate faked: the
    written key set, and exit 1 on a mismatching ``run_checks`` row."""
    import repro.bench.__main__ as cli

    rows = {
        "kernel_trace": {"digest": "a", "golden": "a", "ok": True},
        "ga_result": {"digest": "b", "golden": "b" if ok else "c", "ok": ok},
    }
    monkeypatch.setattr(cli, "bench_kernel", lambda: {
        "kernel_events": 10.0, "kernel_wall_s": 2.0, "kernel_events_per_sec": 5.0,
    })
    monkeypatch.setattr(cli, "run_scale_proof", lambda n: {
        "wall_s": float(n), "total_time": 0.5,
    })
    monkeypatch.setattr(cli, "run_figure3", lambda scale, jobs: [])
    monkeypatch.setattr(cli, "run_checks", lambda: rows)
    out = tmp_path / "b.json"
    assert cli.main(["--scale", "smoke", "--jobs", "1", "--out", str(out)]) == status
    doc = json.loads(out.read_text())
    assert doc["schema"] == SCHEMA_VERSION
    assert doc["micro"] == {
        "kernel_events": 10.0, "kernel_wall_s": 2.0, "kernel_events_per_sec": 5.0,
        "fabric.ga_ring_4096_wall_s": 4096.0, "fabric.ga_ring_4096_sim_s": 0.5,
    }
    assert list(doc["experiments"]) == ["figure3"]
    assert set(doc["experiments"]["figure3"]) == {"wall_s"}
    assert doc["determinism"] == rows
