"""The bench harness: schema, BENCH file naming, timing, micro suite."""

import json

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
    out = bench_kernel(repeat=1)
    assert out["kernel_events"] > 0
    assert out["kernel_events_per_sec"] == out["kernel_events"] / out["kernel_wall_s"]


def test_bench_obs_reports_overhead_and_span_rate():
    from repro.bench.micro import bench_obs

    out = bench_obs(repeat=1)
    assert out["obs_trace_events"] > 0
    assert out["obs_overhead_ratio"] > 0
    assert out["obs_span_build_events_per_sec"] == (
        out["obs_trace_events"] / out["obs_span_build_wall_s"]
    )
