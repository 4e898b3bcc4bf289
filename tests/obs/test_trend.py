"""Perf-trajectory analyzer: directions, verdicts, gate exit codes."""

import json

from repro.obs.trend import (
    DEFAULT_THRESHOLD,
    analyze,
    direction_of,
    flatten_payload,
    load_points,
    render_trend,
    sparkline,
    trend_report,
)


def _series(*metric_dicts):
    return [(f"BENCH_{i + 2}", m) for i, m in enumerate(metric_dicts)]


def test_direction_registry():
    assert direction_of("micro.kernel_events_per_sec") == "up"
    assert direction_of("micro.kernel_parallel.speedup") == "up"
    assert direction_of("experiments.figure3.wall_s") == "down"
    assert direction_of("micro.obs_trace_overhead_ratio") == "down"
    assert direction_of("micro.fabric.o1_ratio") == "down"
    assert direction_of("micro.ga_best_fitness") is None


def test_flatten_payload_numeric_leaves_only():
    flat = flatten_payload(
        {
            "schema": "repro-bench/1",
            "unix_time": 1.0,
            "env": {"python": "3.11"},
            "micro": {"kernel_wall_s": 0.5, "nested": {"x_per_sec": 10.0},
                      "flag": True},
            "experiments": {"figure3": {"wall_s": 2.0}},
        }
    )
    assert flat == {
        "micro.kernel_wall_s": 0.5,
        "micro.nested.x_per_sec": 10.0,
        "experiments.figure3.wall_s": 2.0,
    }


def test_injected_25pct_regression_detected():
    stable = {"micro.kernel_wall_s": 1.0}
    points = _series(stable, stable, {"micro.kernel_wall_s": 1.30})
    analysis = analyze(points, threshold=DEFAULT_THRESHOLD)
    assert analysis["regressions"] == ["micro.kernel_wall_s"]
    assert not analysis["ok"]
    (row,) = analysis["rows"]
    assert row["verdict"] == "regressed"
    assert abs(row["pct_change"] - 0.30) < 1e-9
    assert "REGRESSED" in render_trend(analysis)


def test_within_threshold_is_ok_and_improvement_flagged():
    ok = analyze(_series({"k_wall_s": 1.0}, {"k_wall_s": 1.2}))
    assert ok["ok"] and ok["rows"][0]["verdict"] == "ok"
    up = analyze(_series({"k_wall_s": 1.0}, {"k_wall_s": 0.5}))
    assert up["ok"] and up["rows"][0]["verdict"] == "improved"
    # for up-good keys the sign flips
    down = analyze(_series({"k_per_sec": 100.0}, {"k_per_sec": 60.0}))
    assert not down["ok"] and down["rows"][0]["verdict"] == "regressed"


def test_noise_floor_and_new_keys_do_not_gate():
    analysis = analyze(
        _series({"t_wall_s": 0.001}, {"t_wall_s": 0.004, "fresh_wall_s": 9.0})
    )
    verdicts = {r["key"]: r["verdict"] for r in analysis["rows"]}
    assert verdicts["t_wall_s"] == "noise"  # 4x jump but sub-noise-floor
    assert verdicts["fresh_wall_s"] == "new"
    assert analysis["ok"]


def test_outlier_fast_baseline_does_not_gate():
    """One anomalously fast point must not flag ordinary jitter, but a
    regression sustained against the whole recent envelope still gates."""
    jitter = analyze(_series(
        {"k_wall_s": 1.0}, {"k_wall_s": 0.7}, {"k_wall_s": 1.05}
    ))
    (row,) = jitter["rows"]
    assert row["pct_change"] > 0.25  # vs prev it *looks* regressed
    assert row["verdict"] == "ok" and jitter["ok"]
    real = analyze(_series(
        {"k_wall_s": 1.0}, {"k_wall_s": 1.0}, {"k_wall_s": 1.0},
        {"k_wall_s": 1.35},
    ))
    assert real["rows"][0]["verdict"] == "regressed" and not real["ok"]


def test_gap_in_series_compares_to_last_measurement():
    points = _series(
        {"k_wall_s": 1.0}, {}, {"k_wall_s": 1.1}
    )
    (row,) = analyze(points)["rows"]
    assert row["prev"] == 1.0 and row["values"][1] is None
    assert " " in row["spark"]


def test_sparkline_shapes():
    assert len(sparkline([1.0, None, 3.0])) == 3
    assert sparkline([]) == ""
    assert sparkline([2.0, 2.0]) == "▄▄"


def test_trend_report_envelope():
    env = trend_report(analyze(_series({"a_wall_s": 1.0})))
    assert env["schema"] == "repro-obs-trend/1"
    assert env["labels"] == ["BENCH_2"] and env["ok"]


def _bench_file(root, n, micro):
    payload = {
        "schema": "repro-bench/1",
        "scale": "smoke",
        "jobs": 1,
        "unix_time": 0.0,
        "env": {},
        "micro": micro,
        "experiments": {},
        "determinism": {},
    }
    (root / f"BENCH_{n}.json").write_text(json.dumps(payload) + "\n")


def test_cli_check_gate_pass_then_fail(tmp_path, capsys):
    from repro.obs.__main__ import main

    _bench_file(tmp_path, 1, {"kernel_wall_s": 1.0})
    _bench_file(tmp_path, 2, {"kernel_wall_s": 1.05})
    assert main(["trend", "--root", str(tmp_path), "--check"]) == 0
    capsys.readouterr()
    _bench_file(tmp_path, 3, {"kernel_wall_s": 1.40})  # +33% > 25%
    assert main(["trend", "--root", str(tmp_path), "--check"]) == 1
    out = capsys.readouterr().out
    assert "REGRESSED" in out and "kernel_wall_s" in out


def test_cli_json_and_positional_points(tmp_path, capsys):
    from repro.obs.__main__ import main

    _bench_file(tmp_path, 1, {"kernel_wall_s": 1.0})
    extra = tmp_path / "elsewhere"
    extra.mkdir()
    bench2 = extra / "b2.json"
    bench2.write_text(json.dumps({
        "schema": "repro-bench/1", "micro": {"kernel_wall_s": 0.9},
        "experiments": {},
    }) + "\n")
    labels = [l for l, _ in load_points(str(tmp_path), [str(bench2)])]
    assert labels == ["BENCH_1", "b2.json"]
    code = main(["trend", str(bench2), "--root", str(tmp_path), "--json"])
    assert code == 0
    env = json.loads(capsys.readouterr().out)
    assert env["schema"] == "repro-obs-trend/1"
    assert env["labels"] == ["BENCH_1", "b2.json"]


def test_cli_check_needs_two_points(tmp_path, capsys):
    """A mistyped --root must not turn the gate green: no points is exit 2."""
    from repro.obs.__main__ import main

    empty = tmp_path / "no_bench_here"
    empty.mkdir()
    assert main(["trend", "--root", str(empty), "--check"]) == 2
    err = capsys.readouterr().err
    assert str(empty) in err and "found 0" in err
    _bench_file(empty, 1, {"kernel_wall_s": 1.0})
    assert main(["trend", "--root", str(empty), "--check"]) == 2
    assert "found 1" in capsys.readouterr().err
    # without --check the (empty) table still prints
    assert main(["trend", "--root", str(tmp_path / "no_bench_here2")]) == 0
    assert "no points" in capsys.readouterr().out


def test_cli_malformed_bench_document_exit_2(tmp_path, capsys):
    from repro.obs.__main__ import main

    _bench_file(tmp_path, 1, {"kernel_wall_s": 1.0})
    bad = tmp_path / "bad.json"
    bad.write_text("{truncated")
    assert main(["trend", str(bad), "--root", str(tmp_path)]) == 2
    assert str(bad) in capsys.readouterr().err


def test_trend_on_real_repo_trajectory():
    """The repo's own BENCH_* series must pass the gate as committed."""
    analysis = analyze(load_points("."))
    assert len(analysis["labels"]) >= 2
    assert analysis["ok"], analysis["regressions"]
