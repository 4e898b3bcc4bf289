"""Trace-schema validation (repro.obs.schema / ``repro.obs validate``)."""

import json

import pytest

from repro.obs.schema import validate_lines, validate_trace


def _trace_file(ga_run, tmp_path):
    path = tmp_path / "trace.jsonl"
    ga_run.bus.write_jsonl(path)
    return path


def test_real_trace_validates_clean(ga_run, tmp_path):
    verdict = validate_trace(str(_trace_file(ga_run, tmp_path)))
    assert verdict["ok"], verdict["errors"]
    assert verdict["error_count"] == 0
    assert verdict["warning_count"] == 0
    assert verdict["events"] == len(ga_run.bus.events)
    assert verdict["meta"]["events_dropped"] == 0


def test_real_trace_validates_strict(ga_run, tmp_path):
    verdict = validate_trace(str(_trace_file(ga_run, tmp_path)), strict=True)
    assert verdict["ok"], verdict["errors"]


def test_bayes_trace_validates_strict(bayes_run, tmp_path):
    path = tmp_path / "bayes.jsonl"
    bayes_run.bus.write_jsonl(path)
    verdict = validate_trace(str(path), strict=True)
    assert verdict["ok"], verdict["errors"]
    # the correction batches and interface drains are consumes
    assert bayes_run.bus.kind_counts()["msg.consume"] > 0


@pytest.mark.parametrize("mode", ["synchronous", "asynchronous", "non_strict"])
def test_every_coherence_mode_traces_strict_and_folds_the_same_from_disk(
    mode, tmp_path
):
    """The happens-before kinds validate, and a fold over the JSONL file
    equals the fold over the in-memory bus."""
    from repro.analysis.races import classify_races
    from repro.cluster.machine import MachineConfig
    from repro.core.coherence import CoherenceMode
    from repro.ga import IslandGaConfig, get_function, run_island_ga
    from repro.obs.bus import read_jsonl

    cfg = IslandGaConfig(
        fn=get_function(1), n_demes=3, mode=CoherenceMode(mode), age=4,
        n_generations=12, seed=3,
        machine=MachineConfig(n_nodes=3, seed=3, trace=True),
    )
    holder = {}
    run_island_ga(cfg, instrument=lambda dsm: holder.update(bus=dsm.vm.kernel.obs))
    bus = holder["bus"]
    path = tmp_path / f"{mode}.jsonl"
    bus.write_jsonl(path)
    verdict = validate_trace(str(path), strict=True)
    assert verdict["ok"], verdict["errors"]
    counts = bus.kind_counts()
    assert counts["msg.send"] > 0 and counts["msg.consume"] > 0
    meta: dict = {}
    from_disk = classify_races(list(read_jsonl(str(path), meta)), meta["events_dropped"])
    assert from_disk == classify_races(bus.events)


def test_happens_before_kinds_need_their_fields():
    lines = [
        json.dumps({"t": 0, "kind": "msg.send", "node": 0}),
        json.dumps({"t": 0, "kind": "msg.consume", "node": 1, "newest": [[0, 3]]}),
        json.dumps({"t": 0, "kind": "dsm.read", "node": 1, "locn": "x"}),
        _meta(3),
    ]
    errors = validate_lines(lines)["errors"]
    assert any("msg.send missing field 'seq'" in e for e in errors)
    assert any("msg.consume.newest has type list" in e for e in errors)
    assert any("dsm.read missing field 'ret'" in e for e in errors)


def _meta(events, dropped=0):
    return json.dumps(
        {"kind": "trace.meta", "events": events, "events_dropped": dropped}
    )


def _line(t, kind="dsm.write", node=0, **fields):
    return json.dumps({"t": t, "kind": kind, "node": node, "locn": "x",
                       "iter": 1, **fields})


def test_corrupt_json_line_is_an_error():
    v = validate_lines([_line(0.1), "{not json", _meta(2)])
    assert not v["ok"]
    assert any("invalid JSON" in e for e in v["errors"])


def test_missing_trailer_is_an_error():
    v = validate_lines([_line(0.1), _line(0.2)])
    assert not v["ok"]
    assert any("trace.meta" in e for e in v["errors"])


def test_trailer_event_count_mismatch():
    v = validate_lines([_line(0.1), _line(0.2), _meta(5)])
    assert not v["ok"]
    assert any("declares 5" in e for e in v["errors"])


def test_time_going_backward_is_an_error():
    v = validate_lines([_line(1.0), _line(0.5), _meta(2)])
    assert not v["ok"]
    assert any("backward" in e for e in v["errors"])


def test_missing_required_field():
    bad = json.dumps({"t": 0.1, "kind": "gr.hit", "node": 0, "locn": "x",
                      "curr_iter": 1, "age": 0})  # staleness missing
    v = validate_lines([bad, _meta(1)])
    assert not v["ok"]
    assert any("missing field 'staleness'" in e for e in v["errors"])


def test_wrong_field_type_and_bool_guard():
    bad = json.dumps({"t": 0.1, "kind": "dsm.write", "node": 0,
                      "locn": "x", "iter": True})  # bool is not an int
    v = validate_lines([bad, _meta(1)])
    assert not v["ok"]
    assert any("dsm.write.iter" in e for e in v["errors"])


def test_optional_lineage_fields_both_ways():
    """Traces with and without the causal-layer fields both validate."""
    old = json.dumps({"t": 0.1, "kind": "gr.unblock", "node": 0, "locn": "x",
                      "curr_iter": 2, "age": 1, "waited": 0.5, "staleness": 1})
    new = json.dumps({"t": 0.2, "kind": "gr.unblock", "node": 0, "locn": "x",
                      "curr_iter": 2, "age": 1, "waited": 0.5, "staleness": 1,
                      "ref": "x@1", "writer": 1})
    v = validate_lines([old, new, _meta(2)])
    assert v["ok"], v["errors"]


def test_unknown_kind_warns_or_errors():
    odd = json.dumps({"t": 0.1, "kind": "custom.thing", "node": 0})
    lines = [odd, _meta(1)]
    assert validate_lines(lines)["ok"]
    assert validate_lines(lines)["warning_count"] == 1
    strict = validate_lines(lines, strict=True)
    assert not strict["ok"]


def test_fault_prefix_kinds_accepted():
    f = json.dumps({"t": 0.1, "kind": "fault.drop", "node": 2, "src": 0,
                    "frame_kind": "pvm"})
    v = validate_lines([f, _meta(1)], strict=True)
    assert v["ok"], v["errors"]


def test_detail_lists_are_bounded():
    lines = ["{bad" for _ in range(200)]
    v = validate_lines(lines)
    assert v["error_count"] >= 200
    assert len(v["errors"]) <= 50


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        validate_trace(str(tmp_path / "nope.jsonl"))
