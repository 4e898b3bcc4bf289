"""The layer table covers the source tree and the contract file matches."""

import json
import re
from pathlib import Path

import pytest

import layers
import metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent.parent


def test_every_source_file_has_one_layer():
    assert layers.self_test(ROOT / "src" / "repro") == []


def test_layer_of():
    assert layers.layer_of("sim/kernel.py") == "sim"
    assert layers.layer_of("sim/parallel/coordinator.py") == "par"
    assert layers.layer_of("analysis/coherence/astpass.py") == "other"
    assert layers.layer_of("__init__.py") == "other"
    assert layers.layer_of(layers.HARNESS) == "other"
    with pytest.raises(KeyError):
        layers.layer_of("serving/app.py")


def test_a_new_package_cannot_fall_off_the_ledger(tmp_path, monkeypatch):
    for package in layers.PACKAGE_LAYER:
        (tmp_path / package).mkdir(parents=True, exist_ok=True)
    for rel in layers.HOT_MODULES:
        (tmp_path / rel).touch()
    assert layers.self_test(tmp_path) == []
    (tmp_path / "serving").mkdir()
    (tmp_path / "serving" / "app.py").touch()
    assert any("serving" in p for p in layers.self_test(tmp_path))
    # naming it 'other' in the table is not a way out either
    monkeypatch.setitem(layers.PACKAGE_LAYER, "serving", "other")
    assert any("lands in 'other'" in p for p in layers.self_test(tmp_path))


def test_benchmark_json_is_the_rendered_registry():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == metrics.benchmark_json()


def test_benchmark_json_keeps_the_contract_limits():
    doc = metrics.benchmark_json()
    named = doc["workloads"] + doc["end_to_end"] + doc["per_layer"]
    names = [m["name"] for m in named]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(
        re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
        for m in doc["end_to_end"] + doc["per_layer"]
    )
    assert 2 <= len(WORKLOADS) <= 8 and len(doc["per_layer"]) <= 128
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
