"""Cross-run trace diffing (repro.obs.diff).

The acceptance-criterion shape, at test scale: diff a strict-ish run
(age=0) against a relaxed one (larger age) and the blocking delta must
carry the Figure-4 sign — the age=0 run blocks MORE, so with A=age0 and
B=age_max every ``gr.blocked_time`` delta (B − A) is negative.
"""

import pytest

from repro.obs.diff import (
    DIFF_SCHEMA,
    SUMMARY_METRICS,
    diff_traces,
    render_diff,
    run_profile,
)
from tests.obs.conftest import two_deme_ga_run


@pytest.fixture(scope="module")
def age_pair():
    """Two small traced GA runs differing only in the age tolerance."""
    a = two_deme_ga_run(7, ages=(0,), ga_generations=40)
    b = two_deme_ga_run(7, ages=(10,), ga_generations=40)
    return a, b


def test_run_profile_summary(age_pair):
    a, _ = age_pair
    p = run_profile(a.bus.events)
    assert set(p["summary"]) == set(SUMMARY_METRICS)
    assert p["summary"]["events"] == len(a.bus.events)
    assert p["summary"]["t_end"] > 0
    assert p["max_iter"] >= 1
    assert p["by_iter"], "GA run reports per-iteration Global_Read activity"


def test_diff_blocking_delta_sign(age_pair):
    """age=0 blocks more than age=10: B − A blocked time is negative."""
    a, b = age_pair
    d = diff_traces(a.bus.events, b.bus.events, label_a="age0", label_b="age10")
    assert d["schema"] == DIFF_SCHEMA
    assert d["delta"]["gr.blocked_time"] < 0
    # strict runs never read stale data; relaxed ones do
    assert d["delta"]["gr.mean_staleness"] >= 0
    summary = d["summary"]["gr.blocked_time"]
    assert summary["delta"] == pytest.approx(summary["b"] - summary["a"])


def test_diff_iteration_buckets_align(age_pair):
    a, b = age_pair
    d = diff_traces(a.bus.events, b.bus.events, bins=8)
    assert 1 <= len(d["iteration_buckets"]) <= 8
    assert d["common_max_iter"] >= 1
    for row in d["iteration_buckets"]:
        lo, hi = row["iters"]
        assert 1 <= lo <= hi <= d["common_max_iter"]
        assert row["blocked_delta"] == pytest.approx(
            row["blocked_b"] - row["blocked_a"]
        )


def test_diff_self_is_zero(age_pair):
    """A trace diffed against itself reports all-zero deltas."""
    a, _ = age_pair
    d = diff_traces(a.bus.events, a.bus.events)
    for m in SUMMARY_METRICS:
        assert d["delta"][m] == 0
    for row in d["iteration_buckets"]:
        assert row["blocked_delta"] == 0
        assert row["rollbacks_delta"] == 0


def test_render_diff_text(age_pair):
    a, b = age_pair
    d = diff_traces(a.bus.events, b.bus.events, label_a="A.jsonl", label_b="B.jsonl")
    text = render_diff(d)
    assert "A.jsonl" in text and "B.jsonl" in text
    assert "gr.blocked_time" in text
    assert "B - A" in text


def test_diff_empty_traces():
    d = diff_traces([], [])
    assert d["common_max_iter"] == 0
    assert d["iteration_buckets"] == []
    assert d["delta"]["events"] == 0
