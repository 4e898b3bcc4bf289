"""One summary, three renderers: the numbers agree and the old seams are gone.

``report_dict`` is the single place each reported quantity is computed;
the text report, the ``--json`` envelope and the ``--html`` page only
format it.  These tests hold the three to the *same numbers* on four
differently shaped traces (Ethernet GA, rollback Bayes, switched
fabric, merged 2-shard) and to the same set of optional sections, and
scan the tree for the names this fold deleted.
"""

import json
import re
from pathlib import Path

import pytest

from repro.ga.island import run_island_ga
from repro.obs.bus import read_jsonl
from repro.obs.dashboard import render_dashboard
from repro.obs.report import fmt, render_report, report_dict, tables

REPO = Path(__file__).resolve().parents[2]


def _switched_events():
    from repro.experiments.scale_study import scenario

    holder: dict = {}
    run_island_ga(
        scenario(8, "ring", "hierarchical", age=2, n_generations=6,
                 measure_warp=True, trace=True),
        instrument=lambda dsm: holder.setdefault("dsm", dsm),
    )
    return holder["dsm"].vm.kernel.obs.events


def _sharded_events(tmp_path_factory):
    from repro.check import golden_ga

    cfg = golden_ga(n_demes=4, seed=11, n_generations=15, load_bps=1e6, trace=True)
    path = str(tmp_path_factory.mktemp("fold") / "merged.jsonl")
    result = run_island_ga(cfg, shards=2, trace_path=path)
    info = result.metrics["parallel"]
    if not info["sharded"]:  # pragma: no cover - platform without procs
        pytest.skip(f"worker processes unavailable: {info['fallback']}")
    return list(read_jsonl(path))


@pytest.fixture(scope="module", params=["ga", "bayes", "switched", "sharded"])
def shaped(request, ga_run, bayes_run, tmp_path_factory):
    """(shape name, events, metrics) of one of the four trace shapes."""
    if request.param == "ga":
        return "ga", ga_run.bus.events, ga_run.metrics
    if request.param == "bayes":
        return "bayes", bayes_run.bus.events, bayes_run.metrics
    if request.param == "switched":
        return "switched", _switched_events(), None
    return "sharded", _sharded_events(tmp_path_factory), None


def test_three_renderers_show_the_same_numbers(shaped):
    shape, events, metrics = shaped
    rep = report_dict(events, metrics=metrics)
    text = render_report(events, metrics=metrics)
    html = render_dashboard(events, metrics=metrics)
    # the JSON envelope *is* the dict
    assert json.loads(json.dumps(rep, sort_keys=True, default=str))["schema"] == (
        "repro-obs-report/2"
    )

    shown = [
        rep["blocking"]["totals"]["waited"],
        rep["attribution"]["totals"]["gr_blocking"],
        *rep["attribution"]["totals"].values(),
        *rep["critical_path"]["by_kind"].values(),
        rep["warp"]["all"]["mean"],
    ]
    for value in shown:
        assert fmt(value) in text, (shape, value)
        assert f">{fmt(value)}<" in html, (shape, value)
    # staleness histogram: every (staleness, reads) row, in both
    assert rep["staleness"]["hist"], shape
    for s, n in rep["staleness"]["hist"].items():
        assert re.search(rf"^{s} +{n}$", text, re.M), (shape, s, n)
        assert f"<tr><td>{s}</td><td>{n}</td></tr>" in html
        assert f"<title>staleness {s} · {n} reads</title>" in html
    # rollback count: table row in both, and the HTML tile
    n_rb = rep["rollback"]["rollbacks"] if rep["rollback"] else 0
    assert f"<div class='v'>{n_rb:,}</div><div class='k'>rollbacks</div>" in html
    if rep["rollback"]:
        assert re.search(rf"^rollbacks +{n_rb}$", text, re.M)
        assert f"<tr><td>rollbacks</td><td>{n_rb}</td></tr>" in html
    # the tiles read the same dict
    assert f"<div class='v'>{fmt(rep['warp']['all']['mean'])}</div>" in html
    assert (
        f"<div class='v'>{fmt(rep['attribution']['totals']['gr_blocking'])}s</div>"
        in html
    )


def test_optional_sections_in_all_three_or_none(shaped):
    shape, events, metrics = shaped
    rep = report_dict(events, metrics=metrics)
    text = render_report(events, metrics=metrics)
    html = render_dashboard(events, metrics=metrics)
    optional = {
        "rollback": "Rollback summary (Time-Warp)",
        "commits": "GVT / commits",
        "fabric": "Switched fabric deliveries",
        "parallel": "Parallel kernel (bounded-lag windows)",
    }
    expected = {
        "ga": set(),
        "bayes": {"rollback", "commits"},
        "switched": {"fabric"},
        "sharded": {"parallel"},
    }[shape]
    assert {k for k in optional if rep[k] is not None} == expected
    for key, title in optional.items():
        present = key in expected
        assert (title in text) == present, (shape, key)
        assert (title in html) == present, (shape, key)
    # every table section is a card on the page and a block of the text
    for title, _, _ in tables(rep):
        assert title in text
        assert title.replace("<", "&lt;") in html


_GONE = re.compile(r"prof_section|repro\.obs\.prof|RunStore|ambient_profiler")


def test_no_trace_of_the_profiler_or_the_store_in_the_tree():
    """The section profiler and the run store left no hook, alias or shim."""
    assert not (REPO / "src/repro/obs/prof.py").exists()
    assert not (REPO / "src/repro/obs/store.py").exists()
    hits = [
        f"{path.relative_to(REPO)}:{i}: {line.strip()}"
        for top in ("src", "examples", "benchmarks")
        for path in sorted((REPO / top).rglob("*.py"))
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if _GONE.search(line)
    ]
    assert hits == []
