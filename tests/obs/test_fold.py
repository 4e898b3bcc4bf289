"""One summary, three renderers: the numbers agree and the old seams are gone.

``report_dict`` is the single place each reported quantity is computed;
the text report, the ``--json`` envelope and the ``--html`` page only
format it.  These tests hold the three to the *same numbers* on four
differently shaped traces (Ethernet GA, rollback Bayes, switched
fabric, merged 2-shard) and to the same set of optional sections, hold
the HTML timeline's one-sweep column rule to its per-pixel definition,
and scan the tree for the names this fold deleted.
"""

import json
import random
import re
from pathlib import Path

import pytest

from repro.ga.island import run_island_ga
from repro.obs.bus import read_jsonl
from repro.obs.causal import build_spans
from repro.obs.dashboard import _BUCKET_PRI, _PLOT_W, _dominant_columns, render_dashboard
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
    from dataclasses import replace

    from repro.check import golden_ga

    cfg = golden_ga(n_demes=4, seed=11, n_generations=15, load_bps=1e6)
    cfg = replace(cfg, machine=replace(cfg.machine, trace=True))
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
    # rollback count: table row in both
    if rep["rollback"]:
        n_rb = rep["rollback"]["rollbacks"]
        assert re.search(rf"^rollbacks +{n_rb}$", text, re.M)
        assert f"<tr><td>rollbacks</td><td>{n_rb}</td></tr>" in html


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


def _per_pixel_columns(segments, t_end):
    """The timeline's column rule by definition: every column sums each
    bucket's time in it and shows the largest, ties to ``_BUCKET_PRI``."""
    if t_end <= 0 or not segments:
        return []
    occupancy: list[dict[str, float]] = [{} for _ in range(_PLOT_W)]
    scale = _PLOT_W / t_end
    for t0, t1, bucket in segments:
        c0 = max(0, min(_PLOT_W - 1, int(t0 * scale)))
        c1 = max(0, min(_PLOT_W - 1, int(t1 * scale - 1e-9)))
        for c in range(c0, c1 + 1):
            lo = max(t0, c / scale)
            hi = min(t1, (c + 1) / scale)
            if hi > lo:
                occupancy[c][bucket] = occupancy[c].get(bucket, 0.0) + (hi - lo)
    runs: list[tuple[int, int, str]] = []
    for c, occ in enumerate(occupancy):
        if not occ:
            continue
        bucket = max(occ, key=lambda b: (occ[b], _BUCKET_PRI[b]))
        if runs and runs[-1][2] == bucket and runs[-1][1] == c - 1:
            runs[-1] = (runs[-1][0], c, bucket)
        else:
            runs.append((c, c, bucket))
    return runs


def test_the_timeline_sweep_equals_the_per_pixel_rule(shaped):
    shape, events, _ = shaped
    g = build_spans(sorted(events, key=lambda e: e.time))
    assert g.nodes, shape
    for node in g.nodes:
        tiles = g.node_tiles[node]
        assert _dominant_columns(tiles, g.t_end) == _per_pixel_columns(tiles, g.t_end), (
            shape, node)


def _tiles(cuts, buckets):
    return [(a, b, buckets[i % len(buckets)]) for i, (a, b) in enumerate(zip(cuts, cuts[1:]))]


@pytest.mark.parametrize("t_end", [float(_PLOT_W), 1.0, 0.0371])
def test_the_timeline_sweep_on_ties_and_sub_pixel_tiles(t_end):
    px = t_end / _PLOT_W
    cases = [
        # exact ties at t_end == _PLOT_W: columns halved between two buckets, then in thirds
        _tiles([0.0, 0.5 * px, px, 3 * px], ["network", "gr_blocking"]),
        _tiles([0.0, 2 * px, 2.5 * px, 3 * px, 9 * px], ["compute", "rollback", "network"]),
        _tiles([px / 3 * k for k in range(10)], ["compute", "network", "gr_blocking"]),
        # many sub-pixel tiles in one column, the same bucket twice in it
        _tiles([5 * px + px / 8 * k for k in range(9)], ["compute", "network"]),
        # tiles on exact column edges, and one reaching past t_end
        _tiles([0.0, px, 2 * px, 40 * px, t_end + px], ["rollback", "compute"]),
        _tiles([10 * px, 10 * px + 1e-15, 11 * px], ["gr_blocking", "compute"]),
    ]
    rng = random.Random(7)
    for _ in range(200):
        cuts = sorted({0.0, t_end} | {
            rng.choice([rng.random(), rng.randrange(_PLOT_W * 2) / 2 / _PLOT_W]) * t_end
            for _ in range(rng.randrange(1, 60))
        })
        cases.append([(a, b, rng.choice(list(_BUCKET_PRI))) for a, b in zip(cuts, cuts[1:])])
    for tiles in cases:
        assert _dominant_columns(tiles, t_end) == _per_pixel_columns(tiles, t_end), tiles


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
