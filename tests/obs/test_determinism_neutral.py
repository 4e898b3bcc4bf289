"""Tracing must not change a single bit of any run.

This is the load-bearing contract of `repro.obs` (DESIGN.md §10): the
golden digests of `repro.check` were recorded with tracing
*off*, and a run with tracing *on* must reproduce them exactly — the
hooks may observe state changes but never perturb RNG draws, event
ordering or results.
"""

from dataclasses import replace

from repro.check import GOLDEN, ga_digest, golden_ga
from repro.ga.island import run_island_ga


def test_traced_ga_run_matches_untraced_golden():
    cfg = golden_ga()
    cfg = replace(cfg, machine=replace(cfg.machine, trace=True))
    assert ga_digest(run_island_ga(cfg)) == GOLDEN["ga_result"]


def test_untraced_digests_still_match_golden(check_report):
    """Every golden holds with the obs hooks merely *present*."""
    assert all(r["ok"] for r in check_report.values()), check_report


def test_span_building_leaves_trace_untouched():
    """Building the causal graph is read-only: digests are unmoved."""
    from repro.obs.causal import attribute, build_spans, critical_path
    from tests.obs.conftest import two_deme_ga_run

    run = two_deme_ga_run(3, ga_generations=25)
    before = run.bus.digest()
    g = build_spans(run.bus.events)
    attribute(g)
    critical_path(g)
    assert run.bus.digest() == before
    # and the lineage hooks are pure functions of the seed too: a
    # second identical run, analysed or not, lands on the same digest
    again = two_deme_ga_run(3, ga_generations=25)
    assert again.bus.digest() == before
