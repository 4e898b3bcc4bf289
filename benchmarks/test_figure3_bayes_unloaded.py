"""F3 — regenerate Figure 3 (Bayesian-network speedups, 2 processors).

Shape expectations (§5.1.2): on every network the best Global_Read age
beats both the synchronous and the fully asynchronous implementations;
the synchronous one runs below serial speed (the small networks "did not
exhibit enough parallelism"); the gains are largest for the skewed
Hailfinder network (paper: > 80 % over the best competitor).
"""

from benchmarks.conftest import run_once
from repro.experiments.figure3 import format_figure3, run_figure3


def test_figure3(benchmark, scale, save_result):
    rows = run_once(benchmark, run_figure3, scale)
    save_result("figure3", format_figure3(rows), data=rows)
    assert [r["network"] for r in rows] == ["A", "AA", "C", "Hailfinder", "average"]
    for r in rows:
        sp = r["speedups"]
        best_gr = max(v for k, v in sp.items() if k.startswith("gr"))
        assert best_gr > sp["sync"], r["network"]
        assert best_gr > sp["async"], r["network"]
        assert sp["sync"] < 1.0, r["network"]
    avg = next(r for r in rows if r["network"] == "average")
    # the paper reports 78% over best competitor on average; require a
    # substantial positive gain without pinning the exact number
    assert avg["gain_over_best_competitor"] > 0.2
