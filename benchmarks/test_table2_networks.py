"""T2 — regenerate Table 2 (the four belief networks).

Shape expectations: the three random networks take ~11 s of simulated
uniprocessor inference, Hailfinder markedly less (paper: 3.15 s), and
its 2-way edge-cut is 4.
"""

from benchmarks.conftest import run_once
from repro.experiments.table2 import format_table2, run_table2


def test_table2(benchmark, save_result):
    rows = run_once(benchmark, run_table2)
    save_result("table2", format_table2(rows), data=rows)
    by_name = {r["name"]: r for r in rows}
    assert set(by_name) == {"A", "AA", "C", "Hailfinder"}
    for r in rows:
        assert r["converged"]
    # paper-shape checks
    for name in ("A", "AA", "C"):
        assert 7.0 < by_name[name]["inference_time"] < 16.0
    assert (
        by_name["Hailfinder"]["inference_time"]
        < 0.7 * by_name["A"]["inference_time"]
    )
    assert by_name["Hailfinder"]["edge_cut"] == 4
