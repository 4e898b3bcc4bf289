"""T1 — regenerate Table 1 (the eight-function GA test bed)."""

from benchmarks.conftest import run_once
from repro.experiments.table1 import format_table1, run_table1


def test_table1(benchmark, save_result):
    rows = run_once(benchmark, run_table1)
    save_result("table1", format_table1(rows), data=rows)
    assert len(rows) == 8
    # every minimum verified against the paper's column
    assert all(r["matches"] for r in rows)
