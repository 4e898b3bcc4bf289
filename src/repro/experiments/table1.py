"""Table 1 — the eight-function GA test bed.

Regenerates every column of Table 1 (function, variable count, limits,
minimum) from the implementation and *verifies* the minimum numerically
at the known optimum, so the printed table is evidence the test bed
matches the paper rather than a restatement of it.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.experiments.cli import Driver
from repro.experiments.reporting import text_table
from repro.experiments.runner import run_cells
from repro.ga.functions import TEST_FUNCTIONS, f4_noiseless, get_function

#: known optimizer of each function (used to verify the `min f(x)` column)
_OPTIMA = {
    1: np.zeros(3),
    2: np.array([1.0, 1.0]),
    3: np.full(5, -5.12),
    4: np.zeros(30),
    5: np.array([-32.0, -32.0]),
    6: np.zeros(20),
    7: np.full(10, 420.9687),
    8: np.zeros(10),
}


def _table1_row(fid: int) -> dict:
    """One function's row (one cell of the runner)."""
    fn = get_function(fid)
    x = np.clip(_OPTIMA[fn.fid], fn.lower, fn.upper)[None, :]
    measured = float(f4_noiseless(x)[0]) if fn.noisy else float(fn(x)[0])
    return {
        "fid": fn.fid,
        "name": fn.name,
        "n_vars": fn.n_vars,
        "limits": f"[{fn.lower}, {fn.upper}]",
        "paper_min": fn.min_value,
        "measured_min": measured,
        "bits_per_var": fn.bits_per_var,
        # F4's listed minimum (≤ −2.5) is the *noisy* floor; its
        # noiseless part is 0 at the optimum, which is what we can
        # verify deterministically.
        "matches": (
            abs(measured) < 0.5
            if fn.noisy
            else abs(measured - fn.min_value) < 0.5
        ),
    }


def run_table1(jobs: int | None = None) -> list[dict]:
    """One row per test function, with the measured minimum."""
    cells = [(fn.fid, partial(_table1_row, fn.fid)) for fn in TEST_FUNCTIONS]
    return [row for (row,) in run_cells(cells, jobs).values()]


def format_table1(rows: list[dict]) -> str:
    """Render Table 1 rows as a text table."""
    return text_table(
        ["f", "name", "vars", "limits", "min (paper)", "min (measured)", "ok"],
        [
            [
                r["fid"], r["name"], r["n_vars"], r["limits"],
                r["paper_min"], r["measured_min"], "yes" if r["matches"] else "NO",
            ]
            for r in rows
        ],
        title="Table 1 — eight function test bed for GAs",
        float_fmt="{:.4f}",
    )


main = Driver(
    "Table 1 — regenerate and verify the eight-function GA test bed.",
    run_table1,
    format_table1,
).main

if __name__ == "__main__":
    raise SystemExit(main())
