"""Tiny runs of the drivers no other fixture computes, pinned by hash.

The pins live in :mod:`tests.experiments.pins`; the fixtures that
already compute Table 1/2, the Figure 3 smoke rows and the tiny
Figure 2/4 sweeps pin theirs in ``test_runners.py``.  Every cheap run
here is also checked at ``jobs=2`` against ``jobs=1``: the fan-out must
be invisible in the output.
"""

import json
from dataclasses import replace

import pytest

from repro.analysis.report import classify_three_modes, race_table
from repro.experiments.config import Scale
from repro.experiments.quality import format_quality, run_quality
from repro.experiments.scale_study import format_scale_study, run_scale_study
from repro.experiments.warp_study import format_warp_study, run_warp_study
from tests.experiments.pins import PINS, sha256


@pytest.fixture(scope="module")
def tiny():
    return replace(
        Scale.smoke(), ga_runs=2, ga_generations=20, ages=(0, 10),
        processor_counts=(2,), loads_bps=(1e6,),
    )


@pytest.mark.parametrize("jobs", [1, 2])
def test_quality(tiny, jobs):
    text = format_quality(run_quality(tiny, fid=1, jobs=jobs), fid=1)
    assert sha256(text) == PINS["quality-tiny"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_warp_study(tiny, jobs):
    text = format_warp_study(run_warp_study(tiny, jobs=jobs))
    assert sha256(text) == PINS["warp_study-tiny"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_scale_study(tiny, jobs):
    rows = run_scale_study(replace(tiny, ages=(5,)), deme_counts=(4,), jobs=jobs)
    # host wall time is the one column that is not a function of the seed
    text = format_scale_study([{**r, "wall_us_per_msg": 0.0} for r in rows])
    assert sha256(text) == PINS["scale_study-tiny"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_race_report(monkeypatch, jobs):
    monkeypatch.setenv("REPRO_JOBS", jobs)
    runs = classify_three_modes(n_generations=12)
    text = race_table(runs) + "\n" + json.dumps(
        [r.to_dict() for r in runs], sort_keys=True
    )
    assert sha256(text) == PINS["race_report-tiny"]
