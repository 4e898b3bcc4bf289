"""Static analysis and runtime sanitizers for the reproduction.

* :mod:`repro.analysis.lint` — the ``RPR0xx`` determinism lint;
* :mod:`repro.analysis.races` — the happens-before race fold over a run
  trace (DESIGN.md §7), behind ``python -m
  repro.experiments.race_report``;
* :mod:`repro.analysis.coherence` — the static coherence analyzer and
  its trace cross-check (``RPR1xx``);
* :mod:`repro.analysis.cli` — ``python -m repro.analysis
  {lint,coherence}``; :mod:`repro.analysis.fixtures` — the
  ``REPRO_SANITIZE=1`` pytest fixture.
"""

from repro.analysis.coherence import (
    CoherenceFinding,
    CoherenceReport,
    LocationVerdict,
    run_coherence,
)
from repro.analysis.lint import (
    DEFAULT_EXCLUDES,
    Finding,
    lint_paths,
    lint_source,
)
from repro.analysis.races import RaceClass, RacePair, VectorClock, classify_races

__all__ = [
    "CoherenceFinding",
    "CoherenceReport",
    "DEFAULT_EXCLUDES",
    "Finding",
    "LocationVerdict",
    "run_coherence",
    "lint_paths",
    "lint_source",
    "RaceClass",
    "RacePair",
    "VectorClock",
    "classify_races",
]
