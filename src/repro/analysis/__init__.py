"""Static analysis and runtime sanitizers for the reproduction.

Three layers (see DESIGN.md §7):

``repro.analysis.lint``
    AST-based determinism lint: rule classes ``RPR0xx`` catch unseeded
    randomness, wall-clock reads, iteration-order hazards, illegal
    simulator syscalls, DSM-bypassing mutations and statically-negative
    `Global_Read` ages — the bug classes that silently break the repo's
    determinism and bounded-staleness contracts.

``repro.analysis.races``
    A runtime happens-before classifier built from vector clocks over
    the PVM message layer plus the DSM's checker hooks.  It classifies
    every read/write pair on a shared location as *synchronized*,
    *tolerated race* (staleness within the `Global_Read` age bound) or
    *unbounded race* — turning the paper's §2.1 delta-consistency
    argument into an executable check.

``repro.analysis.coherence``
    Static whole-program coherence analyzer: an interprocedural AST
    pass discovers every DSM access site, classifies each shared
    location's race tolerance on the
    :data:`~repro.core.contract.TOLERANCE_CLASSES` lattice, checks
    declared ``dsm_contract(...)`` staleness contracts, and
    cross-validates static verdicts against run traces (rule block
    ``RPR1xx``).

``repro.analysis.cli``
    ``python -m repro.analysis {lint,report,coherence}`` with
    CI-friendly exit codes, plus the ``sanitize_dsm`` pytest fixture
    (:mod:`repro.analysis.fixtures`) that auto-attaches the classifier
    when ``REPRO_SANITIZE=1``.
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
from repro.analysis.races import (
    RaceClass,
    RaceClassifier,
    RacePair,
    VectorClock,
    attach_race_classifier,
)
from repro.analysis.report import classify_island_run, race_table

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
    "RaceClassifier",
    "RacePair",
    "VectorClock",
    "attach_race_classifier",
    "classify_island_run",
    "race_table",
]
