"""Declared staleness contracts for shared DSM locations.

The paper's premise is that some data races are *tolerable*; a
:class:`StalenessContract` is the application's written-down claim of
exactly how much race tolerance a family of shared locations has.  The
claim has three axes:

``writers``
    Maximum number of distinct producing tasks a single location may
    have.  Everything in this repository is single-writer (the DSM
    enforces it at :meth:`repro.core.dsm.Dsm.register` time); the axis
    exists so multi-writer protocols (ROADMAP item 3) can declare
    themselves honestly.
``age``
    The largest staleness bound (in producer iterations) any reader is
    allowed to request, or ``None`` when *unbounded* staleness is
    algorithmically tolerable (e.g. GA migrant incorporation, where
    selection makes arbitrarily-stale immigrants harmless).  ``age=0``
    declares strict, phase-separated access.
``tolerance``
    The declared race-tolerance class, one of
    :data:`TOLERANCE_CLASSES` — the same lattice the static analyzer
    (:mod:`repro.analysis.coherence`) infers from source, so declared
    and inferred classes are directly comparable.

Contracts are declared once, at module import time, next to the code
that registers the locations::

    from repro.core.contract import dsm_contract

    dsm_contract(
        "migrants.*", writers=1, age=None, tolerance="commutative",
        reason="selection-based incorporation is order/staleness-insensitive",
    )

A declaration is also the only way to record a reviewed exception: the
``reason`` says why the race is acceptable, next to the code.  The
static coherence analyzer reads contracts *from the AST* (so the checked
contract is what the source says, not what happens to be imported),
validates each one through :class:`StalenessContract`, and refuses two
declarations of one pattern on different terms.  Declaring a contract
has **no effect on the DSM hot path** — importing a module only checks
its terms; no per-read or per-write check is added and the determinism
digests are byte-identical with or without declarations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.inputs import at_least, check_fields, nonempty, one_of

#: the race-tolerance lattice, ordered from least to most race exposure;
#: index order is what "weaker/stronger class" means everywhere
TOLERANCE_CLASSES: tuple[str, ...] = (
    "read_only",
    "single_writer",
    "phase_concurrent",
    "commutative",
    "unbounded",
)


def tolerance_rank(name: str) -> int:
    """Lattice index of a tolerance class (raises on unknown names)."""
    try:
        return TOLERANCE_CLASSES.index(name)
    except ValueError:
        raise ValueError(
            f"unknown tolerance class {name!r} "
            f"(known: {', '.join(TOLERANCE_CLASSES)})"
        ) from None


@dataclass(frozen=True)
class StalenessContract:
    """One declared contract over a family of shared locations.

    ``pattern`` is an ``fnmatch``-style glob over location names
    (``"migrants.*"``).  See the module docstring for the semantics of
    the other fields; construction raises ``ValueError`` on terms no
    location could honour.
    """

    pattern: str = nonempty()
    writers: int = at_least(1, default=1)
    #: the staleness tolerance; None = unbounded
    age: int | None = at_least(0, default=None, optional=True)
    tolerance: str = one_of(TOLERANCE_CLASSES, default="commutative")
    reason: str = ""

    def __post_init__(self) -> None:
        check_fields(self)


def dsm_contract(
    pattern: str,
    *,
    writers: int = 1,
    age: int | None = None,
    tolerance: str = "commutative",
    reason: str = "",
) -> StalenessContract:
    """Declare a staleness contract for locations matching ``pattern``.

    The lightweight annotation form used at module level next to the
    code registering the locations; validates the terms at import time
    and returns the contract.
    """
    return StalenessContract(
        pattern=pattern, writers=writers, age=age, tolerance=tolerance,
        reason=reason,
    )
