"""Data model of the static coherence analyzer.

The analyzer's vocabulary, shared by the AST pass
(:mod:`repro.analysis.coherence.astpass`), the classifier
(:mod:`repro.analysis.coherence.classify`) and the static↔dynamic
cross-validator (:mod:`repro.analysis.coherence.crossval`):

* an :class:`AccessSite` is one discovered DSM operation in source —
  a ``write``, ``global_read``, ``read_local`` or location
  ``register`` — with its resolved location *pattern* and (for
  ``global_read``) the age bound that reaches it;
* a :class:`ContractDecl` is one ``dsm_contract(...)`` declaration as
  written in source — a :class:`~repro.core.contract.StalenessContract`
  plus its position, so the analyzer validates what the AST says
  through the same constructor the import-time declaration uses;
* a :class:`LocationVerdict` is the per-location outcome: the inferred
  race-tolerance class on the :data:`~repro.core.contract.
  TOLERANCE_CLASSES` lattice, the static verdict
  (``strict``/``tolerated``) and the evidence trail;
* a :class:`CoherenceFinding` is one RPR1xx rule hit.  There is no
  suppression file: a reviewed exception is a ``dsm_contract(...,
  reason=...)`` next to the code.

Rule codes (the RPR1xx block; RPR0xx is the determinism lint)
-------------------------------------------------------------
=======  ==============================================================
RPR101   DSM location with access sites but no declared contract
RPR102   a static age bound exceeds the contract's declared age
RPR103   an unbounded read on a location whose contract declares a
         finite age (``read_local`` cannot honour a staleness bound)
RPR104   inferred tolerance class is weaker than the declared one
RPR105   a traced run observed more staleness than the static
         verdict or a finite contract age allows
=======  ==============================================================
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

from repro.core.contract import TOLERANCE_CLASSES, StalenessContract, tolerance_rank
from repro.inputs import unconstrained

#: schema tag of the ``python -m repro.analysis coherence --json`` envelope
COHERENCE_SCHEMA = "repro-analysis-coherence/1"

#: rule code -> (short name, fix-it hint)
COHERENCE_RULES: dict[str, tuple[str, str]] = {
    "RPR101": (
        "missing-contract",
        "declare dsm_contract('<pattern>', writers=..., age=..., "
        "tolerance=...) next to the code registering the location",
    ),
    "RPR102": (
        "age-exceeds-contract",
        "lower the global_read age bound or raise the contract's "
        "declared age",
    ),
    "RPR103": (
        "unbounded-read-under-bounded-contract",
        "use global_read with an age within the contract, or declare "
        "age=None if unbounded staleness is algorithmically tolerable",
    ),
    "RPR104": (
        "class-mismatch",
        "strengthen the access discipline to match the declared "
        "tolerance, or weaken the contract's tolerance class",
    ),
    "RPR105": (
        "static-dynamic-mismatch",
        "the declared/inferred tolerance and the observed run disagree; "
        "fix the code or the contract, not the evidence",
    ),
}

#: site kinds the AST pass produces
SITE_KINDS = ("write", "global_read", "read_local", "register")

#: exposure values, in increasing race exposure: a static verdict is
#: strict or tolerated, a traced run may also show unbounded
VERDICTS = ("strict", "tolerated", "unbounded")


@dataclass(frozen=True)
class AgeValue:
    """The age bound reaching one ``global_read`` site.

    ``kind`` is ``"const"`` (a literal or propagated constant, in
    ``value``), ``"symbolic"`` (an expression such as ``cfg.age`` —
    ``value`` then holds the declared default when one was resolved)
    or ``"unknown"``.
    """

    kind: str
    source: str
    value: int | None = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly dict form."""
        return asdict(self)


@dataclass(frozen=True)
class AccessSite:
    """One discovered DSM access in source."""

    kind: str
    pattern: str
    path: str
    line: int
    col: int
    age: AgeValue | None = None
    #: the enclosing function contains a ``task.barrier(...)`` call
    barrier_in_scope: bool = False
    #: free-text resolution notes (how the pattern/age were derived)
    note: str = ""

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly dict form (age expanded)."""
        out = asdict(self)
        out["age"] = self.age.to_dict() if self.age else None
        return out


@dataclass(frozen=True)
class ContractDecl(StalenessContract):
    """One ``dsm_contract(...)`` declaration found in source.

    Construction validates the terms (``ValueError``); equality compares
    the terms only, so two declarations of one pattern conflict exactly
    when they differ on what they promise, wherever they are written.
    """

    path: str = field(default="", compare=False, repr=False)
    line: int = unconstrained("an ast line number", default=0, compare=False, repr=False)

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly dict form."""
        return asdict(self)


@dataclass(frozen=True)
class CoherenceFinding:
    """One RPR1xx rule hit."""

    code: str
    name: str
    message: str
    fixit: str
    path: str
    line: int
    pattern: str

    def format(self) -> str:
        """One-line ``path:line: CODE message`` rendering."""
        return (
            f"{self.path}:{self.line}: {self.code} [{self.pattern}] "
            f"{self.message} (fix: {self.fixit})"
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly dict form."""
        return asdict(self)


def make_finding(
    code: str, message: str, path: str, line: int, pattern: str
) -> CoherenceFinding:
    """Build a finding for ``code`` with the registered name and fix-it."""
    name, fixit = COHERENCE_RULES[code]
    return CoherenceFinding(
        code=code,
        name=name,
        message=message,
        fixit=fixit,
        path=path,
        line=line,
        pattern=pattern,
    )


@dataclass
class LocationVerdict:
    """The per-location outcome of classification."""

    pattern: str
    inferred_class: str
    verdict: str
    contract: ContractDecl | None
    sites: list[AccessSite] = field(default_factory=list)
    evidence: list[str] = field(default_factory=list)

    @property
    def write_sites(self) -> list[AccessSite]:
        """The location's discovered write sites."""
        return [s for s in self.sites if s.kind == "write"]

    @property
    def read_sites(self) -> list[AccessSite]:
        """The location's discovered read sites (bounded and unbounded)."""
        return [s for s in self.sites if s.kind in ("global_read", "read_local")]

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly dict form (sites/contract expanded)."""
        return {
            "pattern": self.pattern,
            "class": self.inferred_class,
            "class_rank": tolerance_rank(self.inferred_class),
            "verdict": self.verdict,
            "contract": self.contract.to_dict() if self.contract else None,
            "sites": [s.to_dict() for s in self.sites],
            "evidence": list(self.evidence),
        }


__all__ = [
    "AccessSite",
    "AgeValue",
    "COHERENCE_RULES",
    "COHERENCE_SCHEMA",
    "ContractDecl",
    "CoherenceFinding",
    "LocationVerdict",
    "SITE_KINDS",
    "TOLERANCE_CLASSES",
    "VERDICTS",
    "make_finding",
]
