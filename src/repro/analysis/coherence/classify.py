"""Race-tolerance classification and contract checking.

Takes the AST pass's output (:class:`~repro.analysis.coherence.astpass.
ScanResult`) and produces, per DSM location pattern, a
:class:`~repro.analysis.coherence.model.LocationVerdict` plus any
RPR101–RPR104 findings.

Inference on the :data:`~repro.core.contract.TOLERANCE_CLASSES`
lattice
---------------------------------------------------------------------
A location's inferred class is the weakest (most race-exposed) class
its discovered access sites force:

* no write sites → ``read_only``;
* writes but no read sites → ``single_writer`` (the DSM registry
  enforces one writer per location at runtime);
* every read a strict ``global_read(..., 0)`` → ``phase_concurrent``
  when a barrier call is in scope of every read (write phase and read
  phase are separated), else ``single_writer``;
* any read that can return stale data (a non-zero or symbolic age
  bound, or an unbounded ``read_local``) → ``commutative``: only a
  class that tolerates staleness can cover it.

The **static verdict** compresses the read-side exposure to the
dynamic classifier's vocabulary (strict / tolerated) so
:mod:`repro.analysis.coherence.crossval` can compare it with what a
traced run observed.
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Iterable, Protocol, TypeVar

from repro.analysis.coherence.astpass import ScanResult
from repro.analysis.coherence.model import (
    AccessSite,
    CoherenceFinding,
    ContractDecl,
    LocationVerdict,
    make_finding,
)
from repro.core.contract import tolerance_rank


class _Patterned(Protocol):
    @property
    def pattern(self) -> str: ...


_P = TypeVar("_P", bound=_Patterned)


def most_specific(name: str, candidates: Iterable[_P]) -> _P | None:
    """The candidate whose fnmatch ``pattern`` covers location ``name``
    most specifically: the longest pattern wins, the first on a tie.

    The one matcher behind both lookups — a contract for an access
    pattern (pass ``pattern.replace("*", "0")``, a representative
    name) and a static verdict for a location observed at runtime.
    """
    best: _P | None = None
    for c in candidates:
        if fnmatchcase(name, c.pattern) and (
            best is None or len(c.pattern) > len(best.pattern)
        ):
            best = c
    return best


def _is_strict_read(site: AccessSite) -> bool:
    return (
        site.kind == "global_read"
        and site.age is not None
        and site.age.kind == "const"
        and site.age.value == 0
    )


def infer_class(sites: list[AccessSite]) -> tuple[str, list[str]]:
    """(inferred tolerance class, evidence trail) for one location."""
    evidence: list[str] = []
    writes = [s for s in sites if s.kind == "write"]
    reads = [s for s in sites if s.kind in ("global_read", "read_local")]
    if not writes:
        evidence.append("no write sites discovered -> read_only")
        return "read_only", evidence
    if not reads:
        evidence.append("writes but no read sites -> single_writer")
        return "single_writer", evidence
    stale_capable = [s for s in reads if not _is_strict_read(s)]
    if not stale_capable:
        if all(s.barrier_in_scope for s in reads):
            evidence.append(
                "all reads strict (age 0) with a barrier in scope -> "
                "phase_concurrent"
            )
            return "phase_concurrent", evidence
        evidence.append(
            "all reads strict (age 0) but no barrier separates phases -> "
            "single_writer"
        )
        return "single_writer", evidence
    for s in stale_capable:
        desc = s.age.source if s.age is not None else "no bound"
        evidence.append(
            f"{s.path}:{s.line} {s.kind} may return stale data (age: {desc})"
        )
    evidence.append("stale-capable reads -> commutative")
    return "commutative", evidence


def static_verdict(sites: list[AccessSite]) -> str:
    """``strict`` when every read is a strict ``global_read``, else
    ``tolerated``: a bounded read never returns a copy older than its
    bound, and a stale-capable read infers as ``commutative``, the claim
    that staleness is harmless.  Only a traced run can show more."""
    reads = [s for s in sites if s.kind in ("global_read", "read_local")]
    return "strict" if all(_is_strict_read(s) for s in reads) else "tolerated"


def _check_contract(
    pattern: str,
    contract: ContractDecl | None,
    sites: list[AccessSite],
    inferred: str,
) -> list[CoherenceFinding]:
    findings: list[CoherenceFinding] = []
    anchor = sites[0]
    if contract is None:
        findings.append(
            make_finding(
                "RPR101",
                f"DSM location {pattern!r} has {len(sites)} access site(s) "
                "but no declared staleness contract",
                anchor.path,
                anchor.line,
                pattern,
            )
        )
        return findings

    for s in sites:
        if s.kind != "global_read" or s.age is None:
            continue
        if contract.age is not None:
            bound = s.age.value
            if s.age.kind in ("const", "symbolic") and bound is not None:
                if bound > contract.age:
                    findings.append(
                        make_finding(
                            "RPR102",
                            f"global_read age {bound} (from {s.age.source}) "
                            f"exceeds the contract's declared age "
                            f"{contract.age}",
                            s.path,
                            s.line,
                            pattern,
                        )
                    )
            elif s.age.kind == "unknown":
                findings.append(
                    make_finding(
                        "RPR103",
                        f"age bound {s.age.source!r} is statically "
                        f"unresolvable but the contract declares a finite "
                        f"age {contract.age}",
                        s.path,
                        s.line,
                        pattern,
                    )
                )
    if contract.age is not None:
        for s in sites:
            if s.kind == "read_local":
                findings.append(
                    make_finding(
                        "RPR103",
                        "read_local cannot honour a staleness bound but the "
                        f"contract declares a finite age {contract.age}",
                        s.path,
                        s.line,
                        pattern,
                    )
                )

    if tolerance_rank(inferred) > tolerance_rank(contract.tolerance):
        findings.append(
            make_finding(
                "RPR104",
                f"inferred class {inferred!r} is weaker than the declared "
                f"{contract.tolerance!r}",
                contract.path,
                contract.line,
                pattern,
            )
        )

    return findings


def classify_scan(
    scan: ScanResult,
) -> tuple[list[LocationVerdict], list[CoherenceFinding]]:
    """Classify every discovered location and check its contract.

    Returns ``(verdicts, findings)``; verdicts are sorted by pattern,
    findings by (path, line, code).  ``<unresolved>`` patterns become
    per-site RPR101s (an access the analyzer cannot attribute is an
    access nobody's contract covers).
    """
    by_pattern: dict[str, list[AccessSite]] = {}
    for site in scan.sites:
        by_pattern.setdefault(site.pattern, []).append(site)

    verdicts: list[LocationVerdict] = []
    findings: list[CoherenceFinding] = []
    for pattern in sorted(by_pattern):
        sites = sorted(by_pattern[pattern], key=lambda s: (s.path, s.line))
        if pattern == "<unresolved>":
            for s in sites:
                findings.append(
                    make_finding(
                        "RPR101",
                        f"unresolvable location expression at a {s.kind} "
                        f"site ({s.note}) — no contract can cover it",
                        s.path,
                        s.line,
                        pattern,
                    )
                )
            continue
        inferred, evidence = infer_class(sites)
        contract = most_specific(pattern.replace("*", "0"), scan.contracts)
        findings.extend(_check_contract(pattern, contract, sites, inferred))
        verdicts.append(
            LocationVerdict(
                pattern=pattern,
                inferred_class=inferred,
                verdict=static_verdict(sites),
                contract=contract,
                sites=sites,
                evidence=evidence,
            )
        )
    findings.sort(key=lambda f: (f.path, f.line, f.code))
    return verdicts, findings
