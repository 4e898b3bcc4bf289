"""Race-tolerance classification and contract checking.

Takes the AST pass's output (:class:`~repro.analysis.coherence.astpass.
ScanResult`) and produces, per DSM location pattern, a
:class:`~repro.analysis.coherence.model.LocationVerdict` plus any
RPR101–RPR104 / RPR106 findings.

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
* any read that can return stale data (a positive or symbolic age
  bound, or an unbounded ``read_local``) → ``commutative`` **iff** the
  reducing operation passes the effect scan (no global-state RNG, wall
  clock, I/O, or ``global`` rebinding detected — staleness tolerance
  is only claimable when incorporation is order-insensitive, and an
  impure reducer makes that claim uncheckable), else ``unbounded``.

The **static verdict** compresses the read-side exposure to the
dynamic classifier's vocabulary (strict / tolerated / unbounded) so
:mod:`repro.analysis.coherence.crossval` can compare the two worlds
directly.
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Iterable, Protocol, TypeVar

from repro.analysis.coherence.astpass import ModuleScan, ScanResult
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


def _is_bounded_read(site: AccessSite) -> bool:
    """A read whose staleness has *some* static finite bound."""
    if site.kind != "global_read" or site.age is None:
        return False
    if site.age.kind == "const":
        return site.age.value is not None and site.age.value >= 0
    if site.age.kind == "symbolic":
        # a symbolic bound counts when the reaching default resolved and
        # a validation guard proves it can never be negative
        return site.age.value is not None and site.age.nonneg
    return False


def _reducer_effects_for(
    location_sites: list[AccessSite],
    modules: list[ModuleScan],
) -> list[str]:
    """Detected impure effects in the reducing code of these reads.

    The reducing operation is (a) the function body enclosing each
    read site and (b) any ``on_update`` handler bound in a module that
    touches the location — handler sites carry pattern ``*`` because
    they apply to every location their node reads.
    """
    effects: list[str] = []
    touched_modules = {s.module for s in location_sites}
    read_functions = {
        (s.module, s.function)
        for s in location_sites
        if s.kind in ("global_read", "read_local")
    }
    for m in modules:
        if m.module not in touched_modules:
            continue
        for qual, fx in sorted(m.reducer_effects.items()):
            if (m.module, qual) in read_functions:
                effects.extend(f"{m.module}.{qual}: {e}" for e in fx)
        for s in m.sites:
            if s.kind == "on_update" and s.target is not None:
                fx = m.reducer_effects.get(s.target, [])
                effects.extend(f"{m.module}.{s.target}: {e}" for e in fx)
    return effects


def infer_class(
    sites: list[AccessSite], reducer_effects: list[str]
) -> tuple[str, list[str]]:
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
    stale_capable = [
        s for s in reads if not _is_strict_read(s)
    ]
    if not stale_capable:
        barriers = all(s.barrier_in_scope for s in reads)
        if barriers:
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
    if reducer_effects:
        evidence.extend(f"impure reducer effect: {e}" for e in reducer_effects)
        evidence.append("stale reads + unverifiable reducer -> unbounded")
        return "unbounded", evidence
    evidence.append(
        "stale reads with an effect-free reducing operation -> commutative"
    )
    return "commutative", evidence


def static_verdict(sites: list[AccessSite], inferred: str) -> str:
    """Compress read-side exposure to strict / tolerated / unbounded."""
    reads = [s for s in sites if s.kind in ("global_read", "read_local")]
    if not reads or all(_is_strict_read(s) for s in reads):
        return "strict"
    unbounded_reads = [
        s
        for s in reads
        if s.kind == "read_local"
        or (not _is_strict_read(s) and not _is_bounded_read(s))
    ]
    if not unbounded_reads:
        return "tolerated"
    # unbounded staleness is still *tolerated* when the algorithm is
    # order/staleness-insensitive (the paper's GA-migration argument)
    return "tolerated" if inferred == "commutative" else "unbounded"


def _check_contract(
    pattern: str,
    contract: ContractDecl | None,
    sites: list[AccessSite],
    inferred: str,
    reducer_effects: list[str],
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

    if contract.tolerance == "commutative" and reducer_effects:
        listed = "; ".join(reducer_effects[:3])
        findings.append(
            make_finding(
                "RPR106",
                "the contract claims commutative incorporation but the "
                f"reducing operation has detected impure effects ({listed})",
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
    findings by (path, line, code).  ``on_update`` handler sites attach
    to every location of their module rather than forming locations of
    their own; ``<unresolved>`` patterns become per-site RPR101s (an
    access the analyzer cannot attribute is an access nobody's contract
    covers).
    """
    contracts = scan.contracts
    by_pattern: dict[str, list[AccessSite]] = {}
    for site in scan.sites:
        if site.kind == "on_update":
            continue
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
        reducer_effects = _reducer_effects_for(sites, scan.modules)
        inferred, evidence = infer_class(sites, reducer_effects)
        contract = most_specific(pattern.replace("*", "0"), contracts)
        verdict = static_verdict(sites, inferred)
        findings.extend(
            _check_contract(pattern, contract, sites, inferred, reducer_effects)
        )
        verdicts.append(
            LocationVerdict(
                pattern=pattern,
                inferred_class=inferred,
                verdict=verdict,
                contract=contract,
                sites=sites,
                evidence=evidence,
            )
        )
    findings.sort(key=lambda f: (f.path, f.line, f.code))
    return verdicts, findings
