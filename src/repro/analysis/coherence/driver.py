"""Pipeline driver for ``python -m repro.analysis coherence``.

Runs the AST pass over the requested paths, classifies every
discovered DSM location, optionally folds in dynamic evidence from run
traces, and renders the result as text or as a
:data:`~repro.analysis.coherence.model.COHERENCE_SCHEMA` envelope.

Exit-code policy matches the rest of the analysis CLI: 0 = every
location classified and no finding, 1 = findings, 2 = the analyzer
itself could not do its job (unreadable source, an invalid or
conflicting ``dsm_contract``, malformed traces).  There is no
suppression file: a reviewed exception is a ``dsm_contract(...,
reason=...)`` next to the code, where the analyzer checks it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.analysis.coherence.astpass import scan_paths
from repro.analysis.coherence.classify import classify_scan
from repro.analysis.coherence.crossval import (
    DynamicEvidence,
    cross_validate,
    load_dynamic_evidence,
)
from repro.analysis.coherence.model import (
    COHERENCE_SCHEMA,
    CoherenceFinding,
    LocationVerdict,
)
from repro.util.envelope import make_envelope, render_envelope


@dataclass
class CoherenceReport:
    """Everything one analyzer run produced."""

    paths: list[str]
    verdicts: list[LocationVerdict]
    findings: list[CoherenceFinding] = field(default_factory=list)
    evidence: dict[str, DynamicEvidence] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        """0 clean / 1 findings / 2 analyzer errors."""
        if self.errors:
            return 2
        return 1 if self.findings else 0

    def to_envelope(self) -> dict[str, Any]:
        """The ``repro-analysis-coherence/1`` document."""
        counts: dict[str, int] = {}
        for f in self.findings:
            counts[f.code] = counts.get(f.code, 0) + 1
        payload = {
            "paths": list(self.paths),
            "locations": [v.to_dict() for v in self.verdicts],
            "findings": [f.to_dict() for f in self.findings],
            "dynamic_evidence": [
                self.evidence[k].to_dict() for k in sorted(self.evidence)
            ],
            "errors": list(self.errors),
            "summary": {
                "locations": len(self.verdicts),
                "findings": len(self.findings),
                "by_code": counts,
                "by_class": _count_by(self.verdicts, "inferred_class"),
                "by_verdict": _count_by(self.verdicts, "verdict"),
            },
            "exit_code": self.exit_code,
        }
        return make_envelope(COHERENCE_SCHEMA, payload, digest=True)


def _count_by(verdicts: Sequence[LocationVerdict], attr: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for v in verdicts:
        key = getattr(v, attr)
        out[key] = out.get(key, 0) + 1
    return dict(sorted(out.items()))


def run_coherence(
    paths: Sequence[str], traces: Sequence[str] | None = None
) -> CoherenceReport:
    """Run the full static (+ optional trace-evidence) coherence analysis."""
    scan = scan_paths(list(paths))
    verdicts, findings = classify_scan(scan)
    errors = list(scan.errors)

    evidence: dict[str, DynamicEvidence] = {}
    if traces:
        evidence, ev_errors = load_dynamic_evidence(list(traces))
        errors.extend(ev_errors)
        if not ev_errors:
            findings = findings + cross_validate(verdicts, evidence)
            findings.sort(key=lambda f: (f.path, f.line, f.code))

    return CoherenceReport(
        paths=list(paths),
        verdicts=verdicts,
        findings=findings,
        evidence=evidence,
        errors=errors,
    )


def render_text(report: CoherenceReport) -> str:
    """Human-readable rendering of a report."""
    lines: list[str] = []
    header = (
        f"{'PATTERN':<18} {'CLASS':<16} {'VERDICT':<10} "
        f"{'CONTRACT':<22} SITES"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for v in report.verdicts:
        if v.contract is None:
            contract = "(none)"
        else:
            age = "inf" if v.contract.age is None else str(v.contract.age)
            contract = f"{v.contract.tolerance}(age={age})"
        w = len(v.write_sites)
        r = len(v.read_sites)
        lines.append(
            f"{v.pattern:<18} {v.inferred_class:<16} {v.verdict:<10} "
            f"{contract:<22} {w}w/{r}r"
        )
    if report.evidence:
        lines.append("")
        lines.append("dynamic evidence:")
        for locn in sorted(report.evidence):
            ev = report.evidence[locn]
            lines.append(
                f"  {locn}: {ev.exposure} "
                f"(reads={ev.reads}, tolerated={ev.tolerated}, "
                f"unbounded={ev.unbounded}, max_staleness={ev.max_staleness})"
            )
    if report.findings:
        lines.append("")
        for f in report.findings:
            lines.append(f.format())
    for err in report.errors:
        lines.append(f"error: {err}")
    lines.append("")
    n = len(report.verdicts)
    lines.append(
        f"{n} DSM location(s) classified, {len(report.findings)} finding(s)"
    )
    return "\n".join(lines)


def render_json(report: CoherenceReport) -> str:
    """Envelope rendering (canonical sorted-keys JSON)."""
    return render_envelope(report.to_envelope())
