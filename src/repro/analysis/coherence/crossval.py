"""Static↔dynamic cross-validation of coherence verdicts.

The static analyzer claims, per location, a verdict on the
``strict < tolerated < unbounded`` axis.  The dynamic evidence that can
contradict it is a **run trace** (:mod:`repro.obs`): ``gr.hit`` /
``gr.unblock`` events carry the requested age bound and the returned
staleness, so a traced run shows how stale each location's reads
actually were.  Traces are read by the observability layer's own
reader (:func:`repro.obs.bus.read_jsonl`, plain or gzip, rotated parts
included) after :func:`repro.obs.schema.validate_trace` accepts them.

A location whose *observed* exposure is strictly worse than its
*static* verdict is a hard RPR105 finding: a statically-``strict``
location with tolerated races means the phase discipline the analyzer
saw does not hold at runtime; a statically-``tolerated`` location with unbounded races means the bound the
analyzer trusted is not enforced.  The converse (static worse than
observed) is *not* a finding — dynamic coverage is one run's worth of
evidence, and a conservative static verdict is exactly what partial
coverage deserves.  What **is** checked in both directions: observed
staleness must stay within a finite declared contract age.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.coherence.classify import most_specific
from repro.analysis.coherence.model import (
    VERDICTS,
    CoherenceFinding,
    LocationVerdict,
    make_finding,
)
from repro.obs.bus import read_jsonl, trace_paths
from repro.obs.schema import validate_trace

#: trace event kinds that carry per-location Global_Read evidence
_GR_KINDS = ("gr.hit", "gr.unblock")


@dataclass
class DynamicEvidence:
    """Observed per-location behaviour from one or more runs."""

    locn: str
    synchronized: int = 0
    tolerated: int = 0
    unbounded: int = 0
    reads: int = 0
    max_staleness: int = 0
    sources: list[str] = field(default_factory=list)

    @property
    def exposure(self) -> str:
        """Observed exposure on the strict/tolerated/unbounded axis."""
        if self.unbounded > 0:
            return "unbounded"
        if self.tolerated > 0 or self.max_staleness > 0:
            return "tolerated"
        return "strict"

    def merge(self, other: "DynamicEvidence") -> None:
        """Fold another run's evidence for the same location in place."""
        self.synchronized += other.synchronized
        self.tolerated += other.tolerated
        self.unbounded += other.unbounded
        self.reads += other.reads
        self.max_staleness = max(self.max_staleness, other.max_staleness)
        self.sources.extend(other.sources)

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly dict form (exposure included)."""
        return {
            "locn": self.locn,
            "exposure": self.exposure,
            "synchronized": self.synchronized,
            "tolerated": self.tolerated,
            "unbounded": self.unbounded,
            "reads": self.reads,
            "max_staleness": self.max_staleness,
            "sources": sorted(set(self.sources)),
        }


def evidence_from_trace(path: str) -> dict[str, DynamicEvidence]:
    """Per-location evidence from one ``repro.obs`` trace.

    ``path`` is a plain JSONL file or the base path of a (possibly
    rotated) gzip trace.  Only ``gr.*`` events carry a requested bound
    to judge; a returned staleness above it counts as unbounded (the
    primitive failed its contract), within it as tolerated.
    ``read_local`` returns (``dsm.read``) carry no bound and are not
    judged, so trace evidence alone never proves a location strict — the
    cross-check only uses it in the damning direction.

    Raises ``ValueError`` when the trace fails schema validation
    (malformed input must fail the gate loudly, not silently weaken it).
    """
    verdict = validate_trace(path)
    if not verdict["ok"]:
        raise ValueError(
            f"invalid trace ({verdict['error_count']} error(s)): "
            + "; ".join(verdict["errors"][:3])
        )
    out: dict[str, DynamicEvidence] = {}
    for event in read_jsonl(path):
        if event.kind not in _GR_KINDS:
            continue
        locn = event.get("locn")
        ev = out.get(locn)
        if ev is None:
            ev = out[locn] = DynamicEvidence(locn=locn, sources=[path])
        ev.reads += 1
        staleness = event.get("staleness")
        ev.max_staleness = max(ev.max_staleness, staleness)
        if staleness <= 0:
            ev.synchronized += 1
        elif staleness <= event.get("age"):
            ev.tolerated += 1
        else:
            ev.unbounded += 1
    return out


def _trace_files(directory: str) -> list[str]:
    """Every trace under ``directory``: ``*.jsonl`` / ``*.jsonl.gz``
    files, each rotated gzip trace once (by its base path)."""
    files = sorted(
        os.path.join(root, f)
        for root, _, fnames in os.walk(directory)
        for f in fnames
        if f.endswith((".jsonl", ".jsonl.gz"))
    )
    parts = {p for f in files for p in trace_paths(f)[1:]}
    return [f for f in files if f not in parts]


def load_dynamic_evidence(
    traces: list[str],
) -> tuple[dict[str, DynamicEvidence], list[str]]:
    """Merge evidence from trace files and directories of traces.

    Returns ``(evidence, errors)``.  A directory contributes every trace
    under it; missing paths and malformed traces are errors (exit code 2
    at the CLI), never silently skipped.
    """
    merged: dict[str, DynamicEvidence] = {}
    errors: list[str] = []
    for tpath in traces:
        if os.path.isdir(tpath):
            files = _trace_files(tpath)
            if not files:
                errors.append(
                    f"no .jsonl trace files (plain or gzip) under directory {tpath!r}"
                )
        elif os.path.isfile(tpath):
            files = [tpath]
        else:
            errors.append(f"no such trace file or directory: {tpath!r}")
            continue
        for f in files:
            try:
                found = evidence_from_trace(f)
            except (OSError, ValueError) as exc:
                errors.append(f"{f}: {exc}")
                continue
            for locn, ev in found.items():
                if locn in merged:
                    merged[locn].merge(ev)
                else:
                    merged[locn] = ev
    return merged, errors


def cross_validate(
    verdicts: list[LocationVerdict],
    evidence: dict[str, DynamicEvidence],
) -> list[CoherenceFinding]:
    """RPR105 findings where runtime evidence contradicts static claims."""
    findings: list[CoherenceFinding] = []
    for locn in sorted(evidence):
        ev = evidence[locn]
        verdict = most_specific(locn, verdicts)
        if verdict is None:
            # dynamic-only location: runtime touched something the
            # static pass never attributed — a coverage hole worth
            # failing on (it means a contract can't be checked either)
            findings.append(
                make_finding(
                    "RPR105",
                    f"location {locn!r} observed at runtime "
                    f"({ev.reads} reads) but never discovered statically",
                    "<dynamic>",
                    0,
                    locn,
                )
            )
            continue
        anchor = verdict.sites[0]
        if VERDICTS.index(ev.exposure) > VERDICTS.index(verdict.verdict):
            findings.append(
                make_finding(
                    "RPR105",
                    f"location {locn!r} statically {verdict.verdict!r} but "
                    f"observed {ev.exposure!r} "
                    f"(tolerated={ev.tolerated}, unbounded={ev.unbounded}, "
                    f"max staleness {ev.max_staleness}; "
                    f"{', '.join(sorted(set(ev.sources)))})",
                    anchor.path,
                    anchor.line,
                    verdict.pattern,
                )
            )
        contract = verdict.contract
        if (
            contract is not None
            and contract.age is not None
            and ev.max_staleness > contract.age
        ):
            findings.append(
                make_finding(
                    "RPR105",
                    f"location {locn!r} observed staleness "
                    f"{ev.max_staleness} exceeds the contract's declared "
                    f"age {contract.age}",
                    contract.path,
                    contract.line,
                    verdict.pattern,
                )
            )
    return findings
