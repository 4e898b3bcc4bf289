"""Static coherence analyzer for DSM access patterns.

An interprocedural AST pass over the workload code that discovers
every ``Dsm``/``Global_Read`` access site, classifies each shared
location into a race-tolerance class, checks declared
``dsm_contract(...)`` staleness contracts against what the code
actually does, and cross-validates the static verdicts against
dynamic evidence from run traces.

Entry points: :func:`~repro.analysis.coherence.driver.run_coherence`
in-process, ``python -m repro.analysis coherence`` from the shell.
"""

from repro.analysis.coherence.astpass import ModuleScan, ScanResult, scan_paths, scan_source
from repro.analysis.coherence.classify import classify_scan, infer_class, most_specific
from repro.analysis.coherence.crossval import (
    DynamicEvidence,
    cross_validate,
    evidence_from_trace,
    load_dynamic_evidence,
)
from repro.analysis.coherence.driver import (
    CoherenceReport,
    render_json,
    render_text,
    run_coherence,
)
from repro.analysis.coherence.model import (
    COHERENCE_RULES,
    COHERENCE_SCHEMA,
    AccessSite,
    AgeValue,
    CoherenceFinding,
    ContractDecl,
    LocationVerdict,
    make_finding,
)

__all__ = [
    "AccessSite",
    "AgeValue",
    "COHERENCE_RULES",
    "COHERENCE_SCHEMA",
    "CoherenceFinding",
    "CoherenceReport",
    "ContractDecl",
    "DynamicEvidence",
    "LocationVerdict",
    "ModuleScan",
    "ScanResult",
    "classify_scan",
    "cross_validate",
    "evidence_from_trace",
    "infer_class",
    "load_dynamic_evidence",
    "make_finding",
    "most_specific",
    "render_json",
    "render_text",
    "run_coherence",
    "scan_paths",
    "scan_source",
]
