"""The one JSON-envelope writer every machine-readable artifact shares.

Every ``repro-*/N`` document in this repository (bench trajectory
points, observability reports, analysis verdicts) has the same outer
shape: a ``schema`` tag naming the document type and version, the
payload fields, and — for artifacts that are diffed or archived — a
``digest`` over the canonical payload so consumers can detect
truncated or hand-edited files.  This module is the single place that
shape is produced; :mod:`repro.bench.harness`, :mod:`repro.obs.report`
and :mod:`repro.analysis.cli` all build their envelopes here instead
of each hand-rolling the dict.

The digest is a SHA-256 over the sorted-keys JSON of the payload
*without* the ``digest`` key itself, so ``envelope_digest(env)`` can
re-derive and verify it.
"""

from __future__ import annotations

import json
from hashlib import sha256
from pathlib import Path
from typing import Any

#: envelope keys that are never part of the digested payload
_META_KEYS = ("digest",)


def envelope_digest(payload: dict[str, Any]) -> str:
    """SHA-256 over the canonical (sorted-keys) JSON of ``payload``.

    Keys listed in :data:`_META_KEYS` are excluded, so the digest of a
    finished envelope equals the digest computed while building it.
    """
    body = {k: v for k, v in payload.items() if k not in _META_KEYS}
    return sha256(
        json.dumps(body, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()


def make_envelope(
    schema: str, payload: dict[str, Any], digest: bool = False
) -> dict[str, Any]:
    """Wrap ``payload`` in the standard envelope shape.

    ``schema`` is the full ``name/version`` tag (e.g.
    ``"repro-analysis-coherence/1"``).  The schema key always comes
    first so envelopes are recognisable from the first line of the
    serialized document; with ``digest=True`` a content digest over the
    payload is included.
    """
    if "/" not in schema:
        raise ValueError(f"schema tag must be 'name/version', got {schema!r}")
    out: dict[str, Any] = {"schema": schema}
    out.update(payload)
    if digest:
        out["digest"] = envelope_digest(out)
    return out


def render_envelope(env: dict[str, Any]) -> str:
    """Serialize an envelope to canonical sorted-keys JSON text."""
    return json.dumps(env, indent=2, sort_keys=True, default=str)


def read_json(path: str | Path) -> Any:
    """Read one JSON document; a parse failure is a ``ValueError`` naming
    the file (the CLIs report it as exit 2 instead of a traceback)."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc


def write_envelope(path: str | Path, env: dict[str, Any]) -> Path:
    """Write one envelope document (trailing newline included)."""
    path = Path(path)
    path.write_text(render_envelope(env) + "\n", encoding="utf-8")
    return path
