"""Trace-schema validation for JSONL traces (``repro.obs validate``).

The trace format is append-only JSONL with a ``trace.meta`` trailer
(:meth:`repro.obs.bus.TraceBus.write_jsonl`); this module checks a file
against the documented event taxonomy (docs/observability.md) so CI can
gate artifact-producing jobs on well-formed traces and consumers
(differ, span builder, dashboard) can trust field types.

Checks, in order per file:

1. every line parses as a JSON object with ``t`` (number), ``kind``
   (string) and ``node`` (integer);
2. event timestamps are monotone non-decreasing (the bus stamps the
   kernel clock, which never runs backward);
3. known kinds carry their required fields with the right JSON types
   (extra fields are allowed — the taxonomy is additive by design;
   unknown kinds are warnings unless ``strict``);
4. the final line is the ``trace.meta`` trailer and its ``events``
   count matches the number of event lines written.

Lineage fields added for the causal layer (``ref`` on ``net.deliver``
and ``gr.unblock``, ``cause``/``writer``/``version`` on ``rb.begin``,
``op`` on ``node.compute``) and the returned age ``ret`` on
``gr.hit``/``gr.unblock`` are optional: traces recorded before they
existed still validate.
"""

from __future__ import annotations

import json
from typing import Any

#: max error/warning entries kept verbatim (counts are always exact)
MAX_DETAIL = 50

_NUM = (int, float)

#: required (name -> type) and optional ("name?" -> type) fields by kind;
#: the "fault." prefix matches every injected-fault event kind
TRACE_SCHEMA: dict[str, dict[str, type | tuple[type, ...]]] = {
    "proc.spawn": {"pid": int, "name": str},
    "proc.done": {"pid": int, "name": str},
    "proc.fail": {"pid": int, "name": str, "error": str},
    "net.deliver": {
        "src": int, "frame_kind": str, "size": int, "enq": _NUM, "ref?": str,
        # switched-fabric annotations (repro.network.switched); shared-
        # Ethernet deliveries don't carry them
        "fabric?": str, "hops?": int, "bcast?": bool,
    },
    "node.compute": {"baseline": _NUM, "cost": _NUM, "op?": str},
    # happens-before facts: one send per send/mcast call, keyed by the
    # sender's call number; one consume per draining call, naming per
    # source the newest number taken as "src:seq,src:seq"
    "msg.send": {"seq": int},
    "msg.consume": {"newest": str},
    "dsm.write": {"locn": str, "iter": int},
    "dsm.read": {"locn": str, "ret": int},
    "gr.hit": {
        "locn": str, "curr_iter": int, "age": int, "staleness": int, "ret?": int,
    },
    "gr.block": {"locn": str, "curr_iter": int, "age": int},
    "gr.unblock": {
        "locn": str, "curr_iter": int, "age": int, "waited": _NUM,
        "staleness": int, "ret?": int, "ref?": str, "writer?": int,
    },
    "rb.begin": {
        "input": int, "iter": int, "depth": int,
        "cause?": str, "writer?": int, "version?": int,
    },
    "rb.end": {"input": int, "iter": int, "depth": int, "corrections": int},
    "bn.commit": {"runs": int, "total": int},
    "gvt.advance": {"floor": int},
    "fault.": {"amount?": _NUM, "src?": int, "frame_kind?": str},
    # bounded-lag parallel kernel (repro.sim.parallel): one event per
    # shard per floor epoch in a merged trace, attributing wall-clock
    # synchronization waits to the window the shard was in
    "par.window": {
        "shard": int, "epoch?": int, "window?": int,
        "wall_wait_s?": _NUM, "waits?": int,
    },
}


def _check_fields(kind: str, obj: dict, line_no: int, errors: list[str]) -> None:
    spec = TRACE_SCHEMA.get(kind)
    if spec is None and kind.startswith("fault."):
        spec = TRACE_SCHEMA["fault."]
    if spec is None:
        return
    for name, typ in spec.items():
        optional = name.endswith("?")
        key = name.rstrip("?")
        if key not in obj:
            if not optional:
                errors.append(f"line {line_no}: {kind} missing field {key!r}")
            continue
        val = obj[key]
        # JSON has no int/float distinction on the wire for whole floats,
        # but bool is an int subclass and only valid where declared bool
        if typ is bool:
            if not isinstance(val, bool):
                errors.append(
                    f"line {line_no}: {kind}.{key} has type "
                    f"{type(val).__name__}, expected bool"
                )
            continue
        if isinstance(val, bool) or not isinstance(val, typ):
            errors.append(
                f"line {line_no}: {kind}.{key} has type "
                f"{type(val).__name__}, expected {typ}"
            )


def validate_lines(lines: list[str], strict: bool = False) -> dict[str, Any]:
    """Validate trace lines; returns a verdict dict (never raises).

    ``{"ok": bool, "lines", "events", "errors": [...], "warnings":
    [...], "error_count", "warning_count", "meta": {...}|None}`` —
    ``errors``/``warnings`` keep at most :data:`MAX_DETAIL` entries
    each, the counts are exact.
    """
    errors: list[str] = []
    warnings: list[str] = []
    n_err = n_warn = 0

    def err(msg: str) -> None:
        nonlocal n_err
        n_err += 1
        if len(errors) < MAX_DETAIL:
            errors.append(msg)

    def warn(msg: str) -> None:
        nonlocal n_warn
        n_warn += 1
        if len(warnings) < MAX_DETAIL:
            warnings.append(msg)

    events = 0
    prev_t = float("-inf")
    meta: dict | None = None
    known = set(TRACE_SCHEMA)
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            err(f"line {i}: blank line")
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            err(f"line {i}: invalid JSON ({exc.msg})")
            continue
        if not isinstance(obj, dict):
            err(f"line {i}: not a JSON object")
            continue
        kind = obj.get("kind")
        if not isinstance(kind, str):
            err(f"line {i}: missing/non-string 'kind'")
            continue
        if kind == "trace.meta":
            if i != len(lines):
                err(f"line {i}: trace.meta before end of file")
            meta = obj
            continue
        events += 1
        t = obj.get("t")
        if isinstance(t, bool) or not isinstance(t, _NUM):
            err(f"line {i}: missing/non-numeric 't'")
        else:
            if t < prev_t:
                err(f"line {i}: time goes backward ({t} after {prev_t})")
            prev_t = float(t)
        node = obj.get("node")
        if isinstance(node, bool) or not isinstance(node, int):
            err(f"line {i}: missing/non-integer 'node'")
        if kind not in known and not kind.startswith("fault."):
            (err if strict else warn)(f"line {i}: unknown event kind {kind!r}")
        else:
            field_errors: list[str] = []
            _check_fields(kind, obj, i, field_errors)
            for msg in field_errors:
                err(msg)

    if meta is None:
        err("missing trace.meta trailer on the last line")
    else:
        declared = meta.get("events")
        if declared != events:
            err(
                f"trace.meta declares {declared} events but the file "
                f"holds {events}"
            )
        dropped = meta.get("events_dropped")
        if isinstance(dropped, bool) or not isinstance(dropped, int) or dropped < 0:
            err("trace.meta 'events_dropped' missing or not a non-negative int")

    return {
        "ok": n_err == 0,
        "lines": len(lines),
        "events": events,
        "errors": errors,
        "warnings": warnings,
        "error_count": n_err,
        "warning_count": n_warn,
        "meta": meta,
    }


def validate_trace(path: str, strict: bool = False) -> dict[str, Any]:
    """Validate a trace on disk (see :func:`validate_lines`).

    ``path`` may be a plain JSONL file, the base path of a (possibly
    rotated) gzip trace, or a directory of parts — the same forms
    :func:`repro.obs.bus.read_jsonl` accepts.
    """
    from repro.obs.bus import iter_trace_lines

    lines = [line.rstrip("\n") for line in iter_trace_lines(path)]
    return validate_lines(lines, strict=strict)
