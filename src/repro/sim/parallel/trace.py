"""Deterministic merge of per-shard JSONL traces + window spans.

Every shard replays the identical event stream, so every shard's trace
must be byte-identical — the merge *verifies* that (a second, finer
determinism tripwire beyond the result digests) and then folds the
workers' per-epoch synchronization waits in as ``par.window`` events,
time-merged so the output stays monotone and validates against the
``repro.obs`` schema (``python -m repro.obs validate --strict``).

``par.window`` events let ``python -m repro.obs report`` attribute
wall-clock synchronization overhead to bounded-lag windows: ``t`` is the distributed floor when the epoch opened,
``wall_wait_s`` the wall seconds the shard spent blocked (consuming
records or gated on the lag bound) during that epoch.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.sim.parallel.plan import ShardPlan


def _read_lines(path: str) -> list[str]:
    return Path(path).read_text(encoding="utf-8").splitlines()


def window_span_events(outcomes, plan: ShardPlan) -> list[dict]:
    """Render the shards' window spans as ``par.window`` trace events."""
    events = []
    for o in outcomes:
        for epoch, floor, wall_s, waits in o.window_spans:
            events.append(
                {
                    "t": float(floor),
                    "kind": "par.window",
                    "node": -1,
                    "shard": o.shard_id,
                    "epoch": int(epoch),
                    "window": plan.window_of(float(floor)),
                    "wall_wait_s": float(wall_s),
                    "waits": int(waits),
                }
            )
    events.sort(key=lambda e: (e["t"], e["shard"], e["epoch"]))
    return events


def merge_shard_traces(outcomes, out_path: str, plan: ShardPlan) -> str:
    """Verify shard traces identical; write the merged trace to ``out_path``.

    Raises :class:`RuntimeError` when any two shards' traces differ —
    with replicated event streams there is exactly one legal trace, so
    "merge" means *verify, keep one copy, and interleave the
    coordinator-level window spans by time* (stably: existing events
    win ties, then shard/epoch order).  The ``trace.meta`` trailer is
    re-emitted last with the updated event count.
    """
    digests = {}
    for o in outcomes:
        digests[o.shard_id] = hashlib.sha256(
            Path(o.trace_path).read_bytes()
        ).hexdigest()
    if len(set(digests.values())) != 1:
        raise RuntimeError(
            "cross-shard trace divergence: per-shard JSONL traces are not "
            f"identical ({digests}) — the replicated event streams differ"
        )

    lines = _read_lines(outcomes[0].trace_path)
    meta = None
    events: list[dict] = []
    for line in lines:
        if not line.strip():
            continue
        obj = json.loads(line)
        if obj.get("kind") == "trace.meta":
            meta = obj
        else:
            events.append(obj)

    spans = window_span_events(outcomes, plan)
    merged: list[dict] = []
    i = j = 0
    while i < len(events) and j < len(spans):
        if events[i].get("t", 0.0) <= spans[j]["t"]:
            merged.append(events[i])
            i += 1
        else:
            merged.append(spans[j])
            j += 1
    merged.extend(events[i:])
    merged.extend(spans[j:])

    if meta is None:
        meta = {"t": 0.0, "kind": "trace.meta", "node": -1, "events_dropped": 0}
    meta = dict(meta)
    meta["events"] = len(merged)
    meta["shards"] = len(outcomes)
    meta["t"] = merged[-1]["t"] if merged else meta.get("t", 0.0)

    with open(out_path, "w", encoding="utf-8") as fh:
        for obj in merged:
            fh.write(json.dumps(obj, sort_keys=True))
            fh.write("\n")
        fh.write(json.dumps(meta, sort_keys=True))
        fh.write("\n")
    return out_path
