"""Observability layer: structured tracing, metrics and run reports.

One seam (the :class:`~repro.obs.bus.TraceBus` in ``kernel.obs``), one
artifact (the JSONL trace it writes) and one reader
(``python -m repro.obs report``).  Three pieces (DESIGN.md §10):

* :mod:`repro.obs.bus` — the structured **trace bus**.  Subsystems emit
  typed events (``gr.block``, ``net.deliver``, ``rb.begin`` …) through
  cheap ``if kernel.obs is not None`` hooks; the default is *no bus at
  all*, so golden determinism digests and bench numbers are untouched
  when tracing is off.  Enable per machine with
  ``MachineConfig(trace=True)``.
* :mod:`repro.obs.metrics` — the **metrics snapshot**: counters, gauges
  and histograms folded into every experiment's result envelope
  (``IslandGaResult.metrics`` / ``ParallelLsResult.metrics``) as a
  JSON-serialisable dict.
* :mod:`repro.obs.report` — the **run summary** behind
  ``python -m repro.obs report <trace.jsonl>``: per-node timelines,
  blocking/staleness, rollback and warp tables, wall-time attribution
  and the critical path, computed once (:func:`~repro.obs.report.
  report_dict`) and rendered as text, as the ``--json`` envelope or as
  the ``--html`` page (:mod:`repro.obs.dashboard`).

On top of the flat trace sits the **causal layer** (DESIGN.md §11):

* :mod:`repro.obs.causal` — span builder (compute / Global_Read-wait /
  rollback spans + ``dsm.write → gr.unblock`` message lineage),
  per-node wall-time attribution, and the backward critical-path
  walk; the report carries their results.
* :mod:`repro.obs.diff` — cross-run trace diffing aligned by
  iteration (``python -m repro.obs diff A.jsonl B.jsonl``).
* :mod:`repro.obs.schema` — trace-schema validation
  (``python -m repro.obs validate``), the CI gate on trace artifacts.

The layer only reads: it imports no application, experiment or bench
code.  The traced trial behind every driver's ``--trace``/``--metrics``
is :mod:`repro.experiments.traced`, and the gate over the committed
``BENCH_<n>.json`` series is :mod:`repro.bench.trend`.  Host time is
not asked here either: profile from outside the program
(``python -m cProfile``, ``perfbench/run.py --trace 1`` — DESIGN.md
§15).  See ``docs/observability.md`` for the trace schema and a worked
example.
"""

from repro.obs.bus import ObsEvent, TraceBus, read_jsonl
from repro.obs.causal import SpanGraph, attribute, build_spans, critical_path
from repro.obs.metrics import machine_metrics, percentile_from_samples

__all__ = [
    "ObsEvent",
    "TraceBus",
    "read_jsonl",
    "SpanGraph",
    "build_spans",
    "attribute",
    "critical_path",
    "machine_metrics",
    "percentile_from_samples",
]
