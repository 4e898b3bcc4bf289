"""Host-time section profiler: where the *Python process* burns CPU.

The causal layer (:mod:`repro.obs.causal`) explains **simulated** time
— who blocked whom, which write unblocked which reader.  This module
answers the orthogonal question the bench trajectory keeps raising:
where does the *host* wall clock go while the simulator runs?  Kernel
loop bookkeeping, numpy population math, fabric arithmetic, obs I/O, or
the parallel kernel's IPC barrier waits?  (Lubachevsky's parallel
cellular-array papers justify a parallel scheme exactly this way:
utilization and overhead measurement, not just speedup.)

Design constraints, in priority order:

1. **Determinism neutrality.**  Profiling must never move a golden
   digest.  The profiler only reads ``time.perf_counter`` and appends
   to its own dicts; it never touches the simulated clock, RNG streams
   or event order.  With profiling off every hook is a single global /
   attribute ``is None`` check — the same idiom as ``kernel.obs`` —
   and a test pins golden digests (:mod:`repro.check`) with profiling
   *on*.
2. **Stdlib only.**  ``time.perf_counter`` and plain dicts; no
   ``cProfile`` (its per-call hook is ~2× slowdown and its output is
   function-shaped, not subsystem-shaped).
3. **Section-shaped output.**  Sections are *stack paths* (e.g.
   ``kernel.loop/proc.step/numpy.ga``), so the snapshot renders as a
   flame-style tree; self-time accounting guarantees the per-path
   seconds sum exactly to the profiled wall interval, which is how the
   ``attributed_fraction`` acceptance metric (≥ 0.9 to *named*
   sections) is computed.

Two hook styles feed the profiler:

* the **kernel loop** (:meth:`repro.sim.kernel.Kernel.run`) reads the
  ambient profiler once per call and, when there is one, brackets
  itself with :meth:`HostProfiler.enter_loop` and hands every event to
  :meth:`HostProfiler.run_event`, which charges loop bookkeeping to
  ``kernel.loop`` and event execution to the callback's subsystem
  (:func:`category_of`: ``proc.step`` / ``network`` / ``pvm`` / …);
* **ambient sections** — ``with prof_section("numpy.ga"): ...`` —
  mark regions that run *inside* a kernel event but belong to another
  subsystem (numpy compute in the deme step, gzip trace flushes,
  worker IPC waits).  They no-op unless a profiler is activated for
  the current process.

``python -m repro.obs report --prof prof.json`` and the dashboard
render the resulting ``repro-obs-prof/1`` envelope.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from functools import lru_cache
from typing import Any, Callable, Iterator

#: schema tag of the :func:`profile_report` envelope
PROF_SCHEMA = "repro-obs-prof/1"

#: the pseudo-section holding time outside any named section
ROOT = "(unattributed)"

#: module-prefix -> section name for kernel event callbacks, first
#: match wins (checked most-specific first)
MODULE_SECTIONS: tuple[tuple[str, str], ...] = (
    ("repro.sim.parallel", "par.harness"),
    ("repro.sim", "proc.step"),
    ("repro.network", "network"),
    ("repro.pvm", "pvm"),
    ("repro.cluster", "node"),
    ("repro.core", "dsm"),
    ("repro.ga", "app.ga"),
    ("repro.bayes", "app.bayes"),
    ("repro.faults", "faults"),
    ("repro.obs", "obs.io"),
)


@lru_cache(maxsize=None)
def category_of_module(module: str) -> str:
    """Section name for an event callback defined in ``module`` (memoised:
    bound methods are fresh objects each step, their module string is not)."""
    for prefix, section in MODULE_SECTIONS:
        if module.startswith(prefix):
            return section
    return "proc.step" if module == "" else "other"


def category_of(fn: Callable[..., Any]) -> str:
    """Section name for a kernel event callback, from its module."""
    return category_of_module(getattr(fn, "__module__", "") or "")


class HostProfiler:
    """Section-stack host-time profiler with exact self-time accounting.

    ``push``/``pop`` maintain a stack of section names; wall time is
    charged to the section path on top of the stack, so nested sections
    carve their time *out* of the enclosing one and the per-path totals
    sum exactly to ``stop() - start()``.  All methods are cheap enough
    to sit in the kernel's event loop when profiling is on (two
    ``perf_counter`` reads and two dict operations per event).
    """

    __slots__ = ("clock", "sections", "calls", "_stack", "_path", "_last",
                 "_t_start", "total_s", "meta")

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        # repro-lint: allow[RPR002] — host wall-clock measurement is the point
        self.clock = clock or time.perf_counter
        #: section path -> accumulated self seconds
        self.sections: dict[str, float] = {}
        #: section path -> number of times entered
        self.calls: dict[str, int] = {}
        self._stack: list[str] = []
        self._path = ROOT
        self._last = 0.0
        self._t_start: float | None = None
        self.total_s = 0.0
        #: free-form provenance merged into the snapshot (shard id, app)
        self.meta: dict[str, Any] = {}

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Open the profiled interval (idempotent)."""
        if self._t_start is None:
            self._t_start = self._last = self.clock()

    def stop(self) -> None:
        """Close the profiled interval; unwinds any open sections."""
        if self._t_start is None:
            return
        while self._stack:
            self.pop()
        now = self.clock()
        self._charge(now)
        self.total_s += now - self._t_start
        self._t_start = None

    @property
    def running(self) -> bool:
        """Whether the profiled interval is open."""
        return self._t_start is not None

    # -- section stack --------------------------------------------------
    def _charge(self, now: float) -> None:
        dt = now - self._last
        if dt > 0.0:
            path = self._path
            self.sections[path] = self.sections.get(path, 0.0) + dt
        self._last = now

    def push(self, name: str) -> None:
        """Enter section ``name`` (nested under the current section)."""
        if self._t_start is None:
            self.start()
        self._charge(self.clock())
        self._stack.append(self._path)
        self._path = name if self._path is ROOT else f"{self._path}/{name}"
        self.calls[self._path] = self.calls.get(self._path, 0) + 1

    def pop(self) -> None:
        """Leave the current section."""
        if not self._stack:
            return
        self._charge(self.clock())
        self._path = self._stack.pop()

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        """``with prof.section("numpy.ga"): ...``"""
        self.push(name)
        try:
            yield
        finally:
            self.pop()

    # -- kernel loop ----------------------------------------------------
    def enter_loop(self) -> None:
        """Enter the kernel run loop's own section (leave with :meth:`pop`)."""
        self.push("kernel.loop")

    def run_event(self, fn: Callable[..., Any], args: tuple) -> None:
        """Execute kernel event ``fn(*args)`` under its subsystem's section."""
        self.push(category_of(fn))
        try:
            fn(*args)
        finally:
            self.pop()

    # -- reporting ------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """The profile as plain data (stops the interval if still open).

        ``attributed_fraction`` is the share of the profiled wall
        interval charged to *named* sections (everything except the
        :data:`ROOT` remainder) — the ≥ 0.9 acceptance quantity.
        """
        if self.running:
            self.stop()
        total = self.total_s
        unattributed = self.sections.get(ROOT, 0.0)
        return {
            "total_s": total,
            "attributed_fraction": (
                (total - unattributed) / total if total > 0 else 1.0
            ),
            "sections": {
                path: {"self_s": s, "calls": self.calls.get(path, 0)}
                for path, s in sorted(self.sections.items())
            },
            **self.meta,
        }


# ---------------------------------------------------------------------------
# Ambient profiler: the per-process hook point for code without a kernel
# ---------------------------------------------------------------------------

#: the process-wide active profiler; None = every hook is a no-op
_CURRENT: HostProfiler | None = None


def current() -> HostProfiler | None:
    """The active profiler of this process, if any."""
    return _CURRENT


def activate(prof: HostProfiler) -> HostProfiler:
    """Install ``prof`` as the process-wide profiler and start it."""
    global _CURRENT
    _CURRENT = prof
    prof.start()
    return prof


def deactivate() -> HostProfiler | None:
    """Stop and uninstall the process-wide profiler; returns it."""
    global _CURRENT
    prof, _CURRENT = _CURRENT, None
    if prof is not None:
        prof.stop()
    return prof


@contextmanager
def prof_section(name: str) -> Iterator[None]:
    """Ambient section hook: charges to the active profiler, else no-op.

    This is the obs-style guard for subsystems without a kernel
    reference — the numpy block in the deme step, the gzip trace
    flush, the worker's IPC barrier wait.  Cost when profiling is off:
    one module-global read.
    """
    prof = _CURRENT
    if prof is None:
        yield
        return
    prof.push(name)
    try:
        yield
    finally:
        prof.pop()


# ---------------------------------------------------------------------------
# Envelope + rendering
# ---------------------------------------------------------------------------

def profile_report(
    main: dict[str, Any],
    shards: list[dict[str, Any]] | None = None,
    meta: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Bundle snapshots into the ``repro-obs-prof/1`` envelope.

    ``main`` is the coordinating process's snapshot; ``shards`` the
    per-worker snapshots of a sharded run (empty for serial runs).
    """
    from repro.util.envelope import make_envelope

    payload: dict[str, Any] = {
        "main": main,
        "shards": shards or [],
        "meta": meta or {},
    }
    return make_envelope(PROF_SCHEMA, payload)


def _bar(frac: float, width: int = 30) -> str:
    n = int(round(max(0.0, min(1.0, frac)) * width))
    return "#" * n + "." * (width - n)


def _render_snapshot(snap: dict[str, Any], title: str) -> str:
    total = float(snap.get("total_s", 0.0))
    lines = [
        f"{title} — {total:.3f}s host wall, "
        f"{snap.get('attributed_fraction', 0.0):.1%} attributed to named sections"
    ]
    sections = snap.get("sections", {})
    for path in sorted(sections, key=lambda p: (-sections[p]["self_s"], p)):
        row = sections[path]
        self_s = float(row["self_s"])
        frac = self_s / total if total > 0 else 0.0
        depth = path.count("/")
        name = path.rsplit("/", 1)[-1]
        lines.append(
            f"  {_bar(frac)} {frac:6.1%} {self_s:9.3f}s "
            f"{'  ' * depth}{name}  [{path}]  x{row.get('calls', 0)}"
        )
    return "\n".join(lines)


def render_profile(env: dict[str, Any]) -> str:
    """Text flame-style rendering of a ``repro-obs-prof/1`` envelope.

    Sections sort by self-time (largest first); the bar is each path's
    share of the profiled wall interval, indentation mirrors nesting.
    """
    parts = [_render_snapshot(env["main"], "Host-time profile (main process)")]
    for snap in env.get("shards", []):
        label = snap.get("shard", "?")
        parts.append(_render_snapshot(snap, f"Shard {label} worker"))
    meta = env.get("meta") or {}
    if meta:
        parts.append(
            "meta: " + "  ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        )
    return "\n\n".join(parts)


def profile_html(env: dict[str, Any]) -> str:
    """A self-contained HTML fragment (flame-style bars) for the dashboard."""
    from html import escape

    def rows(snap: dict[str, Any], title: str) -> str:
        total = float(snap.get("total_s", 0.0)) or 1.0
        out = [
            f"<h3>{escape(title)} — {snap.get('total_s', 0.0):.3f}s, "
            f"{snap.get('attributed_fraction', 0.0):.1%} attributed</h3>"
        ]
        sections = snap.get("sections", {})
        for path in sorted(sections, key=lambda p: (-sections[p]["self_s"], p)):
            row = sections[path]
            frac = float(row["self_s"]) / total
            indent = 12 * path.count("/")
            out.append(
                "<div class='profrow' style='margin-left:%dpx'>"
                "<span class='profbar' style='width:%.2f%%'></span>"
                "<span class='proflbl'>%s %.1f%% (%.3fs, x%d)</span></div>"
                % (indent, 100.0 * frac, escape(path), 100.0 * frac,
                   row["self_s"], row.get("calls", 0))
            )
        return "\n".join(out)

    parts = [rows(env["main"], "main process")]
    for snap in env.get("shards", []):
        parts.append(rows(snap, f"shard {snap.get('shard', '?')} worker"))
    return "\n".join(parts)
