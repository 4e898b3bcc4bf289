"""Fold a cProfile capture into host seconds per source file and layer.

The traced repetition runs the scenario under ``cProfile``, so every
call into every layer is timed from outside the program.  :func:`fold`
charges each function's own time to the file it lives in; time spent in
functions outside ``src/repro`` (numpy, builtins, the standard library)
is charged to the file that called them, using the per-caller own time
``pstats`` records.  When the caller is itself external the time moves
up to *its* callers in proportion to their cumulative time, recursively.
Whatever cannot be traced back to a file (a cut recursion cycle, a root
function without callers) is reported as unattributed.

cProfile charges a fixed cost per call, so call-heavy layers (the event
kernel, generator resumption) read larger here than in an untraced run;
use the ledger to find where time goes and the end-to-end metrics to
claim a gain.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from layers import HARNESS, HOT_MODULES, LAYERS, hot_metric, layer_of


@dataclass
class Fold:
    """Host seconds and boundary calls per ledger key (a source file)."""

    #: key -> own seconds plus external seconds charged to it
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    #: (caller key or None, callee key) -> calls
    calls: dict = field(default_factory=lambda: defaultdict(float))
    unattributed_s: float = 0.0

    @property
    def total_s(self) -> float:
        """Every second the profile recorded, attributed or not."""
        return sum(self.self_s.values()) + self.unattributed_s


def fold(stats: dict, key_of: Callable[[str], str | None]) -> Fold:
    """Fold ``pstats``-format ``stats`` by the file each function lives in.

    ``stats`` maps ``(filename, lineno, name)`` to ``(cc, nc, tt, ct,
    callers)`` with ``callers`` mapping a caller to the ``(cc, nc, tt,
    ct)`` of the calls it made.  ``key_of(filename)`` names the ledger
    key of an internal file and returns ``None`` for an external one.
    """
    key = {func: key_of(func[0]) for func in stats}
    memo: dict = {}

    def owners(func, stack: frozenset) -> dict:
        """Shares of an external ``func``'s time per calling key (sum <= 1)."""
        if func in memo:
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        weights = {c: v[3] for c, v in callers.items()}
        if sum(weights.values()) <= 0.0:
            weights = {c: float(v[1]) for c, v in callers.items()}
        total = sum(weights.values())
        dist: dict = defaultdict(float)
        cut = False
        for caller, weight in weights.items():
            if total <= 0.0:
                break
            if key.get(caller) is not None:
                dist[key[caller]] += weight / total
            elif caller in stack:
                cut = True  # recursion among external functions
            else:
                for k, share in owners(caller, stack | {func}).items():
                    dist[k] += share * weight / total
        if not cut:
            memo[func] = dict(dist)
        return dict(dist)

    def shares(func, caller) -> dict:
        """Ledger key (None: untraceable) -> share of a call from ``caller``."""
        if key.get(caller) is not None:
            return {key[caller]: 1.0}
        dist = owners(caller, frozenset({func}))
        return {**dist, None: max(0.0, 1.0 - sum(dist.values()))}

    out = Fold()
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        own = key[func]
        if own is not None:
            out.self_s[own] += tt
            for caller, (_c, nc, _t, _ct2) in callers.items():
                for k, share in shares(func, caller).items():
                    out.calls[(k, own)] += nc * share
            continue
        charged = 0.0
        for caller, (_c, _n, caller_tt, _ct2) in callers.items():
            for k, share in shares(func, caller).items():
                if k is not None:
                    out.self_s[k] += caller_tt * share
                    charged += caller_tt * share
        out.unattributed_s += max(0.0, tt - charged)
    return out


def repro_key_of(src_repro: Path, harness_dir: Path) -> Callable[[str], str | None]:
    """``key_of`` for this repository: path under ``src/repro``, or HARNESS."""
    src = str(src_repro.resolve()) + "/"
    harness = str(harness_dir.resolve()) + "/"

    def key_of(filename: str) -> str | None:
        if filename.startswith(src):
            return filename[len(src):]
        if filename.startswith(harness):
            return HARNESS
        return None

    return key_of


def host_metrics(folded: Fold) -> dict:
    """The ``host.*`` per-layer metrics of one folded traced repetition."""
    total = folded.total_s
    layer_s = dict.fromkeys(LAYERS, 0.0)
    for k, seconds in folded.self_s.items():
        layer_s[layer_of(k)] += seconds
    calls_in = dict.fromkeys(LAYERS, 0.0)
    for (caller, callee), n in folded.calls.items():
        if caller is None or layer_of(caller) != layer_of(callee):
            calls_in[layer_of(callee)] += n
    metrics = {}
    for layer in LAYERS:
        metrics[f"host.{layer}.self_s"] = layer_s[layer]
        metrics[f"host.{layer}.share"] = layer_s[layer] / total if total else 0.0
        metrics[f"host.{layer}.calls_in"] = round(calls_in[layer])
    for rel in HOT_MODULES:
        metrics[hot_metric(rel)] = folded.self_s.get(rel, 0.0)
    metrics["host.sum_s"] = total
    metrics["host.attributed_fraction"] = (
        1.0 - folded.unattributed_s / total if total else 0.0
    )
    return metrics
