"""scale_study — the age × topology × fabric sweep past paper scale.

The paper stops at 8 SP2 nodes on shared Ethernet; ROADMAP item 2 asks
what happens to the Global_Read age trade-off when the island GA runs at
64–4096 demes on switched fabrics with structured migration topologies
(*The Distributed Genetic Algorithm Revisited*, Belding).  This driver
sweeps:

* **age** — the scale preset's Global_Read ages (plus async as age=∞);
* **topology** — ring / torus / hierarchical / random migration wiring
  (:mod:`repro.ga.topology`);
* **fabric** — the switched interconnects of
  :mod:`repro.network.switched` (single switch, oversubscribed
  hierarchical tree, full-bisection fat-tree).

Determinism contract
--------------------
Three canonical switched-fabric scenarios built by :func:`scenario` are
pinned in the golden table of :mod:`repro.check` (ring wiring on the
hierarchical tree, torus wiring on the fat-tree, all-to-all wiring
through the single switch's hardware multicast tree), serially and at
shards ∈ {1, 2, 4} (DESIGN.md §8/§13/§14).

CLI
---
``python -m repro.experiments.scale_study`` runs the sweep;
``--scale-proof N`` completes an N-deme ring scenario (default 4096)
and prints its shape; ``--analyze PATH``
summarises a sweep JSON (from ``--out``) into the age × topology ×
fabric staleness/wall table; ``--trace-stream N`` runs one traced
N-deme ring scenario streaming its trace straight into the gzip sink
at ``--trace PATH`` with bounded trace memory.  Flags no mode would
honour are refused (exit 2): ``--metrics`` always, ``--trace`` without
``--trace-stream``, ``--out`` with it.
"""

from __future__ import annotations

import argparse
import json
import time
from functools import partial

from repro.cluster.machine import MachineConfig
from repro.core.coherence import CoherenceMode
from repro.experiments.cli import Driver, UsageError
from repro.experiments.config import Scale, current_scale
from repro.experiments.reporting import text_table
from repro.experiments.runner import run_cells
from repro.ga.functions import get_function
from repro.ga.island import IslandGaConfig, IslandGaResult, run_island_ga
from repro.ga.operators import GaParams
from repro.network.switched import SwitchedConfig

#: fabrics the sweep crosses (see repro.network.switched)
FABRICS = ("single", "hierarchical", "fat-tree")
#: structured migration topologies the sweep crosses ("all" is the
#: paper's wiring — quadratic traffic, excluded from large sweeps)
TOPOLOGIES = ("ring", "torus", "hierarchical", "random")
#: the streamed trace's bus flush size (see :func:`run_traced_stream`)
STREAM_FLUSH_EVERY = 5_000


def scenario(
    n_demes: int,
    topology: str,
    fabric: str,
    age: int,
    mode: CoherenceMode = CoherenceMode.NON_STRICT,
    n_generations: int = 10,
    population_size: int = 16,
    seed: int = 7,
    radix: int = 16,
    hw_multicast: bool = False,
    measure_warp: bool = False,
    trace: bool = False,
) -> IslandGaConfig:
    """One switched-fabric island-GA scenario of the sweep."""
    return IslandGaConfig(
        fn=get_function(1),
        n_demes=n_demes,
        mode=mode,
        age=age,
        n_generations=n_generations,
        seed=seed,
        params=GaParams(population_size=population_size),
        machine=MachineConfig(
            n_nodes=n_demes,
            seed=seed,
            interconnect="switched",
            switched=SwitchedConfig(fabric=fabric, radix=radix),
            hw_multicast=hw_multicast,
            measure_warp=measure_warp,
            trace=trace,
        ),
        topology=topology,
    )


# ---------------------------------------------------------------------------
# The sweep
# ---------------------------------------------------------------------------

def _row(
    scale: Scale, n_demes: int, topology: str, fabric: str, age: int, shards: int
) -> dict:
    t0 = time.perf_counter()  # repro-lint: allow[RPR002] — harness timing
    cfg = scenario(
        n_demes,
        topology,
        fabric,
        age,
        n_generations=scale.ga_generations // 10,
        measure_warp=n_demes <= 256,
    )
    result: IslandGaResult = run_island_ga(cfg, shards=shards)
    wall_s = time.perf_counter() - t0  # repro-lint: allow[RPR002]
    return {
        "n_demes": n_demes,
        "topology": topology,
        "fabric": fabric,
        "age": age,
        "best_fitness": result.best_fitness,
        "total_time": result.total_time,
        "messages_sent": result.messages_sent,
        "network_utilization": result.network_utilization,
        "mean_warp": result.mean_warp,
        "gr_blocked": result.gr_stats.blocked,
        "wall_s": wall_s,
        "wall_us_per_msg": (
            wall_s / result.messages_sent * 1e6 if result.messages_sent else 0.0
        ),
    }


def run_scale_study(
    scale: Scale | None = None,
    deme_counts: tuple[int, ...] = (64, 256),
    jobs: int | None = None,
    shards: int = 1,
) -> list[dict]:
    """The sweep: one row per (deme count × topology × fabric × age),
    each its own runner cell."""
    scale = scale or current_scale()
    cells = [
        ((n, topo, fabric, age), partial(_row, scale, n, topo, fabric, age, shards))
        for n in deme_counts
        for topo in TOPOLOGIES
        for fabric in FABRICS
        for age in scale.ages
    ]
    return [row for (row,) in run_cells(cells, jobs).values()]


def format_scale_study(rows: list[dict]) -> str:
    """Render the sweep as a text table."""
    if not rows:
        return "scale_study: no rows"
    return text_table(
        ["demes", "topology", "fabric", "age", "best", "sim_s", "msgs",
         "util", "us/msg"],
        [
            [
                r["n_demes"], r["topology"], r["fabric"], r["age"],
                r["best_fitness"], r["total_time"], r["messages_sent"],
                r["network_utilization"], r["wall_us_per_msg"],
            ]
            for r in rows
        ],
        title="scale_study — island GA past paper scale (switched fabrics)",
    )


# ---------------------------------------------------------------------------
# Sweep analysis (ROADMAP item 2 residual)
# ---------------------------------------------------------------------------

def analyze_rows(rows: list[dict]) -> dict:
    """Aggregate sweep rows into the age × topology × fabric summary.

    Rows group by (topology, fabric, age), averaging across deme
    counts; ``gr_blocked`` (reads that had to wait for a fresh-enough
    version — the staleness cost) and host wall seconds are the two
    quantities the age trade-off balances.  Each (topology, fabric)
    cell's fastest-simulated-time age is flagged ``best_age``.
    """
    groups: dict[tuple, list[dict]] = {}
    for r in rows:
        groups.setdefault((r["topology"], r["fabric"], r["age"]), []).append(r)

    def _mean(rs: list[dict], key: str) -> float:
        return sum(float(r.get(key, 0.0)) for r in rs) / len(rs)

    summary = []
    for (topo, fabric, age) in sorted(groups):
        rs = groups[(topo, fabric, age)]
        summary.append({
            "topology": topo,
            "fabric": fabric,
            "age": age,
            "runs": len(rs),
            "demes": sorted({r["n_demes"] for r in rs}),
            "best_fitness": _mean(rs, "best_fitness"),
            "sim_s": _mean(rs, "total_time"),
            "gr_blocked": sum(int(r.get("gr_blocked", 0)) for r in rs),
            "mean_warp": _mean(rs, "mean_warp"),
            "wall_s": _mean(rs, "wall_s"),
        })
    fastest: dict[tuple, dict] = {}
    for row in summary:
        key = (row["topology"], row["fabric"])
        if key not in fastest or row["sim_s"] < fastest[key]["sim_s"]:
            fastest[key] = row
    for row in summary:
        row["best_age"] = fastest[(row["topology"], row["fabric"])] is row
    return {
        "schema": "repro-scale-analysis/1",
        "rows": summary,
        "best_age": {
            f"{t}/{f}": row["age"] for (t, f), row in sorted(fastest.items())
        },
    }


def format_analysis(analysis: dict) -> str:
    """Render the sweep summary as a text table (``*`` = fastest age)."""
    rows = analysis["rows"]
    if not rows:
        return "scale_study --analyze: no rows"
    return text_table(
        ["topology", "fabric", "age", "runs", "best", "sim_s",
         "gr_blocked", "warp", "wall_s"],
        [
            [
                r["topology"], r["fabric"],
                f"{r['age']}{'*' if r['best_age'] else ''}",
                r["runs"], r["best_fitness"], r["sim_s"],
                r["gr_blocked"], r["mean_warp"], r["wall_s"],
            ]
            for r in rows
        ],
        title=(
            "scale_study --analyze — staleness (gr_blocked) vs wall by "
            "age x topology x fabric (* = fastest simulated time)"
        ),
    )


def run_traced_stream(n_demes: int, trace_path: str) -> dict:
    """One traced ``n_demes``-deme ring run streamed to ``trace_path``.

    The machine's trace bus writes straight to a rotating gzip sink at
    ``trace_path`` (peak trace memory is O(:data:`STREAM_FLUSH_EVERY`)
    events, never the full trace).  Returns ``{"trace", "events", "digest",
    "peak_buffered", ...}``.
    """
    from dataclasses import replace as _replace

    from repro.experiments.traced import traced_trial

    cfg = scenario(n_demes, "ring", "hierarchical", age=5,
                   n_generations=10, trace=True)
    cfg = _replace(cfg, machine=_replace(
        cfg.machine, trace_sink=trace_path, trace_flush_every=STREAM_FLUSH_EVERY,
    ))
    result, bus = traced_trial(run_island_ga, cfg)
    events = bus.write_jsonl()
    return {
        "trace": trace_path,
        "n_demes": n_demes,
        "events": events,
        "digest": bus.digest(),
        "dropped": bus.dropped,
        "peak_buffered": bus.peak_buffered,
        "flush_every": STREAM_FLUSH_EVERY,
        "parts": len(bus.sink.paths),
        "best_fitness": result.best_fitness,
    }


def run_scale_proof(n_demes: int = 4096) -> dict:
    """Complete an ``n_demes``-deme ring scenario; returns its shape."""
    t0 = time.perf_counter()  # repro-lint: allow[RPR002] — harness timing
    result = run_island_ga(
        scenario(n_demes, "ring", "hierarchical", age=2,
                 n_generations=2, population_size=8)
    )
    wall_s = time.perf_counter() - t0  # repro-lint: allow[RPR002]
    return {
        "n_demes": n_demes,
        "generations": 2,
        "best_fitness": result.best_fitness,
        "total_time": result.total_time,
        "messages_sent": result.messages_sent,
        "wall_s": wall_s,
        "wall_us_per_msg": (
            wall_s / result.messages_sent * 1e6 if result.messages_sent else 0.0
        ),
    }


def _demes(text: str) -> int:
    """A deme-count flag's type: a machine needs at least one node."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale-proof", type=_demes, metavar="N",
        help="complete an N-deme ring scenario (acceptance: 4096) and exit",
    )
    parser.add_argument(
        "--analyze", metavar="PATH",
        help=(
            "summarise a sweep JSON (written by --out) into the age x "
            "topology x fabric staleness/wall table and exit"
        ),
    )
    parser.add_argument(
        "--trace-stream", type=_demes, metavar="N",
        help=(
            "run one traced N-deme ring scenario streaming its trace "
            "straight into a rotating gzip sink at --trace PATH (bounded "
            "trace memory) and exit"
        ),
    )
    parser.add_argument(
        "--demes", type=_demes, nargs="+", default=[64, 256], metavar="N",
        help="deme counts the sweep crosses (default: 64 256)",
    )
    parser.add_argument("--out", metavar="PATH",
                        help="also write results as JSON to PATH")


def _cli(scale: Scale, jobs: int | None, shards: int, args: argparse.Namespace) -> str:
    # refuse what no mode below would honour rather than drop it silently
    if args.metrics:
        raise UsageError("--metrics is not supported: scale_study writes no "
                         "metrics snapshot")
    if args.trace and args.trace_stream is None:
        raise UsageError("--trace needs --trace-stream N: only the streamed "
                         "capture writes a trace")
    if args.out and args.trace_stream is not None:
        raise UsageError("--out does not apply to --trace-stream: its record "
                         "prints to stdout")
    if args.analyze:
        with open(args.analyze, "r", encoding="utf-8") as fh:
            analysis = analyze_rows(json.load(fh))
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(analysis, fh, indent=2, sort_keys=True)
                fh.write("\n")
        return format_analysis(analysis)
    if args.trace_stream is not None:
        if not args.trace:
            raise UsageError("--trace-stream requires --trace PATH")
        return json.dumps(run_traced_stream(args.trace_stream, args.trace), indent=2)
    if args.scale_proof is not None:
        record = run_scale_proof(args.scale_proof)
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(record, fh, indent=2)
        return json.dumps(record, indent=2)
    rows = run_scale_study(scale, deme_counts=tuple(args.demes), jobs=jobs, shards=shards)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(rows, fh, indent=2)
    return format_scale_study(rows)


main = Driver(
    "scale_study — age x topology x fabric sweep of the island GA at "
    "64-4096 demes on switched fabrics.",
    _cli,
    app=None,
    flags=_flags,
).main

if __name__ == "__main__":
    raise SystemExit(main())
