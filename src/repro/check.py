"""``python -m repro.check`` — the golden table and the one checker.

Every run of the simulator is a pure function of its config; this
module is where that promise is pinned and gated (DESIGN.md §8).
:data:`GOLDEN` maps a row name to the SHA-256 digest of one small,
fixed-seed run:

``kernel_trace``
    the bus trace of a mixed scheduling workload — one record per
    executed event plus the kernel's ``proc.spawn`` events (pure-Python
    floats: platform-stable), so any reordering or one-ulp shift of the
    event schedule moves it;
``ga_result`` / ``bayes_result``
    every numeric field of the small Global_Read island GA
    (:func:`golden_ga`) and parallel logic-sampling (:func:`golden_bayes`)
    runs;
``traffic-*`` / ``ga-*`` / ``bayes-duplicate``
    the chaos rows: a raw frame mill, the golden GA and the golden Bayes
    run under the fault plans of :data:`repro.faults.chaos.PLANS`,
    digested together with the injected-fault log (DESIGN.md §9);
``ring-hierarchical`` / ``torus-fat-tree`` / ``all-single-mcast``
    8-deme island GAs on the three switched fabrics (DESIGN.md §14);
``bayes-sync`` / ``bayes-async-3``
    the golden Bayes run SYNCHRONOUS on 2 processors (the staged
    exchange) and ASYNCHRONOUS on 3 (a 3-way recursive bisection and
    unthrottled rollback cascades).

:func:`run_checks` runs every row serially and every GA row on the
bounded-lag parallel kernel at each shard count of :data:`SHARD_COUNTS`
the row's deme count allows, plus two unpinned serial ≡ 2-shard identity
checks whose merged traces must validate (DESIGN.md §13).  ``python -m
repro.check [NAME…]`` prints the report and exits 1 on any mismatch;
after an *intentional* behaviour change, paste the ``--print-digests``
output into :data:`GOLDEN` and say so in the PR.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import replace

from repro.bayes.parallel import (
    ParallelLsConfig,
    ParallelLsResult,
    run_parallel_logic_sampling,
)
from repro.bench.micro import build_kernel_workload
from repro.core.coherence import CoherenceMode
from repro.experiments.config import Scale
from repro.experiments.scale_study import scenario
from repro.experiments.speedup import machine_for
from repro.experiments.table2 import build_network, pick_query
from repro.faults.chaos import PLANS, traffic_case
from repro.faults.plan import FaultPlan
from repro.ga.functions import get_function
from repro.ga.island import IslandGaConfig, IslandGaResult, run_island_ga
from repro.obs.bus import TraceBus
from repro.obs.schema import validate_trace
from repro.util.digest import digest_values

#: expected digest of every pinned run
GOLDEN = {
    "kernel_trace": "413f0e8b8b68260cfdb83a39072ef9692c292db25facac6cf102e6ef4d9f4835",
    "ga_result": "ef359529eb245f017ce361128dd0087e5a373fb21d1701fc731809646d2b335b",
    "bayes_result": "e6c4a755cbbad4696d24fe88106d6dcea5fdb863713f4f615f766a31a007252a",
    "traffic-drop": "8223aed4f0124a34d3d5ba99c46b065f73743af182fd571be780f69344e6c2e8",
    "traffic-duplicate": "c2e4917c7c9fe16402b737e0bc3ef70dd2bbb3df89d8b68090073afbf92edd81",
    "traffic-delay": "bc371ca8f68b1c0ed61e1cce7ba090cef21e5e0eae46e27efb88d6af97c69716",
    "traffic-reorder": "f7901dcc5d5901a09c80b7d86956b5b45c5d3c3277280a5846af14a5eb1f6218",
    "traffic-mixed": "9d8ab62bfd945b003214ffdafede4fbe4fa10d92950802cd779ee5c27ff2b299",
    "traffic-crash": "a9eb48891f11a3ef3ed7bafad7046d10c2f9a4b626aff2af1ae22ab92d3bac1a",
    "ga-lossless-chaos": "dc4d59c7fde245ec0cec80987bb6886288f27a4b67c365e4993a7fbd7b667586",
    "ga-switched-ring": "cfa9b5178bdc3a828cc9adc07d9cd254d793b2805469dfd75271f1eb89d807d8",
    "ga-node-faults": "41cc5af29e9c952d9a27c75fecb6c123b062618cb81be0a3582fa5b3f0a8d778",
    "bayes-duplicate": "38806a7333e1e972daba603c42d755986ee0d73b5a4a5c9417208e4597c88af4",
    "ring-hierarchical": "12c14934a15485ec659fe2047de4afede1bdd0013a0882fccc1613883f9e1cfc",
    "torus-fat-tree": "48c70f7b12df3855b674fd0bc1777dd49730299f287d8e1932bec81907305c8b",
    "all-single-mcast": "6f326b93f97cc86698608a0bdead308b8f849da8c3e0332a6de9e51c8b007a5d",
    "bayes-sync": "6f2486e9df15ee018ba977f1d6c7dc48d67f9f4dc8049e73f5ae6d0355dfacb4",
    "bayes-async-3": "3751b6dbada5e375c4954b02266e1e04aefd9eaeeefa743aa8f185ba28f1055d",
}

#: shard counts every GA row is held to (those its deme count allows)
SHARD_COUNTS = (1, 2, 4)


# ---------------------------------------------------------------------------
# The named recipes
# ---------------------------------------------------------------------------

def golden_ga(
    faults: FaultPlan | None = None,
    n_demes: int = 2,
    seed: int = 7,
    n_generations: int = 40,
    load_bps: float = 0.0,
    topology: str = "all",
    interconnect: str = "ethernet",
    trace: bool = False,
) -> IslandGaConfig:
    """The small Global_Read island GA (f1, age 10) behind the ``ga_*`` rows.

    The defaults are the ``ga_result`` row; the chaos rows add a fault
    plan (and, for ``ga-switched-ring``, a ring on the switched fabric),
    the traced identity check a loaded 4-deme machine.
    """
    machine = replace(
        machine_for(Scale.smoke(), n_demes, seed, load_bps, faults),
        interconnect=interconnect,
        trace=trace,
    )
    return IslandGaConfig(
        fn=get_function(1),
        n_demes=n_demes,
        mode=CoherenceMode.NON_STRICT,
        age=10,
        n_generations=n_generations,
        seed=seed,
        machine=machine,
        topology=topology,
    )


def golden_bayes(
    faults: FaultPlan | None = None,
    max_iterations: int = 20_000,
    mode: CoherenceMode = CoherenceMode.NON_STRICT,
    n_procs: int = 2,
) -> ParallelLsConfig:
    """The small logic-sampling run (Hailfinder, age 5) behind the Bayes rows.

    The defaults are the ``bayes_result`` row: Global_Read on 2
    processors; the other rows change the fault plan, the mode or the
    processor count.
    """
    net = build_network("Hailfinder")
    return ParallelLsConfig(
        net=net,
        query=pick_query(net, seed=0),
        n_procs=n_procs,
        mode=mode,
        age=5,
        seed=7,
        machine=machine_for(Scale.smoke(), n_procs, 7, faults=faults),
        max_iterations=max_iterations,
    )


def bayes_rows() -> dict[str, ParallelLsConfig]:
    """Row name → config of every parallel logic-sampling row of :data:`GOLDEN`."""
    return {
        "bayes_result": golden_bayes(),
        "bayes-duplicate": golden_bayes(PLANS["bayes-duplicate"], max_iterations=4000),
        "bayes-sync": golden_bayes(mode=CoherenceMode.SYNCHRONOUS),
        "bayes-async-3": golden_bayes(mode=CoherenceMode.ASYNCHRONOUS, n_procs=3),
    }


def ga_rows() -> dict[str, IslandGaConfig]:
    """Row name → config of every island-GA row of :data:`GOLDEN`.

    The three switched rows are small enough to rerun in CI, but together
    they cover every fabric kind, structured + all-to-all wiring, the
    hardware multicast tree and the bounded-lag kernel's switched-fabric
    lookahead.
    """
    switched = dict(
        n_demes=8, age=5, n_generations=30, population_size=20,
        seed=7, radix=4, measure_warp=True,
    )
    return {
        "ga_result": golden_ga(),
        "ga-lossless-chaos": golden_ga(PLANS["ga-lossless-chaos"]),
        "ga-switched-ring": golden_ga(
            PLANS["ga-switched-ring"],
            n_demes=4, topology="ring", interconnect="switched",
        ),
        "ga-node-faults": golden_ga(PLANS["ga-node-faults"]),
        "ring-hierarchical": scenario(
            topology="ring", fabric="hierarchical", **switched
        ),
        "torus-fat-tree": scenario(topology="torus", fabric="fat-tree", **switched),
        "all-single-mcast": scenario(
            topology="all", fabric="single", hw_multicast=True, **switched
        ),
    }


def traced_identity_rows() -> dict[str, IslandGaConfig]:
    """Name → config of the unpinned serial ≡ 2-shard traced checks.

    A Figure-4-shaped loaded Ethernet machine (zero lookahead past the
    minimum frame) and a 256-deme ring on the hierarchical switched
    fabric (real per-link lookahead).
    """
    return {
        "traced-ethernet-loaded": golden_ga(
            n_demes=4, seed=11, n_generations=30, load_bps=1e6
        ),
        "traced-switched-ring-256": scenario(
            256, "ring", "hierarchical", age=5, n_generations=10
        ),
    }


# ---------------------------------------------------------------------------
# The digest recipes
# ---------------------------------------------------------------------------

def kernel_trace_digest() -> str:
    """Trace digest of the mixed kernel workload (pure-Python floats).

    The workload's processes mark the bus before every yield and the
    kernel adds its ``proc.*`` events, so the trace holds each executed
    event's exact time (``repr`` round-trip) in execution order: swapping
    any two events, or moving one by an ulp, changes the digest.
    """
    kernel = build_kernel_workload(n_workers=12, n_steps=64)
    bus = kernel.obs = TraceBus(clock=lambda: kernel.now)
    kernel.run()
    return digest_values(bus.digest(), kernel.now, kernel.events_executed)


def ga_digest(result: IslandGaResult, fault_log: list | None = None) -> str:
    """Digest of one island-GA run.

    With ``fault_log`` (the injector log's digest fields) this is the
    chaos recipe: the log replaces the warp pair, which those rows were
    pinned without.
    """
    fields = result.digest_fields()
    if fault_log is None:
        return digest_values(*fields)
    return digest_values(*fields[:-2], fault_log)


def bayes_digest(result: ParallelLsResult, chaos: bool = False) -> str:
    """Digest of one parallel logic-sampling run.

    The chaos recipe swaps the partition's edge cut for the rollback
    counters a duplicated message could disturb.
    """
    rb = result.rollback
    return digest_values(
        result.completion_time,
        bool(result.converged),
        result.committed_runs,
        result.posterior,
        list(result.iterations_sampled),
        result.messages_sent,
        *(
            (rb.rollbacks, rb.corrections_received, rb.duplicate_messages,
             rb.stale_corrections)
            if chaos
            else (result.edge_cut,)
        ),
    )


# ---------------------------------------------------------------------------
# The checker
# ---------------------------------------------------------------------------

def _run_ga(cfg: IslandGaConfig, shards: int, trace_path: str | None = None):
    """One run of a GA config → (digest, ``metrics["parallel"]`` block, result)."""
    if shards == 1:
        hook: dict = {}
        result = run_island_ga(cfg, instrument=lambda dsm: hook.update(dsm=dsm))
        injector = getattr(hook["dsm"].vm.network, "fault_injector", None)
        fault_log = injector.log.digest_fields() if injector else []
        info = {"shards": 1, "fallback": None}
    else:
        result = run_island_ga(cfg, shards=shards, trace_path=trace_path)
        info = result.metrics["parallel"]
        fault_log = info.get("fault_log", [])
    chaos = cfg.machine.faults is not None
    return ga_digest(result, fault_log if chaos else None), info, result


def _check_ga(cfg: IslandGaConfig, golden: str) -> dict:
    """A GA row at every shard count its deme count allows.

    Each count is reported under the shard count that *really* ran
    (``metrics["parallel"]["shards"]``): a count above the deme count is
    skipped, and a fall-back to serial below it fails the row with the
    recorded reason.
    """
    per_shards: dict[str, dict] = {}
    for shards in SHARD_COUNTS:
        if shards > cfg.n_demes:
            per_shards[str(shards)] = {"skipped": f"row has {cfg.n_demes} demes"}
            continue
        digest, info, result = _run_ga(cfg, shards)
        per_shards[str(shards)] = entry = {
            "digest": digest,
            "effective": info["shards"],
            "ok": digest == golden and info["shards"] == shards,
        }
        if info["shards"] != shards:
            entry["fallback"] = info["fallback"]
    return {
        "digest": per_shards["1"]["digest"],
        "ok": all(e.get("ok", True) for e in per_shards.values()),
        # the injected-fault counters (the same at every shard count)
        "summary": {
            k.removeprefix("faults."): v
            for k, v in result.metrics["counters"].items()
            if k.startswith("faults.")
        },
        "shards": per_shards,
    }


def _check_traced_identity(name: str, cfg: IslandGaConfig, trace_dir: str) -> dict:
    """Serial ≡ 2-shard digest identity plus a valid merged trace."""
    serial, _, _ = _run_ga(cfg, 1)
    digest, info, _ = _run_ga(cfg, 2, os.path.join(trace_dir, f"{name}.jsonl"))
    verdict = {"ok": False}
    if info.get("merged_trace"):
        verdict = validate_trace(info["merged_trace"], strict=True)
    return {
        "digest": digest,
        "golden": serial,
        "effective": info["shards"],
        "fallback": info["fallback"],
        "merged_trace": info.get("merged_trace"),
        "trace_events": verdict.get("events"),
        "trace_errors": verdict.get("errors", [])[:5],
        "ok": digest == serial and info["shards"] == 2 and bool(verdict["ok"]),
    }


def _check_bayes(cfg: ParallelLsConfig) -> dict:
    result = run_parallel_logic_sampling(cfg)
    rb = result.rollback
    return {
        "digest": bayes_digest(result, chaos=cfg.machine.faults is not None),
        "summary": {
            "converged": bool(result.converged),
            "rollbacks": rb.rollbacks,
            "duplicate_messages": rb.duplicate_messages,
            "stale_corrections": rb.stale_corrections,
        },
    }


def run_checks(
    names: list[str] | None = None, trace_dir: str | None = None
) -> dict[str, dict]:
    """Run the (selected) rows and identity checks.

    Returns ``{name: {"digest", "golden", "ok", ...}}`` in table order —
    the BENCH ``determinism`` block shape.  GA rows add ``"shards"`` (per
    requested count: digest and effective count, or why it was skipped)
    and chaos rows a ``"summary"`` of what was injected.  The identity
    checks report the serial digest as their ``golden`` and leave their
    merged traces under ``trace_dir`` (a scratch directory when None).
    """
    if trace_dir is None:
        with tempfile.TemporaryDirectory() as scratch:
            return run_checks(names, scratch)
    os.makedirs(trace_dir, exist_ok=True)
    ga = ga_rows()
    bayes = bayes_rows()
    report: dict[str, dict] = {}
    for name, golden in GOLDEN.items():
        if names and name not in names:
            continue
        if name in ga:
            entry = _check_ga(ga[name], golden)
        elif name in bayes:
            entry = _check_bayes(bayes[name])
        elif name == "kernel_trace":
            entry = {"digest": kernel_trace_digest()}
        else:
            digest, summary = traffic_case(PLANS[name])
            entry = {"digest": digest, "summary": summary}
        entry["golden"] = golden
        entry["ok"] = entry.get("ok", True) and entry["digest"] == golden
        report[name] = entry
    for name, cfg in traced_identity_rows().items():
        if not names or name in names:
            report[name] = _check_traced_identity(name, cfg, trace_dir)
    return report


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.check`` entry point; exits 1 on any mismatch."""
    known = [*GOLDEN, *traced_identity_rows()]
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Run the pinned runs against the golden table.",
    )
    parser.add_argument(
        "names", nargs="*", metavar="NAME",
        help=f"run only these rows (default: all); known: {', '.join(known)}",
    )
    parser.add_argument(
        "--print-digests", action="store_true",
        help="print the computed digests as GOLDEN entries and exit",
    )
    parser.add_argument("--out", default=None, help="write the JSON report here")
    parser.add_argument(
        "--trace-dir", default=None,
        help="keep the identity checks' merged and per-shard traces here",
    )
    args = parser.parse_args(argv)
    unknown = sorted(set(args.names) - set(known))
    if unknown:
        parser.error(f"unknown row(s): {', '.join(unknown)}")

    report = run_checks(args.names, args.trace_dir)

    if args.print_digests:
        for name, row in report.items():
            if name in GOLDEN:
                print(f'    "{name}": "{row["digest"]}",')
        return 0

    width = max(len(n) for n in report)
    for name, row in report.items():
        shards = ", ".join(
            f"{want}: skipped" if "skipped" in e
            else f"{e['effective']}-shard {'ok' if e['ok'] else 'FAIL'}"
            for want, e in row.get("shards", {}).items()
        )
        print(
            f"{name:<{width}}  {row['digest'][:16]}…  "
            f"{'ok' if row['ok'] else 'MISMATCH'}"
            + (f"  ({shards})" if shards else "")
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")

    failed = {name: row for name, row in report.items() if not row["ok"]}
    for name, row in failed.items():
        print(
            f"MISMATCH {name}: {row['digest']} != golden {row['golden']}\n"
            f"  {json.dumps({k: v for k, v in row.items() if k not in ('digest', 'golden')})}",
            file=sys.stderr,
        )
    if not failed:
        print(f"check ok ({len(report)} rows)")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
