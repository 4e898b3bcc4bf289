"""W1 — the warp network-load measurements of §4.3.

"The warp measured would be 1 when the network load is stable; warp
values much higher than 1 indicate increasing load on the network."

A paced probe stream crosses the Ethernet while loaders ramp the offered
background load; we report the mean and max warp per load level, plus
the warp observed by a fully asynchronous island GA versus a
Global_Read-throttled one on a loaded network (the asynchronous GA's
flooding shows up directly in its warp).
"""

from __future__ import annotations

from functools import partial

from repro.core.coherence import CoherenceMode
from repro.experiments.cli import Driver
from repro.experiments.config import Scale, current_scale
from repro.experiments.reporting import text_table
from repro.experiments.runner import run_cells
from repro.experiments.speedup import GaVariant
from repro.faults.plan import FaultPlan
from repro.ga.functions import get_function
from repro.network.frame import Frame
from repro.network.warp import WarpMeter


def probe_warp(
    load_bps: float,
    seed: int = 0,
    n_probes: int = 200,
    faults: FaultPlan | None = None,
) -> dict:
    """Mean/max warp of a paced 2-node probe stream under ``load_bps``."""
    from repro.faults.injectors import install_faults
    from repro.network.ethernet import EthernetNetwork
    from repro.network.loader import LoaderConfig, NetworkLoader
    from repro.sim import Kernel

    kernel = Kernel(seed=seed)
    net = EthernetNetwork(kernel)
    net.attach(0, lambda f: None)
    net.attach(1, lambda f: None)
    # Warp measures the *rate of change* of network load (§4.3): under a
    # steady stream it sits at 1 regardless of the level, so the loaders
    # start 40% of the way through the probe window — the ramp is what
    # drives warp above 1, and the heavier the ramp the higher the spike.
    # The load is spread over three loader pairs (more contenders squeeze
    # the probe's round-robin share of the medium, as real bursty
    # multi-host load does).
    gap = 0.0015
    ramp_at = 0.4 * n_probes * gap
    if load_bps > 0:
        for k in range(3):
            NetworkLoader(
                kernel,
                net,
                LoaderConfig(offered_load_bps=load_bps / 3, frame_payload_bytes=1500),
                src_node=8 + 2 * k,
                dst_node=9 + 2 * k,
                name=f"loader{k}",
            ).start(delay=ramp_at)
    meter = WarpMeter(kinds={"probe"}).attach(net)
    if faults is not None and not faults.is_noop:
        install_faults(kernel, net, [], faults)

    def inject(i: int) -> None:
        net.adapters[0].send(Frame(src=0, dst=1, size_bytes=512, kind="probe"))
        if i + 1 < n_probes:
            kernel.schedule(gap, inject, i + 1)

    kernel.schedule(0.0, inject, 0)
    # the time cap only matters under faults: dropped probes mean the
    # sample target can become unreachable, and the loaders never stop
    deadline = n_probes * gap + 0.5
    kernel.run(
        stop_when=lambda: meter.overall.count >= n_probes - 1
        or kernel.now >= deadline,
    )
    return {
        "load_mbps": load_bps / 1e6,
        "mean_warp": meter.mean_warp,
        "max_warp": meter.max_warp,
        "samples": meter.overall.count,
    }


def ga_warp(
    scale: Scale,
    variant: GaVariant,
    load_bps: float,
    faults: FaultPlan | None = None,
    shards: int = 1,
) -> dict:
    """Mean warp observed by an island GA run under background load."""
    fn = get_function(scale.ga_functions[0])
    r = variant.run(scale, fn, 4, 3, scale.ga_generations, load_bps, faults, shards)
    return {"variant": variant.label, "mean_warp": r.mean_warp}


def run_warp_study(
    scale: Scale | None = None,
    jobs: int | None = None,
    faults: FaultPlan | None = None,
    shards: int = 1,
) -> dict:
    """Probe-stream warp per load level plus the GA-observed warp comparison.

    One cell per probe load (key ``"probe"``) and per GA variant (key
    ``"ga"``); the grouped results are the returned dict.
    """
    scale = scale or current_scale()
    age = scale.ages[-1]
    variants = [
        GaVariant("async", CoherenceMode.ASYNCHRONOUS),
        GaVariant(f"gr{age}", CoherenceMode.NON_STRICT, age),
    ]
    return run_cells(
        [
            ("probe", partial(probe_warp, load, 0, 200, faults))
            for load in (0.0, *scale.loads_bps, 6e6)
        ]
        + [
            ("ga", partial(ga_warp, scale, v, scale.loads_bps[-1], faults, shards))
            for v in variants
        ],
        jobs,
    )


def format_warp_study(result: dict) -> str:
    """Render the warp-study result as two text tables."""
    probe = text_table(
        ["load (Mbps)", "mean warp", "max warp", "samples"],
        [
            [r["load_mbps"], r["mean_warp"], r["max_warp"], r["samples"]]
            for r in result["probe"]
        ],
        title="W1 — warp of a paced probe stream vs offered background load",
    )
    ga = text_table(
        ["GA variant", "mean warp under load"],
        [[r["variant"], r["mean_warp"]] for r in result["ga"]],
        title="W1 — warp observed by island-GA traffic (loaded network)",
    )
    return probe + "\n\n" + ga


main = Driver(
    "W1 — warp vs offered load, optionally with seeded fault "
    "injection (--faults).",
    run_warp_study,
    format_warp_study,
    loaded=True,
).main

if __name__ == "__main__":
    raise SystemExit(main())
