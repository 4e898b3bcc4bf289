"""A3/A4 — ablations: sender-side buffering and the interconnect.

A3 (Mermera-style coalescing, §2.1): the fully asynchronous GA with
sender-side update buffering (drop-superseded-under-congestion) floods a
loaded network less than the paper's plain direct-send implementation —
the sender-side counterpart to Global_Read's receiver-side control.

A4 (§4.1's prediction): on the SP2's high-speed switch the synchronous
Bayesian sampler's communication penalty shrinks dramatically; the same
program that runs far below serial speed on the Ethernet becomes
competitive, while Global_Read retains its lead on the slow network —
"applications with higher communication requirements will see similar
benefits from non-strict coherence even on faster interconnects".
"""


from benchmarks.conftest import run_once
from repro.bayes.logic_sampling import run_serial_logic_sampling
from repro.bayes.parallel import ParallelLsConfig, run_parallel_logic_sampling
from repro.bayes.random_nets import make_table2_network
from repro.cluster.machine import MachineConfig
from repro.core.coherence import CoherenceMode, UpdatePolicy
from repro.experiments.table2 import pick_query
from repro.ga.functions import get_function
from repro.ga.island import IslandGaConfig, run_island_ga
from repro.network.switched import SP2_SWITCH


def test_coalescing_reduces_async_flooding(benchmark, save_result):
    """A3: asynchronous island GA, loaded network, EAGER vs COALESCE."""

    def run(policy):
        return run_island_ga(
            IslandGaConfig(
                fn=get_function(1),
                n_demes=4,
                mode=CoherenceMode.ASYNCHRONOUS,
                n_generations=250,
                seed=3,
                machine=MachineConfig(n_nodes=4, seed=3, measure_warp=True).with_load(6e6),
                update_policy=policy,
            )
        )

    def both():
        return run(UpdatePolicy.EAGER), run(UpdatePolicy.COALESCE)

    eager, coal = run_once(benchmark, both)
    lines = [
        "A3 — sender-side update coalescing (async island GA, 6 Mbps load)",
        f"EAGER   : messages={eager.messages_sent} total_time={eager.total_time:.2f}s"
        f" quality={eager.best_fitness:.4g}",
        f"COALESCE: messages={coal.messages_sent} total_time={coal.total_time:.2f}s"
        f" quality={coal.best_fitness:.4g}",
    ]
    save_result(
        "ablation_coalesce",
        "\n".join(lines),
        data=[
            {
                "policy": name,
                "messages": r.messages_sent,
                "total_time": r.total_time,
                "best_fitness": r.best_fitness,
            }
            for name, r in (("eager", eager), ("coalesce", coal))
        ],
    )
    assert coal.messages_sent < eager.messages_sent


def test_switch_interconnect_rescues_sync(benchmark, save_result):
    """A4: synchronous BN sampler on Ethernet vs the SP2 switch preset."""
    net = make_table2_network("A")
    q = pick_query(net)
    serial = run_serial_logic_sampling(net, query=q, seed=3)

    from repro.pvm.vm import PvmOverheads

    # The SP2 switch is driven through the user-space MPL transport, whose
    # per-message software cost is ~10x below PVM-over-UDP's; modelling the
    # switch without it would leave the (unchanged) software overhead
    # dominating and hide the interconnect's effect.
    mpl = PvmOverheads(
        send_fixed=0.08e-3, send_per_byte=12e-9, mcast_per_dest=0.03e-3,
        recv_fixed=0.05e-3, recv_per_byte=12e-9,
    )

    eth = MachineConfig(n_nodes=2, seed=3)
    sp2 = MachineConfig(
        n_nodes=2, seed=3, interconnect="switched", switched=SP2_SWITCH, pvm_overheads=mpl
    )

    def run(mcfg, mode, age=0):
        r = run_parallel_logic_sampling(
            ParallelLsConfig(
                net=net, query=q, n_procs=2, mode=mode, age=age, seed=3,
                machine=mcfg, max_iterations=40_000,
            )
        )
        return serial.sim_time / r.completion_time if r.completion_time else 0.0

    def all_runs():
        return {
            "sync_eth": run(eth, CoherenceMode.SYNCHRONOUS),
            "sync_switch": run(sp2, CoherenceMode.SYNCHRONOUS),
            "gr10_eth": run(eth, CoherenceMode.NON_STRICT, 10),
            "gr10_switch": run(sp2, CoherenceMode.NON_STRICT, 10),
        }

    sp = run_once(benchmark, all_runs)
    lines = ["A4 — interconnect ablation (network A, 2 processors, speedup vs serial)"]
    lines += [f"{k:12s}: {v:.2f}" for k, v in sp.items()]
    save_result("ablation_switch", "\n".join(lines), data=sp)
    # the switch removes most of sync's communication penalty...
    assert sp["sync_switch"] > 2.0 * sp["sync_eth"]
    # ...while Global_Read keeps its lead on the slow network
    assert sp["gr10_eth"] > sp["sync_eth"]
