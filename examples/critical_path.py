"""Causal analysis of a traced run: spans, attribution, critical path.

Runs the same 4-node island GA twice — once with a strict staleness
bound (age=0) and once relaxed (age=10) — then uses the causal layer
(DESIGN.md §11) on the in-memory traces:

1. builds the span graph and attributes each node's wall time to
   compute / Global_Read blocking / network / rollback / idle,
2. walks the cross-node critical path and prints its composition,
3. diffs the two runs by iteration — the Figure-4 trade-off in two
   numbers (blocking falls, staleness rises),
4. writes ``critical_path_dashboard.html``, the single-file HTML page:
   the per-node timeline with the critical path outlined, then the
   report's tables.

The same numbers come from the shell via ``python -m repro.obs report
[--json | --html]`` (attribution and critical path are sections of the
one report) and ``python -m repro.obs diff`` on ``--trace`` JSONL files.

Run:  python examples/critical_path.py
"""

from repro.cluster import MachineConfig, NodeSpec
from repro.core.coherence import CoherenceMode
from repro.ga import IslandGaConfig, get_function, run_island_ga
from repro.obs.causal import attribute, build_spans, critical_path
from repro.obs.dashboard import render_dashboard
from repro.obs.diff import diff_traces, render_diff


def traced_run(age: int):
    """One traced 4-deme GA run at the given age bound; returns its bus."""
    config = MachineConfig(
        n_nodes=4,
        seed=11,
        node_spec=NodeSpec(jitter_sigma=0.02),
        speed_factors=(1.0, 1.0, 1.0, 1.6),  # one fast node -> blocking
        measure_warp=True,
        trace=True,
    )
    holder: dict = {}
    run_island_ga(
        IslandGaConfig(
            fn=get_function(1),
            n_demes=4,
            mode=CoherenceMode.NON_STRICT,
            age=age,
            n_generations=60,
            seed=11,
            machine=config,
        ),
        instrument=lambda dsm: holder.setdefault("dsm", dsm),
    )
    return holder["dsm"].vm.kernel.obs


def main() -> None:
    strict = traced_run(age=0)
    relaxed = traced_run(age=10)

    g = build_spans(relaxed.events)
    attr = attribute(g)
    print(f"span graph: {len(g.spans)} spans over {g.events} events, "
          f"t_end {g.t_end:.3f}s\n")

    print("wall-time attribution (relaxed run, seconds):")
    print("node   compute  blocked  network  rollback  idle   attributed")
    for node, pn in sorted(attr["per_node"].items()):
        print(f"{node:>4}   {pn['compute']:.3f}    {pn['gr_blocking']:.3f}"
              f"    {pn['network']:.3f}    {pn['rollback']:.3f}"
              f"     {pn['idle']:.3f}  {pn['attributed_fraction']:.1%}")
    print(f"minimum attributed fraction: "
          f"{attr['min_attributed_fraction']:.1%}\n")

    cp = critical_path(g)
    print(f"critical path: {len(cp['segments'])} segments from node "
          f"{cp['start_node']}, coverage {cp['coverage']:.1%}")
    for kind, secs in sorted(cp["by_kind"].items(), key=lambda kv: -kv[1]):
        print(f"  {kind:<12} {secs:.3f}s  ({secs / cp['t_end']:.1%})")
    print()

    d = diff_traces(strict.events, relaxed.events,
                    label_a="age=0", label_b="age=10")
    print(render_diff(d))

    html = render_dashboard(relaxed.events, title="island GA, age=10")
    with open("critical_path_dashboard.html", "w", encoding="utf-8") as fh:
        fh.write(html)
    print("\nwrote critical_path_dashboard.html — open it in a browser")


if __name__ == "__main__":
    main()
