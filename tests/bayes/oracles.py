"""Reference samplers the compiled Bayes paths are compared against."""

from bisect import bisect_right

from repro.bayes import parallel
from repro.bayes.parallel import ParallelLsConfig, run_parallel_logic_sampling
from repro.bayes.rollback import GvtOracle, ProcessorState


def sample_node_scalar(net, name, parent_values, u):
    """Sample node ``name`` of ``net`` for one run given scalar parent
    values and a uniform draw ``u``: the count of cumulative CPT entries
    ``<= u`` (why ``bisect_right`` samples what numpy did: DESIGN.md §5)."""
    row = net.cum_rows[name]
    for value in parent_values:
        row = row[value]
    return bisect_right(row, u)


def live_nodes(st: ProcessorState, query: int) -> set[int]:
    """The own nodes of ``st`` whose value something reads, by descent: a
    node is live when it is the query, or the query or another
    processor's node descends from it (the first hop off the partition
    leaves an own interface node, which is published)."""
    own = set(st.own_nodes)
    live = set()
    for v in st.own_nodes:
        desc = st.net.descendants(v)
        if v == query or query in desc or not desc <= own:
            live.add(v)
    return live


def run_recorded(monkeypatch, state_cls, net, mode, n_procs=2, age=10,
                 max_iterations=300, precision=0.01):
    """Run with ``state_cls`` standing in for ``ProcessorState``; returns
    the result, the per-processor states (each with the corrections its
    rollbacks ``emitted``, in order, and in ``runs`` every run's values,
    whether fossil-collected or still held) and the GVT oracle.  The
    query is ``max(net.nodes)``."""
    states, oracles = [], []

    class Recorded(state_cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.emitted = []
            self.collected = {}
            states.append(self)

        def collect(self, bound):
            for t in range(self.collected_upto + 1, bound + 1):
                if t in self.own_values:
                    self.collected[t] = self.own_values[t]
            super().collect(bound)

        @property
        def runs(self):
            return {**self.collected, **self.own_values}

        def _recompute(self, *args, **kwargs):
            out = super()._recompute(*args, **kwargs)
            self.emitted.append(out)
            return out

    class RecordedOracle(GvtOracle):
        def __init__(self, n_procs):
            super().__init__(n_procs)
            oracles.append(self)

    monkeypatch.setattr(parallel, "ProcessorState", Recorded)
    monkeypatch.setattr(parallel, "GvtOracle", RecordedOracle)
    result = run_parallel_logic_sampling(
        ParallelLsConfig(
            net=net, query=max(net.nodes), n_procs=n_procs, mode=mode, age=age,
            seed=3, precision=precision, max_iterations=max_iterations,
        )
    )
    return result, states, oracles[0]


class StraightLineState(ProcessorState):
    """The sampler written node by node against ``sample_node_scalar``:
    the reference the compiled plan must reproduce draw for draw.  It
    samples *every* own node, dead or live — in the synchronous stages
    too, whose plan it widens to all own nodes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.live = set(self.own_nodes)  # read by the synchronous stages

    def input_value(self, u, t, oracle):
        """The actual if it arrived, else the default, opening a gamble
        (counted here and in the oracle) at most once per ``(u, t)``."""
        val = self.remote_values.get(t, {}).get(u)
        if val is not None:
            return val
        g = self.gambles.setdefault(t, {})
        if u not in g:
            g[u] = self.defaults[u]
            self.stats.gambles += 1
            pending = oracle.pending_gambles[self.proc]
            pending[t] = pending.get(t, 0) + 1
        return g[u]

    def _parent_values(self, v, vals, t, oracle):
        return tuple(
            self.input_value(u, t, oracle) if u in self.remote_parents else vals[u]
            for u in self.net.nodes[v].parents
        )

    def sample_iteration(self, t, rng, oracle):
        vals = {}
        us = rng.random(len(self.own_nodes))
        for i, v in enumerate(self.own_nodes):
            pv = self._parent_values(v, vals, t, oracle)
            vals[v] = sample_node_scalar(self.net, v, pv, us[i])
        self.own_values[t] = vals
        oracle.sampled(self.proc, t)

    def _recompute(self, u, t, rng, oracle, cause="actual", version=0):
        vals = self.own_values.get(t)
        if vals is None:
            return []
        desc = self.net.descendants(u)
        affected = [v for v in self.own_nodes if v in desc]
        self.stats.nodes_resampled += len(affected)
        depths = self.stats.depth_histogram
        depths[len(affected)] = depths.get(len(affected), 0) + 1
        changed = []
        us = rng.random(len(affected))
        for i, v in enumerate(affected):
            pv = self._parent_values(v, vals, t, oracle)
            new = sample_node_scalar(self.net, v, pv, us[i])
            if new != vals[v]:
                vals[v] = new
                if v in self.interface_nodes and t <= self.published_upto:
                    sent = self.sent_versions.setdefault(t, {})
                    ver = sent[v] = sent.get(v, 0) + 1
                    changed.append((v, t, new, ver))
        self.stats.corrections_sent += len(changed)
        return changed
