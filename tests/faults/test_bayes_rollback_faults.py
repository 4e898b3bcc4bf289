"""Property (c): Bayes rollback terminates under duplicated/reordered
anti-messages.

Three layers of defence, each pinned here:

* the GVT oracle ignores acknowledgements for messages it has already
  accounted (a duplicated delivery must not underflow ``in_flight`` or
  advance the floor early),
* correction versioning makes ``fold_correction`` idempotent and
  order-insensitive (a reordered stale correction cannot revert newer
  state and restart a settled cascade),
* the end-to-end sampler dedupes whole correction messages by
  ``(sender, msg_id)`` — and still converges with a bounded number of
  rollbacks under duplication and reordering plans.
"""

import numpy as np
import pytest

from repro.bayes import make_random_network
from repro.bayes.parallel import ParallelLsConfig, run_parallel_logic_sampling
from repro.bayes.rollback import GvtOracle, ProcessorState
from repro.cluster import MachineConfig
from repro.core.coherence import CoherenceMode
from repro.faults import FaultPlan, MessageFaults


# ---------------------------------------------------------------------------
# GVT oracle under duplicated acknowledgements
# ---------------------------------------------------------------------------

def test_oracle_tolerates_duplicate_acks():
    o = GvtOracle(2)
    o.message_sent(3)
    o.message_applied(3)
    assert o.in_flight == {}
    o.message_applied(3)  # the duplicate delivery's ack
    assert o.duplicate_acks == 1
    assert o.in_flight == {}  # no underflow, no resurrected key
    o.message_applied(99)  # ack for a message never sent
    assert o.duplicate_acks == 2


def test_oracle_floor_stays_conservative_under_duplicates():
    o = GvtOracle(2)
    o.progress = [5, 5]
    o.message_sent(2)
    o.message_sent(2)
    o.message_applied(2)
    assert o.floor() == 1  # one copy still in flight
    o.message_applied(2)
    assert o.floor() == 5
    o.message_applied(2)  # duplicate: floor must not move further
    assert o.floor() == 5
    assert o.duplicate_acks == 1


# ---------------------------------------------------------------------------
# Correction version filter
# ---------------------------------------------------------------------------

def make_state():
    net = make_random_network(16, 22, seed=1, name="small")
    owner = {v: v % 2 for v in net.nodes}
    st = ProcessorState(net, owner, 1, net.default_values(seed=0))
    assert st.remote_parents, "partition must leave proc 1 with remote inputs"
    return net, st


def test_fold_correction_discards_stale_versions():
    _, st = make_state()
    oracle = GvtOracle(2)
    rng = np.random.default_rng(0)
    u = min(st.remote_parents)

    st.sample_iteration(0, rng, oracle)
    st.fold_correction(u, 0, 1, 1, rng, oracle)
    assert st.remote_values[0][u] == 1
    assert st.stats.stale_corrections == 0

    # same version again (a duplicated correction): discarded
    st.fold_correction(u, 0, 0, 1, rng, oracle)
    assert st.remote_values[0][u] == 1
    assert st.stats.stale_corrections == 1

    # version 0 (the reordered original batch value): discarded
    st.fold_correction(u, 0, 0, 0, rng, oracle)
    assert st.remote_values[0][u] == 1
    assert st.stats.stale_corrections == 2

    # a genuinely newer version still applies
    st.fold_correction(u, 0, 0, 2, rng, oracle)
    assert st.remote_values[0][u] == 0
    assert st.stats.stale_corrections == 2


def test_recompute_versions_increase_per_location():
    _, st = make_state()
    oracle = GvtOracle(2)
    rng = np.random.default_rng(0)
    u = min(st.remote_parents)
    st.sample_iteration(0, rng, oracle)
    st.published_upto = 0  # pretend the batch for t=0 went out
    seen: dict[tuple[int, int], list[int]] = {}
    for k, value in enumerate([1, 0, 1, 0]):
        for (v, t, _, ver) in st.fold_correction(u, 0, value, k + 1, rng, oracle):
            seen.setdefault((v, t), []).append(ver)
    for key, versions in seen.items():
        assert versions == sorted(versions), key
        assert len(set(versions)) == len(versions), key


# ---------------------------------------------------------------------------
# End to end: the sampler under duplication / duplication + reordering
# ---------------------------------------------------------------------------

def run_faulted_sampler(messages, seed=7, max_iterations=30_000):
    net = make_random_network(16, 22, seed=1, name="small")
    return run_parallel_logic_sampling(
        ParallelLsConfig(
            net=net,
            query=max(net.nodes),
            n_procs=2,
            mode=CoherenceMode.NON_STRICT,
            age=5,
            seed=seed,
            machine=MachineConfig(
                n_nodes=2, seed=seed,
                faults=FaultPlan(seed=seed, messages=messages),
            ),
            max_iterations=max_iterations,
        )
    )


@pytest.mark.parametrize(
    "name,messages",
    [
        ("duplicate", MessageFaults(duplicate=0.2)),
        ("duplicate+reorder", MessageFaults(duplicate=0.1, reorder=0.2)),
    ],
)
def test_sampler_terminates_under_fault_plan(name, messages):
    r = run_faulted_sampler(messages)
    # termination with a bounded cascade: every rollback resamples work,
    # so rollbacks can never exceed the work actually performed
    total_sampled = sum(r.iterations_sampled)
    assert total_sampled > 0
    assert r.rollback.rollbacks < total_sampled
    assert r.converged


def test_duplicated_messages_are_counted_and_dropped():
    r = run_faulted_sampler(MessageFaults(duplicate=0.2))
    assert r.rollback.duplicate_messages > 0


def test_fault_free_counters_stay_zero():
    r = run_faulted_sampler(MessageFaults())
    assert r.rollback.duplicate_messages == 0
    assert r.rollback.stale_corrections == 0
