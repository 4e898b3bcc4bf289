"""Chaos rows: same plan seed => identical trace digest.

These are the property (a) tests of the chaos suite: a fault-injected
run is a pure function of ``(workload, FaultPlan)``.  Two back-to-back
runs of any chaos row must produce bit-identical SHA-256 digests, and
every row must match its checked-in golden in ``repro.check.GOLDEN``.
"""

from dataclasses import replace

import pytest

from repro.check import GOLDEN, ga_digest, golden_ga
from repro.faults.chaos import PLANS, traffic_case
from repro.faults.plan import FaultPlan, MessageFaults
from repro.ga.island import run_island_ga

# run the cheap traffic family twice for the rerun property; the whole
# matrix runs once against the goldens in the session's check report
_TRAFFIC_CASES = [n for n in PLANS if n.startswith("traffic-")]


@pytest.mark.parametrize("name", _TRAFFIC_CASES)
def test_same_seed_two_runs_identical_digest(name):
    d1, s1 = traffic_case(PLANS[name])
    d2, s2 = traffic_case(PLANS[name])
    assert d1 == d2
    assert s1 == s2


def test_matrix_matches_goldens(check_report):
    assert set(PLANS) <= set(GOLDEN)
    mismatched = {
        n: (check_report[n]["digest"], check_report[n]["golden"])
        for n in PLANS
        if not check_report[n]["ok"]
    }
    assert mismatched == {}


def test_different_seed_changes_digest():
    plan = FaultPlan(seed=1, messages=MessageFaults(drop=0.15, stop=0.015))
    d1, _ = traffic_case(plan)
    d2, _ = traffic_case(replace(plan, seed=12345))
    assert d1 != d2


def test_every_case_actually_injects(check_report):
    # a chaos case that injects nothing is testing nothing
    healthy_ga_digest = ga_digest(run_island_ga(golden_ga()), fault_log=[])
    for name in PLANS:
        digest, summary = check_report[name]["digest"], check_report[name]["summary"]
        if name == "traffic-crash":
            assert summary["crash_frames_lost"] > 0, name
        elif name == "ga-node-faults":
            # node faults leave message counters at zero; the evidence of
            # injection is that the GA's observable result moved
            assert digest != healthy_ga_digest, name
        elif name == "bayes-duplicate":
            assert summary["duplicate_messages"] > 0, name
            assert summary["converged"], name
        else:
            injected = (
                summary["dropped"]
                + summary["duplicated"]
                + summary["delayed"]
                + summary["reordered"]
            )
            assert injected > 0, name
