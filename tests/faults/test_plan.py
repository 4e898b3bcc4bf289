"""FaultPlan / MessageFaults / NodeFault declaration semantics."""

import pytest

from repro.faults import (
    DEFAULT_PROTECTED_TAGS,
    FaultPlan,
    MessageFaults,
    NodeFault,
)


def test_default_plan_is_noop():
    plan = FaultPlan.none()
    assert plan.is_noop
    assert not plan.messages.any_rate
    assert plan.node_faults == ()


def test_rates_must_be_probabilities():
    with pytest.raises(ValueError):
        MessageFaults(drop=1.5)
    with pytest.raises(ValueError):
        MessageFaults(duplicate=-0.1)
    with pytest.raises(ValueError):
        MessageFaults(drop=0.5, duplicate=0.3, delay=0.2, reorder=0.1)  # sum > 1


def test_window_validation():
    with pytest.raises(ValueError):
        MessageFaults(start=2.0, stop=1.0)
    m = MessageFaults(drop=0.1, start=1.0, stop=2.0)
    assert not m.active(0.5)
    assert m.active(1.0)
    assert m.active(1.999)
    assert not m.active(2.0)
    assert MessageFaults(drop=0.1).active(1e9)  # stop=None: forever


def test_node_fault_validation():
    with pytest.raises(ValueError):
        NodeFault(node=0, kind="explode", start=0.0, duration=1.0)
    with pytest.raises(ValueError):
        NodeFault(node=0, kind="pause", start=0.0, duration=0.0)
    with pytest.raises(ValueError):
        NodeFault(node=0, kind="slowdown", start=0.0, duration=1.0, factor=1.0)
    f = NodeFault(node=3, kind="pause", start=1.5, duration=0.5)
    assert f.end == 2.0


def test_faults_for_node_sorted_by_start():
    plan = FaultPlan(
        node_faults=(
            NodeFault(node=1, kind="pause", start=2.0, duration=0.1),
            NodeFault(node=1, kind="pause", start=0.5, duration=0.1),
            NodeFault(node=2, kind="crash", start=1.0, duration=0.1),
        )
    )
    mine = plan.faults_for_node(1)
    assert [f.start for f in mine] == [0.5, 2.0]
    assert plan.faults_for_node(0) == ()
    assert not plan.is_noop


def test_parse_full_spec():
    plan = FaultPlan.parse(
        "drop=0.05,dup=0.02,delay=0.05,delay_s=0.0005:0.005,reorder=0.1,"
        "seed=7,start=0.1,stop=2.5,pause=1:0.5:0.2,slow=2:1.0:0.5:3.0,"
        "crash=0:2.0:0.3"
    )
    m = plan.messages
    assert plan.seed == 7
    assert (m.drop, m.duplicate, m.delay, m.reorder) == (0.05, 0.02, 0.05, 0.1)
    assert m.delay_s == (0.0005, 0.005)
    assert (m.start, m.stop) == (0.1, 2.5)
    kinds = {(f.node, f.kind) for f in plan.node_faults}
    assert kinds == {(1, "pause"), (2, "slowdown"), (0, "crash")}
    assert next(f for f in plan.node_faults if f.kind == "slowdown").factor == 3.0


def test_parse_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown fault spec key"):
        FaultPlan.parse("dorp=0.05")
    with pytest.raises(ValueError, match="key=value"):
        FaultPlan.parse("drop")
    with pytest.raises(ValueError, match="NODE:START:DURATION"):
        FaultPlan.parse("pause=1:0.5")


def test_parse_stop_inf_and_single_delay():
    plan = FaultPlan.parse("delay=0.1,delay_s=0.002,stop=inf")
    assert plan.messages.stop is None
    assert plan.messages.delay_s == (0.002, 0.002)


def test_barrier_tags_protected_by_default():
    assert set(DEFAULT_PROTECTED_TAGS) == {-1000, -1001}
    assert MessageFaults().protect_tags == DEFAULT_PROTECTED_TAGS


def test_describe_mentions_active_faults():
    plan = FaultPlan.parse("drop=0.05,crash=1:1.0:0.5,seed=3")
    text = plan.describe()
    assert "drop=0.05" in text
    assert "crash(n1@1+0.5)" in text
    assert "seed=3" in text
