"""Node compute model: speed factors, jitter statistics, validation."""

import numpy as np
import pytest

from repro.cluster import Node, NodeSpec
from repro.sim import Kernel


def test_reference_node_cost_is_identity():
    node = Node(Kernel(), 0, NodeSpec())
    assert node.cost(0.5) == 0.5


def test_speed_factor_scales_cost():
    node = Node(Kernel(), 0, NodeSpec(speed_factor=2.0))
    assert node.cost(1.0) == pytest.approx(0.5)


def test_jitter_is_mean_preserving():
    node = Node(Kernel(seed=3), 0, NodeSpec(jitter_sigma=0.3))
    costs = np.array([node.cost(1.0) for _ in range(20000)])
    assert costs.mean() == pytest.approx(1.0, rel=0.02)
    assert costs.std() > 0.2


def test_jitter_zero_is_deterministic():
    node = Node(Kernel(seed=3), 0, NodeSpec(jitter_sigma=0.0))
    assert node.cost(1.0) == node.cost(1.0) == 1.0


def test_jitter_reproducible_per_seed_and_node():
    a = [Node(Kernel(seed=7), 4, NodeSpec(jitter_sigma=0.2)).cost(1.0) for _ in range(1)]
    b = [Node(Kernel(seed=7), 4, NodeSpec(jitter_sigma=0.2)).cost(1.0) for _ in range(1)]
    assert a == b
    c = Node(Kernel(seed=7), 5, NodeSpec(jitter_sigma=0.2)).cost(1.0)
    assert c != a[0]


def test_zero_cost_never_jitters():
    node = Node(Kernel(seed=1), 0, NodeSpec(jitter_sigma=0.5))
    assert node.cost(0.0) == 0.0


def test_invalid_spec_rejected():
    with pytest.raises(ValueError):
        NodeSpec(speed_factor=0.0)
    with pytest.raises(ValueError):
        NodeSpec(jitter_sigma=-0.1)


@pytest.mark.parametrize(
    "field, value",
    [
        ("speed_factor", -1.0),
        ("speed_factor", float("inf")),
        ("speed_factor", float("nan")),
        ("jitter_sigma", float("inf")),
        ("jitter_sigma", float("nan")),
    ],
)
def test_unrunnable_spec_is_refused_naming_the_field(field, value):
    with pytest.raises(ValueError, match=rf"^NodeSpec\.{field} must be finite"):
        NodeSpec(**{field: value})


def test_negative_cost_rejected():
    node = Node(Kernel(), 0, NodeSpec())
    with pytest.raises(ValueError):
        node.cost(-1.0)
