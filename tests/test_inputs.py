"""Every input dataclass refuses what its declared rules refuse.

An input dataclass (see ``repro.inputs``) declares one rule per numeric
field.  The tests here find every such class in the package and check
the declarations are total and enforced:

* each constrained field, fed its boundary values (0, -1, NaN, ±inf,
  bound ± 1, a non-member), refuses every value outside its rule with a
  ``ValueError`` naming the class and the field;
* each numeric field carries a rule or an ``unconstrained`` reason;
* each config-, spec-, params-, cost-model-, overheads- or fault-named
  dataclass is an input dataclass.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import math
import pkgutil
import re

import numpy as np
import pytest

import repro
from repro.bayes.costs import LsCostModel
from repro.bayes.network import BayesianNetwork, BayesNode
from repro.cluster.machine import MachineConfig
from repro.core.coherence import CoherenceMode
from repro.ga.costs import GaCostModel
from repro.ga.functions import get_function
from repro.ga.operators import GaParams
from repro.inputs import RULE
from repro.network.ethernet import EthernetConfig
from repro.network.loader import LoaderConfig
from repro.pvm.vm import PvmOverheads

#: names that say "a caller builds this to describe a run"
INPUT_NAME = re.compile(r"(Config|Spec|Params|CostModel|Overheads|Faults|Fault|FaultPlan)$")


def _dataclasses() -> list[type]:
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and dataclasses.is_dataclass(obj)
                and obj.__module__ == module.__name__
            ):
                found[obj.__qualname__] = obj
    return [found[name] for name in sorted(found)]


DATACLASSES = _dataclasses()
INPUTS = [
    cls for cls in DATACLASSES
    if any(RULE in f.metadata for f in dataclasses.fields(cls))
]


def _net() -> BayesianNetwork:
    return BayesianNetwork([
        BayesNode(0, 2, (), np.array([0.5, 0.5])),
        BayesNode(1, 2, (0,), np.array([[0.5, 0.5], [0.4, 0.6]])),
    ])


#: valid values for the fields with no default
REQUIRED = {
    "BayesNode": dict(name=0, n_values=2, parents=(), cpt=np.array([0.5, 0.5])),
    "BinaryEncoding": dict(n_vars=1, bits_per_var=8, lower=0.0, upper=1.0),
    "ContractDecl": dict(pattern="x"),
    "IslandGaConfig": dict(fn=get_function(1), n_demes=2, mode=CoherenceMode.NON_STRICT),
    "NodeFault": dict(node=0, kind="pause", start=0.0, duration=1.0),
    "ParallelLsConfig": dict(net=_net(), query=0),
    "PosteriorEstimator": dict(n_values=2),
    "SharedLocationSpec": dict(name="x", writer=0, readers=(1,)),
    "StalenessContract": dict(pattern="x"),
    # one node, so a one-element speed_factors is the right length
    "MachineConfig": dict(n_nodes=1),
}


def _base(cls):
    return cls(**REQUIRED.get(cls.__name__, {}))


def _rule_of(f):
    return f.metadata.get(RULE)


def _is_numeric(f) -> bool:
    if re.search(r"\b(int|float)\b", str(f.type)):
        return True
    default = f.default
    return isinstance(default, (int, float)) and not isinstance(default, bool)


def _boundary_values(rule) -> list:
    values = [0, -1, 1, 0.5, 2, math.nan, math.inf, -math.inf, None, "no-such-value", ""]
    if rule.kind == "int":
        values += [rule.lo - 1, rule.lo, rule.lo + 1, rule.lo + 0.5]
    if rule.hi is not None:
        values += [rule.hi - 1, rule.hi, rule.hi + 1]
    return values


def _refused(rule, v) -> bool:
    """What the rule vocabulary promises, written out independently."""
    if v is None:
        return not rule.optional
    if rule.kind == "nonempty":
        return not (isinstance(v, str) and v != "")
    if rule.kind == "one_of":
        return v not in rule.lo
    if isinstance(v, str):
        return True
    if rule.kind == "int":
        return not (isinstance(v, int) and v >= rule.lo and (rule.hi is None or v <= rule.hi))
    if not math.isfinite(v):
        return True
    if rule.kind == "probability":
        return not 0 <= v <= 1
    if rule.kind == "nonnegative":
        return v < 0
    assert rule.kind == "positive", rule.kind
    if v <= 0:
        return True
    if rule.hi is None:
        return False
    return v >= rule.hi if rule.hi_open else v > rule.hi


CONSTRAINED = [
    pytest.param(cls, f, id=f"{cls.__name__}.{f.name}")
    for cls in INPUTS
    for f in dataclasses.fields(cls)
    if f.init and _rule_of(f) is not None and _rule_of(f).ok is not None
]


def test_the_walk_finds_the_input_dataclasses():
    names = {cls.__name__ for cls in INPUTS}
    assert {"EthernetConfig", "MachineConfig", "GaCostModel", "MessageFaults"} <= names
    assert len(CONSTRAINED) > 80


@pytest.mark.parametrize("cls, f", CONSTRAINED)
def test_every_constrained_field_refuses_its_boundary_values(cls, f):
    rule = _rule_of(f)
    base = _base(cls)  # the defaults themselves are valid
    for v in _boundary_values(rule):
        if not _refused(rule, v):
            continue
        if rule.each:
            current = tuple(getattr(base, f.name))
            value = (v,) + current[1:] if current else (v,)
        else:
            value = v
        with pytest.raises(ValueError) as exc:
            dataclasses.replace(base, **{f.name: value})
        assert f"{cls.__name__}.{f.name}" in str(exc.value), (v, str(exc.value))


@pytest.mark.parametrize("cls", INPUTS, ids=lambda cls: cls.__name__)
def test_every_numeric_field_has_a_rule_or_a_reason(cls):
    missing = [
        f.name for f in dataclasses.fields(cls)
        if f.init and _is_numeric(f) and _rule_of(f) is None
    ]
    assert not missing, f"{cls.__name__}: declare a rule or unconstrained(reason) for {missing}"
    assert "check_fields" in inspect.getsource(cls.__post_init__), (
        f"{cls.__name__} declares rules but never enforces them"
    )


def test_every_input_named_dataclass_declares_its_rules():
    undeclared = [
        cls.__qualname__ for cls in DATACLASSES
        if INPUT_NAME.search(cls.__name__) and cls not in INPUTS
    ]
    assert not undeclared


@pytest.mark.parametrize(
    "cls, kwargs",
    [
        (EthernetConfig, {"prop_delay": math.inf}),
        (EthernetConfig, {"ifg": math.inf}),
        (EthernetConfig, {"overhead_bytes": -30}),
        (LoaderConfig, {"offered_load_bps": math.nan}),
        (LsCostModel, {"sample_per_node": -1.0}),
        (GaCostModel, {"eval_base": -1.0}),
        (MachineConfig, {"loader_frame_bytes": 0}),
        (GaParams, {"population_size": 2.5}),
        (PvmOverheads, {"header_bytes": 1.5}),
    ],
    ids=lambda v: next(iter(v)) if isinstance(v, dict) else v.__name__,
)
def test_inputs_that_used_to_run_to_a_wrong_answer_are_refused(cls, kwargs):
    """Each of these used to be accepted: ``prop_delay=inf`` ran a GA to
    ``total_time = inf``, ``eval_base=-1`` died mid-run in a deme."""
    (field,) = kwargs
    with pytest.raises(ValueError, match=rf"{cls.__name__}\.{field} must be"):
        cls(**kwargs)
