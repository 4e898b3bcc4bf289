"""Every input dataclass refuses what its declared rules refuse.

An input dataclass (see ``repro.inputs``) declares one rule per numeric
field.  The tests here find every such class in the package and check
the declarations are total and enforced:

* each constrained field, fed its boundary values (0, -1, NaN, ±inf,
  bound ± 1, a non-member), refuses every value outside its rule with a
  ``ValueError`` naming the class and the field;
* each numeric field carries a rule or an ``unconstrained`` reason;
* each config-, spec-, params-, cost-model-, overheads- or fault-named
  dataclass is an input dataclass;
* each init field of an input dataclass has a setter outside ``tests/``
  (the setter scan below): a field whose default is the only value any
  run uses is a module constant, not an input.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import math
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.bayes.network import BayesianNetwork, BayesNode
from repro.core.coherence import CoherenceMode
from repro.ga.functions import get_function
from repro.ga.island import IslandGaConfig
from repro.ga.operators import GaParams
from repro.inputs import RULE
from repro.network.loader import LoaderConfig
from tests.test_callers import CALLER_ROOTS, ROOT, SOURCE, call_name, caller_files

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
    assert {"MachineConfig", "SwitchedConfig", "IslandGaConfig", "MessageFaults"} <= names
    assert len(CONSTRAINED) >= 69


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
        (LoaderConfig, {"offered_load_bps": math.nan}),
        (GaParams, {"population_size": 2.5}),
        # built, then died in deme 0 when the controller refused the age
        (IslandGaConfig, {"age": 61, "dynamic_age": True}),
    ],
    ids=lambda v: next(iter(v)) if isinstance(v, dict) else v.__name__,
)
def test_inputs_that_used_to_run_to_a_wrong_answer_are_refused(cls, kwargs):
    """Each of these used to be accepted and ran to a wrong answer (or
    died mid-run); the message names the first field given."""
    field = next(iter(kwargs))
    with pytest.raises(ValueError, match=rf"{cls.__name__}\.{field} must be"):
        cls(**{**REQUIRED.get(cls.__name__, {}), **kwargs})


# ----------------------------------------------------------------------
# The setter scan: every init field of an input dataclass is set by some
# code outside tests/.
#
# An input dataclass, for the scan, is a class under ``src/repro`` whose
# ``__post_init__`` calls ``check_fields``.  A field counts as set when,
# in a file of ``CALLER_ROOTS`` (the caller scan's file set), it is
#
# * a keyword of a call to its class, or of ``cls(...)`` inside one of
#   the class's own classmethods;
# * a positional argument of such a call, at the field's index;
# * a keyword of any ``replace(...)`` call (``dataclasses.replace`` under
#   any import alias), whatever the class of its first argument;
# * named by an identifier-shaped string literal in a module that calls
#   the class with ``**mapping`` (how ``FaultPlan.parse`` builds
#   ``MessageFaults``).
#
# The field's own default is not a setter, and neither is ``tests/``.
# Nor is a keyword whose value reads the same attribute name
# (``Class(f=other.f)``): it copies the field, it does not set it.
# ----------------------------------------------------------------------

#: "<Class>.<field>" -> why it has no setter the scan can see
SETTER_ALLOWED: dict[str, str] = {}

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _init_field(stmt: ast.stmt) -> str | None:
    """The field an annotated class-body statement declares, if ``__init__`` takes it."""
    if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
        return None
    if "ClassVar" in ast.unparse(stmt.annotation):
        return None
    value = stmt.value
    if isinstance(value, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in value.keywords
    ):
        return None
    return stmt.target.id


def input_fields(source: Path) -> dict[str, list[str]]:
    """Class name -> init fields, in order, of every input dataclass under *source*."""
    found: dict[str, list[str]] = {}
    for path in sorted(source.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ClassDef):
                continue
            post = [f for f in node.body
                    if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"]
            if not any(isinstance(c, ast.Call) and call_name(c.func) == "check_fields"
                       for f in post for c in ast.walk(f)):
                continue
            assert node.name not in found, f"two input dataclasses named {node.name}"
            found[node.name] = [f for f in map(_init_field, node.body) if f is not None]
    return found


def _copies(k: ast.keyword) -> bool:
    """``f=<expr>.f``: the keyword copies field ``f`` from another instance."""
    return isinstance(k.value, ast.Attribute) and k.value.attr == k.arg


def _setters(path: Path, classes: dict[str, list[str]]) -> set[tuple[str, str]]:
    """``(class, field)`` pairs one file sets."""
    tree = ast.parse(path.read_text(), filename=str(path))
    replace_names = {"replace"} | {
        alias.asname for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.name == "replace" and alias.asname
    }
    strings = {
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and _IDENT.match(node.value)
    }
    # id(call) -> owning class, for the cls(...) calls in a class's classmethods
    own: dict[int, str] = {}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name in classes:
            for f in cls.body:
                if isinstance(f, ast.FunctionDef) and any(
                    call_name(d) == "classmethod" for d in f.decorator_list
                ):
                    own.update((id(n), cls.name) for n in ast.walk(f))
    found: set[tuple[str, str]] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node.func)
        if name in replace_names:
            found.update((c, k.arg) for k in node.keywords if not _copies(k)
                         for c, fields in classes.items() if k.arg in fields)
            continue
        owner = name if name in classes else own.get(id(node)) if name == "cls" else None
        if owner is None:
            continue
        fields = classes[owner]
        for i, arg in enumerate(node.args[:len(fields)]):
            if isinstance(arg, ast.Starred):
                break
            found.add((owner, fields[i]))
        for k in node.keywords:
            if k.arg is None:  # Class(**mapping): the module's string literals
                found.update((owner, f) for f in fields if f in strings)
            elif k.arg in fields and not _copies(k):
                found.add((owner, k.arg))
    return found


def unset_fields(source: Path, caller_roots: list[Path]) -> list[str]:
    """``"Class.field"`` of every input-dataclass field no file under *caller_roots* sets."""
    classes = input_fields(source)
    found: set[tuple[str, str]] = set()
    for path in caller_files(caller_roots):
        found |= _setters(path, classes)
    return [f"{c}.{f}" for c, fields in sorted(classes.items())
            for f in fields if (c, f) not in found]



def test_the_setter_walk_sees_the_same_input_dataclasses_as_the_runtime_walk():
    """The AST walk finds the runtime walk's input classes, field for field
    (a subclass that inherits its ``__post_init__`` is not walked)."""
    walked = input_fields(SOURCE)
    own = [cls for cls in INPUTS if "__post_init__" in vars(cls)]
    assert {cls.__name__ for cls in own} <= set(walked)
    for cls in own:
        assert walked[cls.__name__] == [f.name for f in dataclasses.fields(cls) if f.init]


def test_every_input_field_has_a_non_test_setter():
    found = unset_fields(SOURCE, [ROOT / r for r in CALLER_ROOTS])
    unexplained = sorted(set(found) - set(SETTER_ALLOWED))
    assert not unexplained, (
        "input fields that no code outside tests/ sets: make each a module "
        "constant with its default's value, or add a SETTER_ALLOWED entry "
        "with a reason\n  " + "\n  ".join(unexplained))
    stale = sorted(set(SETTER_ALLOWED) - set(found))
    assert not stale, f"SETTER_ALLOWED entries that now have a setter: {stale}"


def test_the_setter_allow_list_is_short_and_every_entry_gives_a_reason():
    assert len(SETTER_ALLOWED) <= 3
    assert all(reason.strip() for reason in SETTER_ALLOWED.values())


def test_the_setter_scan_flags_an_unset_field_and_accepts_each_setter_form(tmp_path):
    src = tmp_path / "src" / "pkg"
    src.mkdir(parents=True)
    (src / "__init__.py").write_text("")
    (src / "mod.py").write_text(
        "from dataclasses import dataclass, field\n"
        "from typing import ClassVar\n"
        "from pkg.inputs import check_fields\n\n"
        "@dataclass\n"
        "class Box:\n"
        "    by_position: int = 0\n"
        "    by_keyword: int = 0\n"
        "    by_replace: int = 0\n"
        "    by_mapping: int = 0\n"
        "    by_classmethod: int = 0\n"
        "    by_test_only: int = 0\n"
        "    by_default_only: int = 0\n"
        "    by_copy_only: int = 0\n"
        "    derived: int = field(init=False, default=0)\n"
        "    LIMIT: ClassVar[int] = 3\n"
        "    def __post_init__(self):\n        check_fields(self)\n"
        "    @classmethod\n"
        "    def preset(cls):\n        return cls(by_classmethod=1)\n"
        "    def other(self):\n        return cls(by_default_only=1)\n\n"
        "@dataclass\n"
        "class Plain:\n"
        "    never_set: int = 0\n")
    (src / "parse.py").write_text(
        "from pkg.mod import Box\n\n"
        "def parse(text):\n"
        "    kwargs = {}\n"
        "    if text == 'x':\n        kwargs['by_mapping'] = 1\n"
        "    return Box(**kwargs)\n")
    examples = tmp_path / "examples"
    examples.mkdir()
    (examples / "demo.py").write_text(
        "from dataclasses import replace as _replace\n"
        "from pkg.mod import Box\n"
        "box = Box(1, by_keyword=2)\n"
        "box = _replace(box, by_replace=3)\n"
        "box = Box(by_copy_only=box.by_copy_only)\n"  # copies, does not set
        "box = _replace(box, by_copy_only=box.by_copy_only)\n"
        "'by_default_only'\n")  # a literal, but no Box(**mapping) here
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_mod.py").write_text("from pkg.mod import Box\nBox(by_test_only=1)\n")

    assert list(input_fields(src)) == ["Box"]
    assert "derived" not in input_fields(src)["Box"]
    assert "LIMIT" not in input_fields(src)["Box"]
    assert unset_fields(src, [src, examples]) == [
        "Box.by_test_only", "Box.by_default_only", "Box.by_copy_only",
    ]
    # without the example, its positional, keyword and replace setters go too
    assert unset_fields(src, [src]) == [
        "Box.by_position", "Box.by_keyword", "Box.by_replace",
        "Box.by_test_only", "Box.by_default_only", "Box.by_copy_only",
    ]
