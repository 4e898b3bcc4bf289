"""Every defaulted parameter in ``src/repro`` is passed by some code outside ``tests/``.

A parameter whose default is the only value any run uses is a module
constant, not a knob (the simplicity rule behind the setter scan in
``tests/test_inputs.py``, applied to functions and constructors).

The scan resolves a callee by its name alone, so it reads only names
defined once under ``src/repro`` (any ``def`` or ``class``, nested ones
included).  A callee is a module function, a class (its explicit
``__init__``, ``self`` dropped) or a non-dunder method (``self``/``cls``
dropped unless it is a ``staticmethod``).  In a file of
:data:`~tests.test_callers.CALLER_ROOTS`, a call ``f(...)`` or
``x.f(...)`` passes

* each parameter it names by keyword, and each at one of its positions;
* every parameter, when it spreads ``*args`` or ``**kwargs``;

``partial(f, ...)`` is a call of ``f``, and ``Driver(run=f)`` (by
keyword or at ``run``'s position) passes ``f`` the names
:data:`repro.experiments.cli._PASSED`, because that is how
:meth:`~repro.experiments.cli.Driver.main` calls ``run``.  A callee
referenced as a value anywhere else (a callback, a dict entry, a bound
method handed on) may be called in ways the scan cannot see, so it is
"unknown" and skipped.  A reference is not a value when it is an
annotation, the object of an attribute access, a class base, an
``except`` clause or an ``isinstance``/``issubclass`` argument.

:data:`ALLOWED` is the allow-list: each entry names a parameter kept as
a parameter although no non-test call passes it, and says why.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path
from typing import NamedTuple

from repro.experiments.cli import _PASSED
from tests.test_callers import CALLER_ROOTS, ROOT, SOURCE, call_name, caller_files, definitions

#: "<path relative to src/repro>:<qualified name>(<parameter>=)" -> why no call passes it
ALLOWED: dict[str, str] = {}


class Callee(NamedTuple):
    key: str  # "<relpath>:<qualname>"
    method: bool  # reached only through an attribute, never a bare name
    positions: list[str]  # the parameters a call's positional arguments fill, in order
    defaulted: list[str]


def _signature(fn: ast.FunctionDef, bound: bool) -> tuple[list[str], list[str]]:
    a = fn.args
    positional = [p.arg for p in a.posonlyargs + a.args]
    defaulted = positional[len(positional) - len(a.defaults):] if a.defaults else []
    defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return positional[1:] if bound else positional, defaulted


def callees(source: Path) -> dict[str, Callee]:
    """Name -> callee, for every uniquely named callee under *source* with a default."""
    counts = Counter(
        node.name
        for path in source.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    )
    found: dict[str, Callee] = {}
    for d in definitions(source):
        node = d.node
        if counts[d.name] != 1:
            continue
        if isinstance(node, ast.ClassDef):
            init = [f for f in node.body
                    if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
            if not init:
                continue
            method = False
            positions, defaulted = _signature(init[0], bound=True)
        else:
            method = "." in d.key.split(":", 1)[1]
            static = any(call_name(x) == "staticmethod" for x in node.decorator_list)
            positions, defaulted = _signature(node, bound=method and not static)
        if defaulted:
            found[d.name] = Callee(d.key, method, positions, defaulted)
    return found


def _not_values(tree: ast.Module) -> set[int]:
    """ids of the reference nodes in *tree* that do not hand a callee on as a value."""
    skip: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]:
                if p is not None and p.annotation is not None:
                    skip.update(map(id, ast.walk(p.annotation)))
            if node.returns is not None:
                skip.update(map(id, ast.walk(node.returns)))
        elif isinstance(node, ast.AnnAssign):
            skip.update(map(id, ast.walk(node.annotation)))
        elif isinstance(node, ast.Attribute):
            skip.add(id(node.value))
        elif isinstance(node, ast.ClassDef):
            skip.update(id(b) for b in node.bases)
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            skip.update(map(id, ast.walk(node.type)))
        elif isinstance(node, ast.Call):
            skip.add(id(node.func))
            if call_name(node.func) in ("isinstance", "issubclass") and node.args:
                skip.update(map(id, ast.walk(node.args[-1])))
    return skip


def _passes(tree: ast.Module, found: dict[str, Callee],
            passed: dict[str, set[str]], unknown: set[str]) -> None:
    """Add what one file's calls pass to *passed*, and its value references to *unknown*."""
    skip = _not_values(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name, args, keywords = call_name(node.func), node.args, node.keywords
            if name == "partial" and args:
                skip.add(id(args[0]))
                name, args = call_name(args[0]), args[1:]
            elif name == "Driver":
                run = [k.value for k in keywords if k.arg == "run"] + args[1:2]
                if run and call_name(run[0]) in found:
                    skip.add(id(run[0]))
                    passed.setdefault(call_name(run[0]), set()).update(_PASSED)
                continue
            callee = found.get(name)
            if callee is None:
                continue
            got = passed.setdefault(name, set())
            if any(isinstance(a, ast.Starred) for a in args) or any(
                k.arg is None for k in keywords
            ):
                got.update(callee.defaulted)
            got.update(callee.positions[:len(args)])
            got.update(k.arg for k in keywords if k.arg is not None)
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in skip
                and not isinstance(node.ctx, (ast.Store, ast.Del))):
            name = call_name(node)
            if name in found and (isinstance(node, ast.Attribute) or not found[name].method):
                unknown.add(name)


def unpassed_parameters(source: Path, caller_roots: list[Path]) -> list[str]:
    """``"<relpath>:<qualname>(<param>=)"`` of every defaulted parameter no call passes."""
    found = callees(source)
    passed: dict[str, set[str]] = {}
    unknown: set[str] = set()
    for path in caller_files(caller_roots):
        _passes(ast.parse(path.read_text(), filename=str(path)), found, passed, unknown)
    return [f"{c.key}({p}=)" for name, c in found.items() if name not in unknown
            for p in c.defaulted if p not in passed.get(name, ())]


def test_every_defaulted_parameter_has_a_non_test_passer():
    found = unpassed_parameters(SOURCE, [ROOT / r for r in CALLER_ROOTS])
    unexplained = sorted(set(found) - set(ALLOWED))
    assert not unexplained, (
        "defaulted parameters that no code outside tests/ passes: fold each "
        "into a module constant (or the body) with its default's value, or "
        "add an ALLOWED entry with a reason\n  " + "\n  ".join(unexplained))
    stale = sorted(set(ALLOWED) - set(found))
    assert not stale, f"ALLOWED entries that now have a passer: {stale}"


def test_the_parameter_allow_list_is_short_and_every_entry_gives_a_reason():
    assert len(ALLOWED) <= 5
    assert all(reason.strip() for reason in ALLOWED.values())


def test_the_parameter_scan_flags_an_unpassed_parameter_and_accepts_each_passer(tmp_path):
    src = tmp_path / "src" / "pkg"
    src.mkdir(parents=True)
    (src / "__init__.py").write_text("")
    (src / "mod.py").write_text(
        "def by_keyword(x, k=1):\n    return x\n\n"
        "def by_position(x, k=1):\n    return x\n\n"
        "def by_mapping(x, *, k=1):\n    return x\n\n"
        "def by_partial(x, k=1):\n    return x\n\n"
        "def by_driver(scale=None, extra=0):\n    return scale\n\n"
        "def as_value(x, k=1):\n    return x\n\n"
        "def twice(x, k=1):\n    return x\n\n"
        "def test_only(x, k=1):\n    return x\n\n"
        "class Box:\n"
        "    def __init__(self, k=1):\n        self.k = k\n"
        "    def method(self, k=1):\n        return k\n")
    (src / "other.py").write_text("def twice(x, k=1):\n    return x\n")
    examples = tmp_path / "examples"
    examples.mkdir()
    (examples / "demo.py").write_text(
        "from functools import partial\n"
        "from pkg.mod import *\n"
        "by_keyword(0, k=2)\n"
        "by_position(0, 2)\n"
        "by_mapping(0, **{'k': 2})\n"
        "partial(by_partial, k=2)(0)\n"
        "main = Driver('demo', by_driver).main\n"
        "callbacks = [as_value]\n"
        "Box(2).method(k=3)\n")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_mod.py").write_text("from pkg.mod import test_only\ntest_only(0, k=2)\n")

    assert unpassed_parameters(src, [src, examples]) == [
        "mod.py:by_driver(extra=)", "mod.py:test_only(k=)",
    ]
    # without the example, only the name defined twice is still skipped
    assert unpassed_parameters(src, [src]) == [
        f"mod.py:{name}({param}=)" for name, param in [
            ("by_keyword", "k"), ("by_position", "k"), ("by_mapping", "k"),
            ("by_partial", "k"), ("by_driver", "scale"), ("by_driver", "extra"),
            ("as_value", "k"), ("test_only", "k"), ("Box", "k"), ("Box.method", "k"),
        ]
    ]
