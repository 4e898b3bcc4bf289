"""Every name defined in ``src/repro`` has a caller outside ``tests/``.

The scan walks ``src/repro`` with :mod:`ast` and collects each top-level
function or class and each non-dunder method.  ``visit_*`` methods are
exempt: :class:`ast.NodeVisitor` reaches them by string concatenation.
A definition counts as called when some reference to its name sits
outside the definition itself, in ``src/repro`` or in one of the other
trees that run the package (:data:`CALLER_ROOTS`).  A reference is a
``Name``, an ``Attribute``, an ``import`` alias or an identifier-shaped
string constant.  Package ``__init__`` re-exports and ``__all__``
entries are not references: they publish a name, they do not use it.
Tests are not callers either, so a name reached only from ``tests/``
belongs under ``tests/`` as a helper, or nowhere.

:data:`ALLOWED` is the allow-list: each entry names a definition that
is reached in a way the scan cannot see, and says how.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "repro"
CALLER_ROOTS = ("src/repro", "perfbench", "benchmarks", "examples", "tools")

#: "<path relative to src/repro>:<qualified name>" -> why it has no visible caller
ALLOWED = {
    "analysis/fixtures.py:sanitize_dsm": (
        "a pytest fixture: pytest injects it by parameter name, and the "
        "conftest that registers it is a test file"
    ),
}

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class Definition(NamedTuple):
    key: str  # "<relpath>:<qualname>"
    name: str
    path: Path
    first: int
    last: int


def definitions(source: Path) -> list[Definition]:
    """Top-level functions/classes and non-dunder methods under *source*."""
    found: list[Definition] = []

    def add(path: Path, node, qualname: str) -> None:
        rel = path.relative_to(source).as_posix()
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        found.append(Definition(f"{rel}:{qualname}", node.name, path,
                                first, node.end_lineno or node.lineno))

    def methods(path: Path, cls: ast.ClassDef, prefix: str) -> None:
        for node in cls.body:
            if isinstance(node, ast.ClassDef):
                methods(path, node, f"{prefix}.{node.name}")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                dunder = name.startswith("__") and name.endswith("__")
                if not dunder and not name.startswith("visit_"):
                    add(path, node, f"{prefix}.{name}")

    for path in sorted(source.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                add(path, node, node.name)
            if isinstance(node, ast.ClassDef):
                methods(path, node, node.name)
    return found


def _all_strings(tree: ast.Module) -> set[int]:
    """ids of the string constants inside ``__all__ = [...]`` assignments."""
    skip: set[int] = set()
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            assert node.value is not None
            skip.update(id(c) for c in ast.walk(node.value))
    return skip


def references(path: Path) -> list[tuple[str, int]]:
    """``(name, line)`` of every reference in one file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    package_init = path.name == "__init__.py"
    skip = _all_strings(tree)
    refs: list[tuple[str, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if package_init:
                continue  # a re-export publishes a name; it does not use it
            for alias in node.names:
                refs.append((alias.name.rsplit(".", 1)[-1], node.lineno))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip and _IDENT.match(node.value)):
            refs.append((node.value, node.lineno))
    return refs


def uncalled(source: Path, caller_roots: list[Path]) -> list[str]:
    """Keys of the definitions under *source* that nothing references.

    *caller_roots* are the trees searched for references; a reference
    inside a definition's own line span does not count for it.
    """
    refs: dict[str, list[tuple[Path, int]]] = {}
    files = sorted({p for root in caller_roots if root.exists() for p in root.rglob("*.py")})
    for path in files:
        for name, line in references(path):
            refs.setdefault(name, []).append((path, line))
    missing = []
    for d in definitions(source):
        if not any(path != d.path or not d.first <= line <= d.last
                   for path, line in refs.get(d.name, ())):
            missing.append(d.key)
    return missing


def test_every_name_in_src_repro_has_a_non_test_caller():
    found = uncalled(SOURCE, [ROOT / r for r in CALLER_ROOTS])
    unexplained = sorted(set(found) - set(ALLOWED))
    assert not unexplained, (
        "defined in src/repro but referenced only from tests/ (or nowhere): "
        "delete it, move it under tests/, or add an ALLOWED entry with a reason\n  "
        + "\n  ".join(unexplained))
    stale = sorted(set(ALLOWED) - set(found))
    assert not stale, f"ALLOWED entries that now have a caller: {stale}"


def test_the_allow_list_is_short_and_every_entry_gives_a_reason():
    assert len(ALLOWED) <= 3
    assert all(reason.strip() for reason in ALLOWED.values())


def test_the_scan_flags_an_uncalled_definition_and_accepts_an_example_caller(tmp_path):
    src = tmp_path / "src" / "pkg"
    src.mkdir(parents=True)
    (src / "__init__.py").write_text(
        "from pkg.mod import used, lonely, Box\n__all__ = ['used', 'lonely', 'Box']\n")
    (src / "mod.py").write_text(
        "def used():\n    return 1\n\n"
        "def lonely():\n    return lonely()\n\n"
        "class Box:\n"
        "    def __init__(self):\n        self.x = used()\n"
        "    def shown(self):\n        return 2\n"
        "    def hidden(self):\n        return self.hidden()\n"
        "    def visit_Name(self, node):\n        return node\n")
    examples = tmp_path / "examples"
    examples.mkdir()
    (examples / "demo.py").write_text("from pkg.mod import Box\nprint(Box().shown())\n")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_mod.py").write_text("from pkg.mod import lonely\nlonely()\n")

    roots = [src, examples]
    assert uncalled(src, roots) == ["mod.py:lonely", "mod.py:Box.hidden"]
    # the example is the only caller of Box.shown: without it, the scan flags it
    assert "mod.py:Box.shown" in uncalled(src, [src])
