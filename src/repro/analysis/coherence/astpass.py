"""AST discovery of DSM access sites and contracts.

The pass answers, from source alone, the three questions the
classifier needs (:mod:`repro.analysis.coherence.classify`):

1. **Where is the DSM touched?**  Every ``DsmNode.write`` /
   ``global_read`` / ``read_local`` call site and every
   ``Dsm.register(SharedLocationSpec(...))`` declaration becomes an
   :class:`~repro.analysis.coherence.model.AccessSite`.  ``write``
   receivers are resolved by dataflow, not by name: a variable bound
   from ``dsm.node(...)`` is a DSM handle wherever it flows within the
   function scope chain (``dnode`` is accepted as a conventional
   fallback so helper functions taking a node parameter still scan).
2. **Which location does a site touch?**  Location expressions are
   normalised to fnmatch *patterns*: string constants stay themselves,
   f-strings map each interpolation to ``*`` (``f"migrants.{p}"`` →
   ``migrants.*``), and plain names are resolved through per-scope
   constant propagation (``locn = f"migrants.{p}"`` … ``read_local(locn)``).
3. **What age bound reaches a read?**  The third ``global_read``
   argument is resolved to an :class:`~repro.analysis.coherence.model.
   AgeValue` by constant propagation: literals and locally-bound int
   constants become ``const``; ``cfg.age``-style attributes are chased
   through parameter annotations to the config dataclass declared in
   the same module, yielding a ``symbolic`` value with the field's
   declared default.

Nested process closures inherit their enclosing functions' bindings
(parameter annotations, string/int constants, DSM handles), which is
how the workloads' per-process generators are written.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.coherence.model import AccessSite, AgeValue, ContractDecl
from repro.analysis.lint import iter_python_files
from repro.analysis.rules import dotted_name, terminal_name

#: conventional DSM-handle parameter names accepted when no ``.node(...)``
#: binding is visible in the scope chain (helper functions taking a node)
NODE_NAME_FALLBACK = frozenset({"dnode", "dsm_node", "dsmnode"})


def _collect_config_defaults(tree: ast.Module) -> dict[str, dict[str, int | None]]:
    """Per class, the int/None defaults of its annotated fields."""
    out: dict[str, dict[str, int | None]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        defaults: dict[str, int | None] = {}
        for stmt in node.body:
            if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
                continue
            value = stmt.value
            if isinstance(value, ast.Call):  # a declared field: at_least(0, default=10)
                value = next((k.value for k in value.keywords if k.arg == "default"), None)
            if isinstance(value, ast.Constant) and type(value.value) in (int, type(None)):
                defaults[stmt.target.id] = value.value
        if defaults:
            out[node.name] = defaults
    return out


def _literal(node: ast.expr) -> Any:
    """The value of a literal expression (``-3`` included)."""
    try:
        return ast.literal_eval(node)
    except ValueError:
        raise ValueError(
            f"{ast.unparse(node)} is not a literal (contracts are checked "
            "as written)"
        ) from None


def _collect_contracts(tree: ast.Module, path: str) -> list[ContractDecl]:
    """Every ``dsm_contract(...)`` declaration in the module.

    Each is validated by constructing its :class:`ContractDecl` (a
    :class:`~repro.core.contract.StalenessContract`); a non-literal term
    or terms no location could honour raise ``ValueError`` naming
    ``path:line``.
    """
    out: list[ContractDecl] = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and terminal_name(node.func) == "dsm_contract"
        ):
            continue
        try:
            args = [_literal(a) for a in node.args]
            terms = {kw.arg or "**": _literal(kw.value) for kw in node.keywords}
            out.append(ContractDecl(*args, **terms, path=path, line=node.lineno))
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"{path}:{node.lineno}: invalid dsm_contract: {exc}"
            ) from None
    return out


@dataclass
class _Scope:
    """One function's environment, chained to its enclosing scopes."""

    parent: "_Scope | None" = None
    str_env: dict[str, str] = field(default_factory=dict)  # var -> pattern
    int_env: dict[str, int] = field(default_factory=dict)  # var -> const
    node_vars: set[str] = field(default_factory=set)  # DSM handles
    param_types: dict[str, str] = field(default_factory=dict)  # var -> class
    barrier: bool = False

    def lookup(self, env: str, name: str) -> Any:
        """``name`` in the nearest scope whose ``env`` binds it, else None."""
        s: _Scope | None = self
        while s is not None:
            bound = getattr(s, env)
            if name in bound:
                return bound[name]
            s = s.parent
        return None

    def is_node_var(self, name: str) -> bool:
        s: _Scope | None = self
        while s is not None:
            if name in s.node_vars:
                return True
            s = s.parent
        return name in NODE_NAME_FALLBACK


@dataclass
class ModuleScan:
    """Everything the pass extracted from one source file."""

    path: str
    sites: list[AccessSite] = field(default_factory=list)
    contracts: list[ContractDecl] = field(default_factory=list)


@dataclass
class ScanResult:
    """The merged scan over a set of paths."""

    modules: list[ModuleScan] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def sites(self) -> list[AccessSite]:
        """Every discovered access site, in path order."""
        return [s for m in self.modules for s in m.sites]

    @property
    def contracts(self) -> list[ContractDecl]:
        """Every discovered contract declaration, in path order."""
        return [c for m in self.modules for c in m.contracts]


def _pattern_of(expr: ast.expr, scope: _Scope) -> tuple[str, str]:
    """Normalise a location expression to an fnmatch pattern.

    Returns ``(pattern, note)``; unresolvable expressions yield an
    ``<unresolved>`` pattern that the classifier surfaces as a finding
    rather than silently dropping the site.
    """
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value, "string constant"
    if isinstance(expr, ast.JoinedStr):
        parts = [
            str(v.value) if isinstance(v, ast.Constant) else "*"
            for v in expr.values
        ]
        return "".join(parts), "f-string, interpolations -> *"
    if isinstance(expr, ast.Name):
        bound = scope.lookup("str_env", expr.id)
        if bound is not None:
            return bound, f"propagated from local {expr.id!r}"
        return "<unresolved>", f"name {expr.id!r} has no visible string binding"
    dotted = dotted_name(expr)
    return "<unresolved>", f"unsupported location expression {dotted or type(expr).__name__}"


def _age_of(
    expr: ast.expr, scope: _Scope, configs: dict[str, dict[str, int | None]]
) -> AgeValue:
    """Resolve a ``global_read`` age argument to an :class:`AgeValue`."""
    try:
        value = ast.literal_eval(expr)  # a literal, ``-3`` included
    except (TypeError, ValueError):
        value = None
    if type(value) is int:
        return AgeValue(kind="const", source=repr(value), value=value)
    if isinstance(expr, ast.Name):
        bound = scope.lookup("int_env", expr.id)
        if bound is not None:
            return AgeValue(kind="const", source=expr.id, value=bound)
        return AgeValue(kind="unknown", source=expr.id)
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        base, attr = expr.value.id, expr.attr
        defaults = configs.get(scope.lookup("param_types", base) or "", {})
        return AgeValue(kind="symbolic", source=f"{base}.{attr}", value=defaults.get(attr))
    dotted = dotted_name(expr)
    return AgeValue(kind="unknown", source=dotted or type(expr).__name__)


def _annotation_name(ann: ast.expr | None) -> str | None:
    """The plain class name of a parameter annotation, if simple."""
    if isinstance(ann, ast.Name):
        return ann.id
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        return ann.value
    if isinstance(ann, ast.Attribute):
        return ann.attr
    return None


def _own_funcdefs(body: list[ast.stmt]) -> list[ast.FunctionDef]:
    """Function defs belonging to these statements (not nested defs);
    class bodies are descended into so methods are walked too."""
    out: list[ast.FunctionDef] = []
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef):
            out.append(node)
        elif not isinstance(node, (ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))
    out.sort(key=lambda f: f.lineno)
    return out


def _own_nodes(stmt: ast.stmt) -> list[ast.AST]:
    """All AST nodes of ``stmt`` excluding nested function bodies."""
    out: list[ast.AST] = []
    stack: list[ast.AST] = [stmt]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        out.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return out


class _FunctionWalker:
    """Walks one module's function tree, collecting access sites."""

    def __init__(self, scan: ModuleScan, configs: dict[str, dict[str, int | None]]) -> None:
        self.scan = scan
        self.configs = configs

    def walk_body(self, body: list[ast.stmt], scope: _Scope) -> None:
        """Scan ``body`` in ``scope``, then each nested def in a child scope.

        Bindings are collected over the whole body before the access
        scan: a barrier or ``x = dsm.node(...)`` below an access site
        still counts — source order within a function is not execution
        order for loop bodies.
        """
        for stmt in body:
            self._collect_bindings(stmt, scope)
        for stmt in body:
            for node in _own_nodes(stmt):
                if isinstance(node, ast.Call):
                    self._scan_call(node, scope)
        for fn in _own_funcdefs(body):
            child = _Scope(parent=scope)
            args = fn.args
            for a in (
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                *((args.vararg,) if args.vararg else ()),
                *((args.kwarg,) if args.kwarg else ()),
            ):
                ann = _annotation_name(a.annotation)
                if ann is not None:
                    child.param_types[a.arg] = ann
            self.walk_body(fn.body, child)

    def _collect_bindings(self, stmt: ast.stmt, scope: _Scope) -> None:
        for node in _own_nodes(stmt):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                if not isinstance(target, ast.Name):
                    continue
                if isinstance(value, ast.JoinedStr) or (
                    isinstance(value, ast.Constant) and isinstance(value.value, str)
                ):
                    scope.str_env[target.id] = _pattern_of(value, scope)[0]
                elif isinstance(value, ast.Constant) and type(value.value) is int:
                    scope.int_env[target.id] = value.value
                elif isinstance(value, ast.Call) and terminal_name(value.func) == "node":
                    scope.node_vars.add(target.id)
            elif isinstance(node, ast.Call) and terminal_name(node.func) == "barrier":
                scope.barrier = True

    def _site(
        self, kind: str, locn: ast.expr, node: ast.AST, scope: _Scope,
        age: AgeValue | None = None,
    ) -> None:
        pattern, note = _pattern_of(locn, scope)
        self.scan.sites.append(
            AccessSite(
                kind=kind,
                pattern=pattern,
                path=self.scan.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                age=age,
                barrier_in_scope=scope.barrier,
                note=note,
            )
        )

    def _scan_call(self, node: ast.Call, scope: _Scope) -> None:
        name = terminal_name(node.func)
        if not node.args:
            return
        if name == "read_local":
            self._site(name, node.args[0], node, scope)
        elif name == "global_read":
            age_expr: ast.expr | None = node.args[2] if len(node.args) >= 3 else None
            for kw in node.keywords:
                if kw.arg == "age":
                    age_expr = kw.value
            age = (
                _age_of(age_expr, scope, self.configs)
                if age_expr is not None
                else AgeValue(kind="unknown", source="<missing>")
            )
            self._site(name, node.args[0], node, scope, age=age)
        elif name == "write":
            receiver = node.func.value if isinstance(node.func, ast.Attribute) else None
            # file handles etc. also spell .write()
            if isinstance(receiver, ast.Name) and scope.is_node_var(receiver.id):
                self._site("write", node.args[0], node, scope)
        elif name == "register":
            # Dsm.register(SharedLocationSpec(<locn>, ...))
            spec = node.args[0]
            if not (
                isinstance(spec, ast.Call)
                and terminal_name(spec.func) == "SharedLocationSpec"
            ):
                return
            locn_expr: ast.expr | None = spec.args[0] if spec.args else None
            for kw in spec.keywords:
                if kw.arg == "name":
                    locn_expr = kw.value
            if locn_expr is not None:
                self._site("register", locn_expr, node, scope)


def scan_source(source: str, path: str) -> ModuleScan:
    """Scan one module's source text (raises ``SyntaxError`` unparsed,
    ``ValueError`` on an invalid ``dsm_contract``)."""
    tree = ast.parse(source, filename=path)
    scan = ModuleScan(path=path, contracts=_collect_contracts(tree, path))
    _FunctionWalker(scan, _collect_config_defaults(tree)).walk_body(tree.body, _Scope())
    return scan


def scan_paths(paths: list[str]) -> ScanResult:
    """Scan every Python file under ``paths`` (files or directories).

    Unreadable or unparsable files, invalid contracts and two
    declarations of one pattern on different terms are errors: a module
    that imports neither declaration still cannot disagree with the other.
    """
    result = ScanResult()
    try:
        files = list(iter_python_files(paths))
    except FileNotFoundError as exc:
        result.errors.append(str(exc))
        return result
    for fpath in files:
        try:
            with open(fpath, encoding="utf-8") as fh:
                source = fh.read()
            result.modules.append(scan_source(source, fpath))
        except (OSError, SyntaxError, UnicodeDecodeError) as exc:
            result.errors.append(f"{fpath}: {exc}")
        except ValueError as exc:  # an invalid contract, already path:line
            result.errors.append(str(exc))
    first: dict[str, ContractDecl] = {}
    for c in result.contracts:
        seen = first.setdefault(c.pattern, c)
        if c != seen:
            result.errors.append(
                f"{c.path}:{c.line}: dsm_contract for {c.pattern!r} conflicts "
                f"with the declaration at {seen.path}:{seen.line} "
                f"({c} vs {seen})"
            )
    return result
