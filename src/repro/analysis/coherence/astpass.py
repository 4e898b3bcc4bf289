"""Interprocedural AST discovery of DSM access sites and contracts.

The pass answers, from source alone, the three questions the
classifier needs (:mod:`repro.analysis.coherence.classify`):

1. **Where is the DSM touched?**  Every ``DsmNode.write`` /
   ``global_read`` / ``read_local`` call site, every
   ``Dsm.register(SharedLocationSpec(...))`` declaration and every
   ``dnode.on_update = handler`` binding becomes an
   :class:`~repro.analysis.coherence.model.AccessSite`.  Receivers are
   resolved by dataflow, not by name: a variable bound from
   ``dsm.node(...)`` is a DSM handle wherever it flows within the
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
   declared default and whether a ``< 0 → raise`` guard in
   ``__post_init__`` proves it non-negative.

The pass is *interprocedural within a module* in the way the
workloads need: nested process closures inherit their enclosing
functions' bindings (parameter annotations, string/int constants, DSM
handles), and call-graph context is recorded as the dotted function
path (``_deme_process.proc``).  It also performs the effect scan
behind RPR106: :func:`detect_impure_effects` reports constructs that
void a commutativity claim (global-state RNG, wall clock, I/O,
``global`` rebinding) inside reducing code.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.analysis.lint import iter_python_files
from repro.analysis.rules import (
    NUMPY_SEEDED_OK,
    STDLIB_RANDOM_OK,
    WALL_CLOCK,
    Rule,
    dotted_name,
    terminal_name,
)
from repro.analysis.coherence.model import AccessSite, AgeValue, ContractDecl

#: conventional DSM-handle parameter names accepted when no ``.node(...)``
#: binding is visible in the scope chain (helper functions taking a node)
NODE_NAME_FALLBACK = frozenset({"dnode", "dsm_node", "dsmnode"})

#: call names that open/read the outside world — incompatible with a
#: checkable commutativity claim
IO_CALLS = frozenset({"open", "print", "input"})


def module_name_for(path: str) -> str:
    """Dotted module path for a source file (``src/repro/ga/island.py``
    → ``repro.ga.island``); falls back to the stem outside ``src``."""
    norm = os.path.normpath(path)
    parts = norm.split(os.sep)
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    stem = [p for p in parts if p]
    if stem and stem[-1].endswith(".py"):
        stem[-1] = stem[-1][:-3]
    if stem and stem[-1] == "__init__":
        stem = stem[:-1]
    return ".".join(stem) if stem else os.path.splitext(os.path.basename(path))[0]


# ---------------------------------------------------------------------------
# Module-level facts (pass 1)
# ---------------------------------------------------------------------------
@dataclass
class ConfigClass:
    """Defaults and validation facts for one (dataclass-style) config."""

    name: str
    defaults: dict[str, int | None] = field(default_factory=dict)
    #: fields proven >= 0 by a ``< 0 → raise`` guard in ``__post_init__``
    nonneg: set[str] = field(default_factory=set)


def _const_int_or_none(node: ast.expr) -> tuple[bool, int | None]:
    """(resolved?, value) for an int/None constant expression."""
    if isinstance(node, ast.Constant) and (
        node.value is None or isinstance(node.value, int)
    ):
        # bool is an int subclass; a bool default is not an age
        if isinstance(node.value, bool):
            return False, None
        return True, node.value
    return False, None


def _collect_config_classes(tree: ast.Module) -> dict[str, ConfigClass]:
    """Field defaults + ``__post_init__`` non-negativity guards per class."""
    out: dict[str, ConfigClass] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        cc = ConfigClass(node.name)
        for stmt in node.body:
            if (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.value is not None
            ):
                ok, value = _const_int_or_none(stmt.value)
                if ok:
                    cc.defaults[stmt.target.id] = value
            elif isinstance(stmt, ast.FunctionDef) and stmt.name == "__post_init__":
                cc.nonneg |= _nonneg_guards(stmt)
        if cc.defaults or cc.nonneg:
            out[node.name] = cc
    return out


def _nonneg_guards(post_init: ast.FunctionDef) -> set[str]:
    """Fields ``f`` guarded by ``if self.f < 0: raise ...`` (any nesting)."""
    guarded: set[str] = set()
    for node in ast.walk(post_init):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        if not (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Lt)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value == 0
        ):
            continue
        lhs = test.left
        if (
            isinstance(lhs, ast.Attribute)
            and isinstance(lhs.value, ast.Name)
            and lhs.value.id == "self"
            and any(isinstance(n, ast.Raise) for n in ast.walk(node))
        ):
            guarded.add(lhs.attr)
    return guarded


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


def detect_impure_effects(
    fn: ast.AST, resolve: Callable[[ast.expr], str | None]
) -> list[str]:
    """Effects in ``fn``'s own statements that void a commutativity claim.

    Reported (as short strings): global-state RNG calls, wall-clock
    reads, builtin I/O (``open``/``print``/``input``) and ``global``
    statements.  Calls to unknown helpers are *not* reported — the scan
    is a detector of known-impure constructs, not a purity prover; its
    verdict is "no impure effect detected", which is what RPR106's
    "checkable claim" requires.  Nested function definitions are scanned
    too: a reducer's helper closures are part of the reducing operation.
    ``resolve`` maps a call target to its canonical dotted path
    (:meth:`repro.analysis.rules.Rule.resolve`, the lint's import table).
    """
    effects: list[str] = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Global):
            effects.append(f"line {node.lineno}: global statement")
        elif isinstance(node, ast.Call):
            path = resolve(node.func)
            if path is not None:
                if path.startswith("random.") and path.split(".", 1)[1] not in STDLIB_RANDOM_OK:
                    effects.append(f"line {node.lineno}: global-state RNG {path}()")
                elif (
                    path.startswith("numpy.random.")
                    and path.rsplit(".", 1)[1] not in NUMPY_SEEDED_OK
                ):
                    effects.append(f"line {node.lineno}: global-state RNG {path}()")
                elif path in WALL_CLOCK:
                    effects.append(f"line {node.lineno}: wall-clock read {path}()")
            if isinstance(node.func, ast.Name) and node.func.id in IO_CALLS:
                effects.append(f"line {node.lineno}: I/O call {node.func.id}()")
    return effects


# ---------------------------------------------------------------------------
# Function-scope dataflow (pass 2)
# ---------------------------------------------------------------------------
@dataclass
class _Scope:
    """One function's environment, chained to its enclosing scopes."""

    qualname: str
    parent: "_Scope | None" = None
    str_env: dict[str, str] = field(default_factory=dict)  # var -> pattern
    int_env: dict[str, int] = field(default_factory=dict)  # var -> const
    node_vars: set[str] = field(default_factory=set)  # DSM handles
    param_types: dict[str, str] = field(default_factory=dict)  # var -> class
    barrier: bool = False

    def lookup_str(self, name: str) -> str | None:
        s: _Scope | None = self
        while s is not None:
            if name in s.str_env:
                return s.str_env[name]
            s = s.parent
        return None

    def lookup_int(self, name: str) -> int | None:
        s: _Scope | None = self
        while s is not None:
            if name in s.int_env:
                return s.int_env[name]
            s = s.parent
        return None

    def is_node_var(self, name: str) -> bool:
        s: _Scope | None = self
        while s is not None:
            if name in s.node_vars:
                return True
            s = s.parent
        return name in NODE_NAME_FALLBACK

    def lookup_type(self, name: str) -> str | None:
        s: _Scope | None = self
        while s is not None:
            if name in s.param_types:
                return s.param_types[name]
            s = s.parent
        return None


@dataclass
class ModuleScan:
    """Everything the pass extracted from one source file."""

    path: str
    module: str
    sites: list[AccessSite] = field(default_factory=list)
    contracts: list[ContractDecl] = field(default_factory=list)
    #: qualified function name -> detected impure effects (RPR106 scan);
    #: only functions that contain DSM reads or are on_update handlers
    reducer_effects: dict[str, list[str]] = field(default_factory=dict)


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
        parts: list[str] = []
        for value in expr.values:
            if isinstance(value, ast.Constant):
                parts.append(str(value.value))
            else:
                parts.append("*")
        return "".join(parts), "f-string, interpolations -> *"
    if isinstance(expr, ast.Name):
        bound = scope.lookup_str(expr.id)
        if bound is not None:
            return bound, f"propagated from local {expr.id!r}"
        return "<unresolved>", f"name {expr.id!r} has no visible string binding"
    dotted = dotted_name(expr)
    return "<unresolved>", f"unsupported location expression {dotted or type(expr).__name__}"


def _age_of(
    expr: ast.expr, scope: _Scope, configs: dict[str, ConfigClass]
) -> AgeValue:
    """Resolve a ``global_read`` age argument to an :class:`AgeValue`."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, int):
        return AgeValue(kind="const", source=repr(expr.value), value=expr.value)
    if (
        isinstance(expr, ast.UnaryOp)
        and isinstance(expr.op, ast.USub)
        and isinstance(expr.operand, ast.Constant)
        and isinstance(expr.operand.value, int)
    ):
        v = -expr.operand.value
        return AgeValue(kind="const", source=repr(v), value=v)
    if isinstance(expr, ast.Name):
        bound = scope.lookup_int(expr.id)
        if bound is not None:
            return AgeValue(kind="const", source=expr.id, value=bound)
        return AgeValue(kind="unknown", source=expr.id)
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        base, attr = expr.value.id, expr.attr
        cls_name = scope.lookup_type(base)
        if cls_name is not None and cls_name in configs:
            cc = configs[cls_name]
            return AgeValue(
                kind="symbolic",
                source=f"{base}.{attr}",
                value=cc.defaults.get(attr),
                nonneg=attr in cc.nonneg,
            )
        return AgeValue(kind="symbolic", source=f"{base}.{attr}")
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


class _FunctionWalker:
    """Walks one module's function tree, collecting access sites."""

    def __init__(self, scan: ModuleScan, configs: dict[str, ConfigClass],
                 resolve: Callable[[ast.expr], str | None]) -> None:
        self.scan = scan
        self.configs = configs
        self.resolve = resolve
        #: handler name -> FunctionDef for on_update purity scans
        self._fn_defs: dict[str, ast.FunctionDef] = {}

    # -- entry ----------------------------------------------------------
    def walk_module(self, tree: ast.Module) -> None:
        root = _Scope(qualname="<module>")
        self._walk_body(tree.body, root)

    # -- helpers --------------------------------------------------------
    def _own_statements(self, body: list[ast.stmt], scope: _Scope) -> None:
        """Two sub-passes over one function body: bindings first (a
        barrier or ``x = dsm.node(...)`` below an access site still
        counts — source order within a function is not execution order
        for loop bodies), then the access-site scan."""
        for stmt in body:
            self._collect_bindings(stmt, scope)
        for stmt in body:
            self._scan_statement(stmt, scope)

    def _walk_body(self, body: list[ast.stmt], scope: _Scope) -> None:
        # register own function defs before the statement scan: a
        # ``dnode.on_update = handler`` binding must find its handler's
        # def even though the def follows no particular source order
        own_defs = self._iter_own_funcdefs(body)
        for fn in own_defs:
            self._fn_defs[fn.name] = fn
        self._own_statements(body, scope)
        # recurse into nested defs with a child scope
        for fn in own_defs:
            child = _Scope(
                qualname=(
                    fn.name
                    if scope.qualname == "<module>"
                    else f"{scope.qualname}.{fn.name}"
                ),
                parent=scope,
            )
            args = fn.args
            for a in (
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                *((args.vararg,) if args.vararg else ()),
                *((args.kwarg,) if args.kwarg else ()),
            ):
                ann = _annotation_name(a.annotation)
                if ann is not None:
                    child.param_types[a.arg] = ann
            self._walk_body(fn.body, child)

    def _iter_own_funcdefs(self, body: list[ast.stmt]) -> list[ast.FunctionDef]:
        """Function defs belonging to these statements (not nested defs)."""
        out: list[ast.FunctionDef] = []
        stack: list[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, ast.FunctionDef):
                out.append(node)
                continue  # its nested defs are found when it is walked
            if isinstance(node, (ast.AsyncFunctionDef, ast.Lambda)):
                continue
            # ClassDef bodies are descended into so methods are walked too
            stack.extend(ast.iter_child_nodes(node))
        out.sort(key=lambda f: f.lineno)
        return out

    def _iter_own_nodes(self, stmt: ast.stmt) -> list[ast.AST]:
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

    # -- bindings sub-pass ---------------------------------------------
    def _collect_bindings(self, stmt: ast.stmt, scope: _Scope) -> None:
        for node in self._iter_own_nodes(stmt):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    value = node.value
                    if isinstance(value, ast.Constant) and isinstance(value.value, str):
                        scope.str_env[target.id] = value.value
                    elif isinstance(value, ast.JoinedStr):
                        scope.str_env[target.id] = _pattern_of(value, scope)[0]
                    elif isinstance(value, ast.Constant) and isinstance(value.value, int) \
                            and not isinstance(value.value, bool):
                        scope.int_env[target.id] = value.value
                    elif (
                        isinstance(value, ast.Call)
                        and terminal_name(value.func) == "node"
                    ):
                        scope.node_vars.add(target.id)
            elif isinstance(node, ast.Call) and terminal_name(node.func) == "barrier":
                scope.barrier = True

    # -- access-site sub-pass ------------------------------------------
    def _scan_statement(self, stmt: ast.stmt, scope: _Scope) -> None:
        for node in self._iter_own_nodes(stmt):
            if isinstance(node, ast.Call):
                self._scan_call(node, scope)
            elif isinstance(node, ast.Assign):
                self._scan_on_update(node, scope)

    def _site(
        self, kind: str, pattern: str, node: ast.AST, scope: _Scope,
        age: AgeValue | None = None, target: str | None = None, note: str = "",
    ) -> None:
        self.scan.sites.append(
            AccessSite(
                kind=kind,
                pattern=pattern,
                path=self.scan.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                module=self.scan.module,
                function=scope.qualname,
                age=age,
                barrier_in_scope=scope.barrier,
                target=target,
                note=note,
            )
        )

    def _record_reducer(self, scope: _Scope, fn_name: str | None = None) -> None:
        """Run the effect scan for the reducing code around an access."""
        if fn_name is not None:
            fn = self._fn_defs.get(fn_name)
            if fn is not None and fn_name not in self.scan.reducer_effects:
                self.scan.reducer_effects[fn_name] = detect_impure_effects(
                    fn, self.resolve
                )
            return
        qual = scope.qualname
        if qual in self.scan.reducer_effects or qual == "<module>":
            return
        tail = qual.rsplit(".", 1)[-1]
        fn = self._fn_defs.get(tail)
        if fn is not None:
            self.scan.reducer_effects[qual] = detect_impure_effects(
                fn, self.resolve
            )

    def _scan_call(self, node: ast.Call, scope: _Scope) -> None:
        name = terminal_name(node.func)
        if name in ("global_read", "read_local"):
            if not node.args:
                return
            pattern, note = _pattern_of(node.args[0], scope)
            age: AgeValue | None = None
            if name == "global_read":
                age_expr: ast.expr | None = node.args[2] if len(node.args) >= 3 else None
                for kw in node.keywords:
                    if kw.arg == "age":
                        age_expr = kw.value
                if age_expr is not None:
                    age = _age_of(age_expr, scope, self.configs)
                else:
                    age = AgeValue(kind="unknown", source="<missing>")
            self._site(name, pattern, node, scope, age=age, note=note)
            self._record_reducer(scope)
        elif name == "write":
            receiver = node.func.value if isinstance(node.func, ast.Attribute) else None
            if not (
                isinstance(receiver, ast.Name) and scope.is_node_var(receiver.id)
            ):
                return  # file handles etc. also spell .write()
            if not node.args:
                return
            pattern, note = _pattern_of(node.args[0], scope)
            self._site("write", pattern, node, scope, note=note)
        elif name == "register":
            # Dsm.register(SharedLocationSpec(<locn>, ...))
            if not node.args:
                return
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
            if locn_expr is None:
                return
            pattern, note = _pattern_of(locn_expr, scope)
            self._site("register", pattern, node, scope, note=note)

    def _scan_on_update(self, node: ast.Assign, scope: _Scope) -> None:
        """``dnode.on_update = handler`` binds a reducing operation."""
        for target in node.targets:
            if not (
                isinstance(target, ast.Attribute)
                and target.attr == "on_update"
                and isinstance(target.value, ast.Name)
                and scope.is_node_var(target.value.id)
            ):
                continue
            handler = (
                node.value.id if isinstance(node.value, ast.Name) else None
            )
            self._site(
                "on_update", "*", node, scope, target=handler,
                note="update handler binds to every location the node reads",
            )
            if handler is not None:
                self._record_reducer(scope, fn_name=handler)


def scan_source(source: str, path: str) -> ModuleScan:
    """Scan one module's source text (raises ``SyntaxError`` unparsed,
    ``ValueError`` on an invalid ``dsm_contract``)."""
    tree = ast.parse(source, filename=path)
    scan = ModuleScan(path=path, module=module_name_for(path))
    configs = _collect_config_classes(tree)
    scan.contracts = _collect_contracts(tree, path)
    names = Rule(path)
    names.collect_imports(tree)
    _FunctionWalker(scan, configs, names.resolve).walk_module(tree)
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
