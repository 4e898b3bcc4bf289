"""The ``RPR0xx`` determinism lint rules.

Every rule is an :class:`ast.NodeVisitor` producing
:class:`~repro.analysis.lint.Finding` objects.  They encode one
contract (DESIGN.md §5): a run is a pure function of its root seed, so
simulated code must draw randomness from named ``repro.sim.rng``
streams (RPR001), never read the wall clock (RPR002), and never let
``set`` iteration order feed what it computes (RPR003).  Each rule is
kept because a one-line defect only it catches is pinned in
``tests/analysis/test_lint_rules.py`` (the mutation matrix,
``docs/static-analysis.md``).
"""

from __future__ import annotations

import ast

from repro.analysis.lint import Finding

#: seeded numpy.random constructors that named streams are built from —
#: these are exactly what repro.sim.rng itself uses and are allowed
NUMPY_SEEDED_OK = frozenset(
    {
        "default_rng",
        "SeedSequence",
        "Generator",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
        "RandomState",
    }
)

#: stdlib random attributes that are explicitly-seeded constructors
STDLIB_RANDOM_OK = frozenset({"Random"})

#: wall-clock callables, fully resolved
WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.clock_gettime",
        "time.clock_gettime_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(node: ast.expr) -> str | None:
    """The last component of a call target (``c`` for ``a.b.c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


class Rule(ast.NodeVisitor):
    """Base class: alias-aware name resolution plus finding collection."""

    code: str = "RPR000"
    name: str = "rule"
    fixit: str = ""

    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: list[Finding] = []
        #: local alias -> canonical module path ("np" -> "numpy")
        self._module_aliases: dict[str, str] = {}
        #: local name -> canonical dotted origin ("randint" ->
        #: "random.randint", "datetime" -> "datetime.datetime")
        self._from_imports: dict[str, str] = {}

    # -- import tracking (shared by all rules) --------------------------
    def _record_import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._module_aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )

    def _record_import_from(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                self._from_imports[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )

    def collect_imports(self, tree: ast.AST) -> None:
        """Pre-pass: record every import in ``tree`` before rule traversal.

        Aliases must be known *before* the rule visits any call site: a
        module-level ``import random as r`` placed below a function that
        calls ``r.random()`` is perfectly legal at runtime (the function
        body executes after the import), but a single in-order traversal
        would resolve nothing at the call and silently miss the finding.
        """
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                self._record_import(node)
            elif isinstance(node, ast.ImportFrom):
                self._record_import_from(node)

    def check(self, tree: ast.AST) -> None:
        """Run the rule: import pre-pass, then the visitor traversal."""
        self.collect_imports(tree)
        self.visit(tree)

    def visit_Import(self, node: ast.Import) -> None:
        """Track plain ``import`` statements for module-alias resolution."""
        self._record_import(node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        """Track ``from ... import`` statements for name-origin resolution."""
        self._record_import_from(node)
        self.generic_visit(node)

    def resolve(self, node: ast.expr) -> str | None:
        """Canonical dotted path of a call target, aliases resolved."""
        dotted = dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in self._from_imports:
            head = self._from_imports[head]
        elif head in self._module_aliases:
            head = self._module_aliases[head]
        return f"{head}.{rest}" if rest else head

    def flag(self, node: ast.AST, message: str) -> None:
        """Record a finding at ``node``'s location, with the rule's fix-it."""
        self.findings.append(
            Finding(
                code=self.code,
                name=self.name,
                message=message,
                fixit=self.fixit,
                path=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
            )
        )


class UnseededRandomness(Rule):
    """RPR001: global/unseeded RNG state instead of named streams.

    ``random.random()`` and ``np.random.rand()`` draw from process-global
    state: results then depend on import order and on every other
    consumer, which breaks "a run is a pure function of its root seed".
    Seeded constructors (``np.random.default_rng(seed)``,
    ``SeedSequence``, bit generators, ``random.Random(seed)``) are
    allowed — they are the raw material of named streams.
    """

    code = "RPR001"
    name = "unseeded-randomness"
    fixit = (
        "draw from a named stream: kernel.rng.get('<stream-name>') "
        "(repro.sim.rng), or construct np.random.default_rng(seed) explicitly"
    )

    def visit_Call(self, node: ast.Call) -> None:
        """Flag ``random.*`` / ``np.random.*`` calls that bypass the seeded registry."""
        path = self.resolve(node.func)
        if path is not None:
            if path.startswith("random."):
                attr = path.split(".", 1)[1]
                if attr not in STDLIB_RANDOM_OK:
                    self.flag(node, f"call to global-state RNG {path}()")
            elif path.startswith("numpy.random."):
                attr = path.rsplit(".", 1)[1]
                if attr not in NUMPY_SEEDED_OK:
                    self.flag(node, f"call to global-state RNG {path}()")
        self.generic_visit(node)


class WallClock(Rule):
    """RPR002: wall-clock reads inside simulated code.

    Simulated time is ``kernel.now``; ``time.time()`` couples results to
    the host machine's clock and load, destroying reproducibility and
    making traces incomparable across runs.
    """

    code = "RPR002"
    name = "wall-clock"
    fixit = (
        "use the simulated clock (kernel.now / task.vm.kernel.now); "
        "host time is only legitimate in benchmark harness timing code"
    )

    def visit_Call(self, node: ast.Call) -> None:
        """Flag wall-clock reads (``time.time`` et al.) inside simulation code."""
        path = self.resolve(node.func)
        if path in WALL_CLOCK:
            self.flag(node, f"wall-clock read {path}()")
        self.generic_visit(node)


class IterationOrderHazard(Rule):
    """RPR003: iterating a set where order can leak into behaviour.

    Set iteration order depends on ``PYTHONHASHSEED`` for str/bytes
    elements.  If that order feeds event scheduling, message emission or
    RNG stream naming, two identically-seeded runs diverge.  Dict
    iteration is insertion-ordered and therefore fine.
    """

    code = "RPR003"
    name = "iteration-order-hazard"
    fixit = "iterate sorted(...) over the set so the order is total and stable"

    def _check_iter(self, iter_node: ast.expr) -> None:
        if isinstance(iter_node, (ast.Set, ast.SetComp)):
            self.flag(iter_node, "iteration over a set literal/comprehension")
        elif isinstance(iter_node, ast.Call):
            fname = terminal_name(iter_node.func)
            if isinstance(iter_node.func, ast.Name) and fname in ("set", "frozenset"):
                self.flag(iter_node, f"iteration over {fname}(...)")

    def visit_For(self, node: ast.For) -> None:
        """Flag iteration over unordered sets/dicts of non-deterministic origin."""
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        """Async variant of :meth:`visit_For`."""
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        """Flag unordered iteration inside comprehensions."""
        self._check_iter(node.iter)
        self.generic_visit(node)


#: every rule, in code order — the engine instantiates one per file
ALL_RULES: tuple[type[Rule], ...] = (
    UnseededRandomness,
    WallClock,
    IterationOrderHazard,
)
