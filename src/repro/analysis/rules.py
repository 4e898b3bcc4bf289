"""The ``RPR0xx`` determinism and coherence-contract lint rules.

Every rule is an :class:`ast.NodeVisitor` producing
:class:`~repro.analysis.lint.Finding` objects.  The rules encode the
repository's two contracts:

* **Determinism** (DESIGN.md §5): a run is a pure function of its root
  seed, so simulated code must draw randomness from named
  ``repro.sim.rng`` streams (RPR001), never read the wall clock
  (RPR002), and never let ``set`` iteration order feed event ordering
  or stream naming (RPR003).  Simulated processes may yield only the
  kernel's request objects (RPR004).
* **Bounded staleness** (§2): every shared-location mutation must go
  through ``DsmNode.write`` so ages, its ``dsm.write`` trace record and
  update propagation stay consistent (RPR005), and a ``global_read`` age bound
  is a staleness *tolerance* — statically negative values are always a
  bug (RPR006).
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

#: the only objects a simulated process may ``yield`` to the kernel
#: (repro.sim.process, re-exported by repro.sim)
LEGAL_SYSCALLS = frozenset({"Compute", "Yield", "WaitSignal", "WaitAny", "Join"})

#: classes allowed to touch AgeBuffer/VersionedValue internals directly
DSM_IMPLEMENTATION_CLASSES = frozenset({"Dsm", "DsmNode", "AgeBuffer"})


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

    def flag(self, node: ast.AST, message: str, fixit: str | None = None) -> None:
        """Record a finding at ``node``'s location."""
        self.findings.append(
            Finding(
                code=self.code,
                name=self.name,
                message=message,
                fixit=fixit if fixit is not None else self.fixit,
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


class IllegalSyscallYield(Rule):
    """RPR004: a simulated process yielding a non-syscall object.

    The kernel dispatches on the yielded request type and raises
    ``TypeError`` at simulation time for anything else — this rule moves
    that failure to lint time.  A function counts as a simulated process
    when at least one of its yields is a legal syscall constructor
    (Compute/Yield/WaitSignal/WaitAny/Join); within such a function,
    yielding any *other* constructor call is flagged.  ``yield from``
    delegation to service generators is always fine.
    """

    code = "RPR004"
    name = "illegal-syscall-yield"
    fixit = (
        "yield only repro.sim request objects (Compute, Yield, WaitSignal, "
        "WaitAny, Join); use 'yield from' to delegate to service generators"
    )

    def _own_yields(self, fn: ast.AST) -> list[ast.Yield]:
        """Yield expressions belonging to ``fn`` itself, not nested defs."""
        out: list[ast.Yield] = []
        stack = list(ast.iter_child_nodes(fn))
        while stack:
            node = stack.pop()
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            if isinstance(node, ast.Yield):
                out.append(node)
            stack.extend(ast.iter_child_nodes(node))
        return out

    def _check_function(self, node: ast.AST) -> None:
        yields = self._own_yields(node)
        yielded_calls = [
            y for y in yields if y.value is not None and isinstance(y.value, ast.Call)
        ]
        is_sim_process = any(
            terminal_name(y.value.func) in LEGAL_SYSCALLS for y in yielded_calls
        )
        if not is_sim_process:
            return
        for y in yielded_calls:
            fname = terminal_name(y.value.func)
            if fname not in LEGAL_SYSCALLS:
                self.flag(
                    y,
                    f"simulated process yields {fname or '<expr>'}(...), "
                    "not a kernel request object",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        """Scan a function body for yields of non-simulation syscall objects."""
        self._check_function(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        """Async variant of :meth:`visit_FunctionDef`."""
        self._check_function(node)
        self.generic_visit(node)


class DsmBypassMutation(Rule):
    """RPR005: mutating DSM state behind ``DsmNode.write``'s back.

    Direct ``agebuf.update(...)`` calls or stores into ``local_store`` /
    ``_copies`` skip the writer check, the age-monotonicity check, the
    ``dsm.write`` trace record and update propagation — readers then see
    values no write ever produced.  Only the DSM implementation classes
    themselves (Dsm, DsmNode, AgeBuffer) may touch these.
    """

    code = "RPR005"
    name = "dsm-bypass-mutation"
    fixit = (
        "go through 'yield from dsm.node(tid).write(locn, value, iter_no)' "
        "so ages, its trace record and propagation stay consistent"
    )

    def __init__(self, path: str) -> None:
        super().__init__(path)
        self._class_stack: list[str] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        """Track class context so DSM-field writes can be attributed."""
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _inside_dsm_impl(self) -> bool:
        return any(c in DSM_IMPLEMENTATION_CLASSES for c in self._class_stack)

    def visit_Call(self, node: ast.Call) -> None:
        """Flag direct mutation calls on DSM-managed containers."""
        if not self._inside_dsm_impl() and isinstance(node.func, ast.Attribute):
            if node.func.attr == "update":
                receiver = node.func.value
                rname = terminal_name(receiver)
                if rname in ("agebuf", "age_buffer", "agebuffer"):
                    self.flag(
                        node,
                        "direct AgeBuffer.update() bypasses DsmNode.write/drain",
                    )
        self.generic_visit(node)

    def _check_store_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Subscript) and isinstance(
            target.value, ast.Attribute
        ):
            attr = target.value.attr
            if attr in ("local_store", "_copies"):
                self.flag(
                    target,
                    f"direct store into {attr}[...] bypasses DsmNode.write",
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        """Flag assignments that rebind DSM-managed locations outside ``dsm.write``."""
        if not self._inside_dsm_impl():
            for target in node.targets:
                self._check_store_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        """Flag augmented assignments on DSM-managed locations."""
        if not self._inside_dsm_impl():
            self._check_store_target(node.target)
        self.generic_visit(node)


class NegativeGlobalReadAge(Rule):
    """RPR006: ``global_read`` with a statically-negative age bound.

    ``satisfies_age_bound`` raises ``ValueError`` for ``age < 0`` at
    simulation time; a negative constant in source is always dead code
    or a sign error, so catch it before any simulation runs.
    """

    code = "RPR006"
    name = "negative-global-read-age"
    fixit = "the age bound is a staleness tolerance and must be >= 0 (0 = strict)"

    @staticmethod
    def _negative_constant(node: ast.expr) -> bool:
        if (
            isinstance(node, ast.UnaryOp)
            and isinstance(node.op, ast.USub)
            and isinstance(node.operand, ast.Constant)
            and isinstance(node.operand.value, (int, float))
        ):
            return node.operand.value > 0
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return node.value < 0
        return False

    def visit_Call(self, node: ast.Call) -> None:
        """Flag ``global_read`` calls with a negative (or
        non-literal-suspicious) age."""
        if terminal_name(node.func) == "global_read":
            age_arg: ast.expr | None = None
            if len(node.args) >= 3:
                age_arg = node.args[2]
            for kw in node.keywords:
                if kw.arg == "age":
                    age_arg = kw.value
            if age_arg is not None and self._negative_constant(age_arg):
                self.flag(node, "global_read with statically-negative age bound")
        self.generic_visit(node)


#: every rule, in code order — the engine instantiates one per file
ALL_RULES: tuple[type[Rule], ...] = (
    UnseededRandomness,
    WallClock,
    IterationOrderHazard,
    IllegalSyscallYield,
    DsmBypassMutation,
    NegativeGlobalReadAge,
)
