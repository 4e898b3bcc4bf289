"""Declared per-field rules for the input dataclasses.

An *input dataclass* is one a caller builds to describe a run: a
config, spec, params, cost model, fault plan or contract.  Each numeric
field declares its rule once, in ``field(metadata=...)``, through one
of the constructors below, and ``__post_init__`` calls
:func:`check_fields`, which refuses a value outside its rule with a
``ValueError`` naming the class, the field and the value.  The
vocabulary: ``at_least(k)`` (an int >= k, ``at_most=`` caps it),
``positive()`` (finite and > 0, ``below=`` bounds it),
``nonnegative()`` (finite and >= 0), ``probability()`` ([0, 1]),
``one_of(values)``, ``nonempty()`` (a non-empty str) and
``unconstrained(reason)``.  Each takes ``default=``, ``each=True`` to
apply the rule to every element of a tuple, and ``optional=True`` to let
``None`` through.  NaN and ±inf fail every numeric rule.

Rules that relate two fields stay hand-written after the call.  The
value types built on the event path (``Compute``, ``Frame``,
``Population``) keep inline checks: they are built once per yield,
frame or generation, where a rule-table walk costs more than the check.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, field, fields
from numbers import Integral
from typing import Any, Callable, NamedTuple

#: the ``field(metadata=...)`` key a rule is stored under
RULE = "repro.rule"


class Rule(NamedTuple):
    """One field's rule: ``ok`` is the predicate (None when
    unconstrained), ``text`` what a valid value is (or why any value
    is), ``lo``/``hi`` the bounds or ``lo`` the ``one_of`` members."""

    kind: str
    text: str
    ok: Callable[[Any], bool] | None
    lo: Any = None
    hi: float | None = None
    hi_open: bool = False
    each: bool = False
    optional: bool = False


def _declare(rule: Rule, default: Any = MISSING, each: bool = False, optional: bool = False) -> Any:
    if optional:
        ok = rule.ok
        rule = rule._replace(ok=lambda v: v is None or ok(v), text=rule.text + " or None")
    rule = rule._replace(each=each, optional=optional)
    return field(default=default, metadata={RULE: rule})


def _is_int(v: Any) -> bool:
    return type(v) is int or (isinstance(v, Integral) and type(v) is not bool)


def at_least(k: int, at_most: int | None = None, **kw: Any) -> Any:
    """An int >= ``k`` (and <= ``at_most`` when given)."""
    hi = math.inf if at_most is None else at_most
    text = f"an int >= {k}" if at_most is None else f"an int in [{k}, {at_most}]"
    return _declare(Rule("int", text, lambda v: _is_int(v) and k <= v <= hi, k, at_most), **kw)


def positive(below: float | None = None, **kw: Any) -> Any:
    """Finite and > 0 (and < ``below`` when given)."""
    if below is not None:
        rule = Rule("positive", f"in (0, {below})", lambda v: 0 < v < below, hi=below,
                    hi_open=True)
    else:
        rule = Rule("positive", "finite and > 0", lambda v: 0 < v < math.inf)
    return _declare(rule, **kw)


def nonnegative(**kw: Any) -> Any:
    """Finite and >= 0."""
    return _declare(Rule("nonnegative", "finite and >= 0", lambda v: 0 <= v < math.inf), **kw)


def probability(**kw: Any) -> Any:
    """In [0, 1]."""
    return _declare(Rule("probability", "in [0, 1]", lambda v: 0 <= v <= 1), **kw)


def one_of(values: tuple, **kw: Any) -> Any:
    """A member of ``values``."""
    text = "one of " + ", ".join(map(repr, values))
    return _declare(Rule("one_of", text, lambda v: v in values, tuple(values)), **kw)


def nonempty(**kw: Any) -> Any:
    """A non-empty str."""
    rule = Rule("nonempty", "a non-empty str", lambda v: isinstance(v, str) and v != "")
    return _declare(rule, **kw)


def unconstrained(reason: str, **field_kw: Any) -> Any:
    """No rule, for ``reason``; ``field_kw`` goes to ``dataclasses.field``."""
    if not reason:
        raise ValueError("an unconstrained field must say why")
    return field(**field_kw, metadata={RULE: Rule("unconstrained", reason, None)})


#: class -> ((field name, predicate, each, text), ...), built on first use
_TABLES: dict[type, tuple] = {}


def check_fields(obj: Any) -> None:
    """Refuse the first field of ``obj`` whose value breaks its rule."""
    cls = type(obj)
    table = _TABLES.get(cls)
    if table is None:
        rules = [(f.name, f.metadata.get(RULE)) for f in fields(cls)]
        table = _TABLES[cls] = tuple(
            (name, r.ok, r.each, r.text) for name, r in rules if r is not None and r.ok
        )
    for name, ok, each, text in table:
        value = getattr(obj, name)
        for i, item in enumerate(value) if each else ((None, value),):
            try:
                good = ok(item)
            except TypeError:  # a str where a number belongs, say
                good = False
            if not good:
                where = name if i is None else f"{name}[{i}]"
                raise ValueError(f"{cls.__name__}.{where} must be {text}, got {item!r}")
