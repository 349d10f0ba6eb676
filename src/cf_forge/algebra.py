"""Certainty-factor arithmetic and antecedent expressions.

A certainty factor (CF) is a confidence in [-1.0, +1.0]: +1 certainly true,
-1 certainly false, 0 unknown.  Evidence for one proposition arriving from
several rules is pooled with ``combine_parallel``; the combination rule is
commutative and associative, so a proposition's contribution list can be
folded in any order and refolded incrementally without changing the result.
That order-independence is what makes incremental re-evaluation in the
engine sound.  In floating point the fold is only approximately
order-independent, so the engine fixes one order (each proposition's
incoming rules in topological order) and both of its paths fold in it.

Antecedents are trees of AND / OR / NOT over proposition references,
evaluated with the usual min / max / negation semantics.  The engine reads
an antecedent that is a bare reference straight from its CF map and calls
``eval_expr`` only for compound ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Union

from .errors import UnboundProposition

CF_MIN = -1.0
CF_MAX = 1.0


def is_cf(x: float) -> bool:
    """True when x is a valid certainty factor (rejects NaN and infinities)."""
    return CF_MIN <= x <= CF_MAX


def combine_parallel(x: float, y: float) -> float:
    """Pool two independent pieces of evidence for the same proposition.

    x + y - xy when both support, x + y + xy when both oppose, and
    (x + y) / (1 - min(|x|, |y|)) when they conflict.  0 is the identity,
    +1 and -1 absorb everything except their opposite, and the conflicting
    pair (+1, -1) has no continuous limit: it is defined to give 0.0
    (a symmetric tie of total conflict).  Absorption is handled explicitly
    because the sum formulas lose it to rounding (1 + y - y need not be 1
    in floating point); the conflicting branch absorbs exactly on its own.

    The result is the branch's formula clamped to [-1, +1].  For CFs
    in [-1, +1] the supporting sum is never below 0 and the opposing sum
    never above 0, even after rounding, so each of those branches tests
    only the bound it can cross.
    """
    if x >= 0.0:
        if y >= 0.0:
            if x == 1.0 or y == 1.0:
                return 1.0
            z = x + y - x * y
            return 1.0 if z > 1.0 else z
        weaker = x if x < -y else -y  # min(|x|, |y|), up to the sign of a zero
    elif y <= 0.0:
        if x == -1.0 or y == -1.0:
            return -1.0
        z = x + y + x * y
        return -1.0 if z < -1.0 else z
    else:
        weaker = y if y < -x else -x
    denom = 1.0 - weaker
    if denom == 0.0:
        return 0.0
    z = (x + y) / denom
    return 1.0 if z > 1.0 else -1.0 if z < -1.0 else z


@dataclass(frozen=True)
class Ref:
    """Leaf node: the certainty factor of one proposition."""

    prop: str


@dataclass(frozen=True)
class And:
    members: tuple


@dataclass(frozen=True)
class Or:
    members: tuple


@dataclass(frozen=True)
class Not:
    member: "Expr"


Expr = Union[Ref, And, Or, Not]


def eval_expr(expr: Expr, env: Mapping[str, float]) -> float:
    """Evaluate an antecedent: AND is the minimum of its members, OR the
    maximum, NOT the arithmetic negation, and a leaf reads ``env``.

    Raises UnboundProposition when a referenced proposition has no CF.
    """
    if type(expr) is Ref:
        try:
            return env[expr.prop]
        except KeyError:
            raise UnboundProposition(expr.prop) from None
    if type(expr) is And:
        return min(eval_expr(m, env) for m in expr.members)
    if type(expr) is Or:
        return max(eval_expr(m, env) for m in expr.members)
    if type(expr) is Not:
        return -eval_expr(expr.member, env)
    raise TypeError(f"not an antecedent expression: {expr!r}")


def _walk_refs(expr: Expr) -> Iterator[str]:
    if type(expr) is Ref:
        yield expr.prop
    elif type(expr) is Not:
        yield from _walk_refs(expr.member)
    elif type(expr) is And or type(expr) is Or:
        for m in expr.members:
            yield from _walk_refs(m)
    else:
        raise TypeError(f"not an antecedent expression: {expr!r}")


def referenced_props(expr: Expr) -> frozenset[str]:
    """All proposition ids an antecedent reads."""
    return frozenset(_walk_refs(expr))
