"""Exception types shared across the package.

Everything raised on purpose derives from CfForgeError, so callers (and the
CLI) can treat "bad input or bad state" uniformly without swallowing real
bugs.
"""

from __future__ import annotations


class CfForgeError(Exception):
    """Base class for errors raised by this package."""


class UnboundProposition(CfForgeError):
    """An antecedent referenced a proposition with no certainty factor."""


class CyclicDependency(CfForgeError):
    """The rule graph contains a cycle, so no evaluation order exists."""


class UnknownRule(CfForgeError):
    """A rule id does not exist in the rule base."""


class ParseError(CfForgeError):
    """A rule-base or dataset document is structurally malformed."""

    def __init__(self, message: str, where: str | None = None):
        self.where = where
        super().__init__(f"{where}: {message}" if where else message)


class ValidationError(CfForgeError):
    """A structurally well-formed rule base violates model invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        detail = "; ".join(f"{v.code}: {v.detail}" for v in self.violations)
        super().__init__(f"invalid rule base: {detail}")


class InconsistentState(CfForgeError):
    """A cached evaluation disagrees with the rule base it claims to mirror."""


class NoOutputClasses(CfForgeError):
    """Classification requested but the rule base declares no output classes."""


class UnknownLabel(CfForgeError):
    """A training object's label is not a declared output class."""


class EmptyDataset(CfForgeError):
    """A dataset, or a part of one, holds no object where one is needed."""


class NoTrainableRules(CfForgeError):
    """Training requires at least one trainable rule."""


class NonFiniteObjective(CfForgeError):
    """An objective or gradient component came out inf or NaN: a soft-bound
    penalty overflowed under its coefficient (margin terms are bounded)."""

    def __init__(self, what: str, value: float, coefficient: float):
        super().__init__(
            f"{what} is {value!r}, not finite, under penalty coefficient {coefficient!r}"
        )


class SpecInvalid(CfForgeError):
    """A synthetic-generation request is outside the supported range."""
