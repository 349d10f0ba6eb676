"""Continuous performance metrics over a training set, plus penalties.
Each mechanism is stated once:

- the default training objective, and the invariant that lets a probe
  refold its per-object terms: ``margin_metric``;
- one object's term, its one definition: ``margin_term``, over the
  label's rivals: ``rival_classes``;
- the soft-bound quadratic hinge: ``PenaltyConfig`` and ``penalty``;
- the discrete diagnostic, for reporting only: ``accuracy``;
- how the trainer probes this metric by refolding its terms, and any
  plug-in, a callable mapping (evaluations, labels, classes) to a
  MetricValue, by full passes: ``optimizer._Session._probe_objective``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Container, Mapping, Sequence

from .engine import ObjectEvaluation, classify
from .errors import EmptyDataset, UnknownLabel
from .model import RuleBase, SOFT


@dataclass
class MetricValue:
    """A nonnegative score plus an optional per-object breakdown
    (value == sum of the per-object terms, in object order)."""

    value: float
    per_object: list[float] | None = None


MetricFn = Callable[..., MetricValue]


@dataclass
class PenaltyConfig:
    """Quadratic-hinge penalty on soft-bound violations, scaled by
    ``coefficient``.  The hinge keeps the objective C^1 at the boundary."""

    coefficient: float = 10.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.coefficient) and self.coefficient >= 0.0):
            raise ValueError(
                f"penalty coefficient must be finite and >= 0, got {self.coefficient!r}"
            )


def margin_metric(
    evaluations: Sequence[ObjectEvaluation],
    labels: Mapping[str, str],
    classes: Sequence[str],
) -> MetricValue:
    """Sum over the objects, in the given order, and over each object's
    other classes, in sorted order, of (2 + (cf_wrong - cf_true))^2.  The
    CF difference lies in [-2, 2], so the shift by 2 makes every term
    nonnegative and squaring rewards margin monotonically: the score is
    zero exactly when each object's true class is fully confirmed (+1) and
    every other class fully denied (-1).  The summation order is part of
    the contract, so results are bit-reproducible.  A label missing from
    ``labels`` or not in ``classes`` raises UnknownLabel.

    The result carries each object's term.  A term depends only on its
    own object's evaluation, and value is the left fold from 0.0 of the
    terms (``v = 0.0; for t in terms: v += t``), bit for bit, so a probe
    may re-score only the objects it changed and refold the terms to the
    very value a whole call would give.  A plug-in's terms promise neither
    (a mean's depend on the object count), so only this metric's are
    refolded."""
    rivals = rival_classes(classes)
    terms: list[float] = []
    total = 0.0
    for ev in evaluations:
        label = _label(ev, labels, rivals)
        term = margin_term(ev.prop_cf, label, rivals[label])
        total += term
        terms.append(term)
    return MetricValue(value=total, per_object=terms)


def rival_classes(classes: Sequence[str]) -> dict[str, list[str]]:
    """Each class's rivals, the other classes in sorted order: the classes
    margin_term sums over for an object of that label."""
    order = sorted(classes)
    return {label: [cid for cid in order if cid != label] for label in order}


def _label(ev: ObjectEvaluation, labels: Mapping[str, str], classes: Container[str]) -> str:
    """The object's label; UnknownLabel when it is missing or no class."""
    label = labels.get(ev.object_id)
    if label is None or label not in classes:
        raise UnknownLabel(f"object {ev.object_id!r} has label {label!r}")
    return label


def margin_term(
    prop_cf: Mapping[str, float],
    label: str,
    rivals: Sequence[str],
    prop: str | None = None,
    cf: float = 0.0,
) -> float:
    """One object's margin_metric term, summed over the label's ``rivals``
    (see rival_classes), reading each class CF from ``prop_cf``, except
    that proposition ``prop``, when given, reads ``cf``: the term of the
    evaluation that differs from ``prop_cf`` in that one CF, which a probe
    that changed only that CF re-scores without writing the state."""
    cf_true = cf if label == prop else prop_cf[label]
    term = 0.0
    for cid in rivals:
        d = 2.0 + ((cf if cid == prop else prop_cf[cid]) - cf_true)
        term += d * d
    return term


def penalty(rb: RuleBase, cfg: PenaltyConfig) -> float:
    """coefficient x sum over soft-bounded rules of the squared hinge
    distances to [lo, hi]; zero when every soft bound is satisfied.
    Hard-bounded rules never contribute (they are enforced by projection)."""
    total = 0.0
    for r in rb.rules:
        if r.bound_kind != SOFT:
            continue
        lo, hi = r.bounds
        below = lo - r.weight
        if below > 0.0:
            total += below * below
        above = r.weight - hi
        if above > 0.0:
            total += above * above
    return cfg.coefficient * total


def accuracy(
    evaluations: Sequence[ObjectEvaluation],
    labels: Mapping[str, str],
    rb: RuleBase,
) -> float:
    """Fraction of objects whose argmax class matches their label.  It is
    discrete, for reporting only, and never a training objective.  Labels
    are checked as margin_metric checks them; EmptyDataset for no
    objects, where 0.0 would read as every one wrong."""
    if not evaluations:
        raise EmptyDataset("no objects to score: accuracy is undefined for an empty set")
    classes = set(rb.output_classes)
    correct = sum(1 for ev in evaluations if _label(ev, labels, classes) == classify(ev, rb))
    return correct / len(evaluations)
