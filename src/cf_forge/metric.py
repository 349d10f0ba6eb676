"""Continuous performance metrics over a training set, plus penalties.

The default training objective is ``margin_metric``: for every object and
every class other than the object's true class it adds
``(2 + (cf_wrong - cf_true))^2``.  The CF difference lies in [-2, 2], so the
shift by 2 makes every term nonnegative and squaring rewards margin
monotonically: the score is zero exactly when each object's true class is
fully confirmed (+1) and every other class fully denied (-1).  Correctness
alone is not enough; sharpness of the classification lowers it further.

Any callable mapping (evaluations, labels, classes) to a MetricValue can
replace it; the trainer treats the metric as a plug-in and gives it one
whole-metric call per gradient probe.  Only for ``margin_metric`` does a
probe re-score just the objects the probed rule fires on and refold the
stored per-object terms: each of its terms depends only on its own
object's evaluation, and its value is the left fold from 0.0 of the terms
in object order, so the refold gives the very value a whole-metric call
would.  Each term is one ``margin_term`` call, which can read one
proposition's CF from an argument instead of the evaluation, so a probe
that changed only that CF re-scores an object without writing its state.
A plug-in's terms promise neither (a mean's terms depend on the object
count), so they are not used that way.  ``accuracy`` is a discrete
diagnostic for reporting only; it is not continuous and must not be used
as a training objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

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
    per_object: bool = False,
) -> MetricValue:
    """Sum of squared shifted margins, objects in given order, classes in
    sorted order (the summation order is part of the contract so results
    are bit-reproducible).  With ``per_object`` the result carries each
    object's term, which depends only on that object's evaluation, and
    value is the left fold from 0.0 of the terms (``v = 0.0; for t in
    terms: v += t``), bit for bit; the trainer relies on both to re-score
    only the objects a probe changes."""
    class_order = sorted(classes)
    class_set = set(class_order)
    terms: list[float] | None = [] if per_object else None
    total = 0.0
    for ev in evaluations:
        label = labels.get(ev.object_id)
        if label is None or label not in class_set:
            raise UnknownLabel(f"object {ev.object_id!r} has label {label!r}")
        term = margin_term(ev.prop_cf, label, class_order)
        total += term
        if terms is not None:
            terms.append(term)
    return MetricValue(value=total, per_object=terms)


def margin_term(
    prop_cf: Mapping[str, float],
    label: str,
    class_order: Sequence[str],
    prop: str | None = None,
    cf: float = 0.0,
) -> float:
    """One object's margin_metric term, classes in ``class_order`` (sorted),
    reading each class CF from ``prop_cf``, except that proposition
    ``prop``, when given, reads ``cf``: the term of the evaluation that
    differs from ``prop_cf`` in that one CF."""
    cf_true = cf if label == prop else prop_cf[label]
    term = 0.0
    for cid in class_order:
        if cid == label:
            continue
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
    """Fraction of objects whose argmax class matches their label;
    EmptyDataset for no objects, where 0.0 would read as every one wrong."""
    if not evaluations:
        raise EmptyDataset("no objects to score: accuracy is undefined for an empty set")
    correct = sum(1 for ev in evaluations if classify(ev, rb) == labels[ev.object_id])
    return correct / len(evaluations)
