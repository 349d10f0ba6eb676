"""Metric, penalty, the objective as their sum, and accuracy."""

import random

import pytest

from cf_forge import (
    EmptyDataset,
    ObjectEvaluation,
    PenaltyConfig,
    Proposition,
    Ref,
    Rule,
    RuleBase,
    TrainingObject,
    UnknownLabel,
    accuracy,
    evaluate_full,
    margin_metric,
    penalty,
)
from cf_forge.model import DERIVED, INPUT


def fake_eval(oid, cfs):
    ev = ObjectEvaluation(oid)
    ev.prop_cf = dict(cfs)
    return ev


CLASSES = ("A", "B")


class TestMarginMetric:
    def test_perfect_sharp_classification_is_minimum(self):
        ev = fake_eval("o", {"A": 1.0, "B": -1.0})
        assert margin_metric([ev], {"o": "A"}, CLASSES).value == 0.0

    def test_all_zero_cfs(self):
        ev = fake_eval("o", {"A": 0.0, "B": 0.0})
        assert margin_metric([ev], {"o": "A"}, CLASSES).value == 4.0

    def test_all_zero_scales_with_objects_and_classes(self):
        n_obj, classes = 7, ("A", "B", "C", "D")
        evs = [fake_eval(f"o{i}", {c: 0.0 for c in classes}) for i in range(n_obj)]
        labels = {f"o{i}": "A" for i in range(n_obj)}
        assert margin_metric(evs, labels, classes).value == 4.0 * n_obj * (len(classes) - 1)

    def test_margin_term(self):
        # oracle: independent scalar substitution
        ev = fake_eval("o", {"A": 0.3, "B": 0.8})
        expected = (2.0 + (0.8 - 0.3)) ** 2
        assert margin_metric([ev], {"o": "A"}, CLASSES).value == pytest.approx(expected)
        assert margin_metric([ev], {"o": "A"}, CLASSES).value == pytest.approx(6.25, abs=1e-12)

    def test_unknown_label(self):
        ev = fake_eval("o", {"A": 0.0, "B": 0.0})
        with pytest.raises(UnknownLabel):
            margin_metric([ev], {"o": "Z"}, CLASSES)
        with pytest.raises(UnknownLabel):
            margin_metric([ev], {}, CLASSES)

    def test_per_object_breakdown_sums_to_value(self):
        rng = random.Random(2)
        evs = [
            fake_eval(f"o{i}", {"A": rng.uniform(-1, 1), "B": rng.uniform(-1, 1)})
            for i in range(9)
        ]
        labels = {f"o{i}": rng.choice(CLASSES) for i in range(9)}
        m = margin_metric(evs, labels, CLASSES)
        assert m.value == pytest.approx(sum(m.per_object), abs=1e-12)
        assert len(m.per_object) == 9

    def test_nonnegative_and_zero_only_at_sharp_optimum(self):
        rng = random.Random(3)
        for _ in range(300):
            cfs = {"A": rng.uniform(-1, 1), "B": rng.uniform(-1, 1)}
            v = margin_metric([fake_eval("o", cfs)], {"o": "A"}, CLASSES).value
            assert v >= 0.0
            if v == 0.0:
                assert cfs["A"] == 1.0 and cfs["B"] == -1.0

    def test_monotone_in_wrong_class_and_true_class(self):
        rng = random.Random(4)
        for _ in range(1000):
            a, b = rng.uniform(-1, 1), rng.uniform(-1, 1)
            base = margin_metric([fake_eval("o", {"A": a, "B": b})], {"o": "A"}, CLASSES).value
            lower_wrong = margin_metric(
                [fake_eval("o", {"A": a, "B": b - rng.uniform(0, 1 + b)})], {"o": "A"}, CLASSES
            ).value
            higher_true = margin_metric(
                [fake_eval("o", {"A": a + rng.uniform(0, 1 - a), "B": b})], {"o": "A"}, CLASSES
            ).value
            assert lower_wrong <= base + 1e-15
            assert higher_true <= base + 1e-15


def soft_rule_base(weight, bounds=(0.0, 1.0), bound_kind="soft"):
    props = [
        Proposition("f", INPUT),
        Proposition("c", DERIVED, output_class=True),
    ]
    return RuleBase(
        props,
        [Rule(id="r1", antecedent=Ref("f"), consequent="c",
              weight=weight, bounds=bounds, bound_kind=bound_kind)],
    )


class TestPenalty:
    def test_zero_when_within_bounds(self):
        assert penalty(soft_rule_base(0.5), PenaltyConfig()) == 0.0

    def test_quadratic_hinge(self):
        # oracle: mu * (lo - w)^2 for a low-side violation
        rb = soft_rule_base(-0.2)
        assert penalty(rb, PenaltyConfig(coefficient=10.0)) == 10.0 * (0.0 - -0.2) ** 2
        assert penalty(rb, PenaltyConfig(coefficient=10.0)) == pytest.approx(0.4, abs=1e-12)

    def test_high_side_violation(self):
        rb = soft_rule_base(0.9, bounds=(0.0, 0.5))
        assert penalty(rb, PenaltyConfig(coefficient=2.0)) == pytest.approx(2.0 * 0.4**2)

    def test_hard_bounds_never_contribute(self):
        rb = soft_rule_base(-0.2, bound_kind="hard")
        assert penalty(rb, PenaltyConfig(coefficient=1e6)) == 0.0

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            PenaltyConfig(coefficient=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_coefficient_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            PenaltyConfig(coefficient=value)


class TestObjective:
    """The training objective is metric plus penalty, as the optimizer's
    session scores it."""

    def test_objective_continuous_in_weights(self):
        """Finite-difference continuity probe on a flat base: the objective
        change must vanish linearly with the weight displacement."""
        from cf_forge import SynthSpec, generate

        rb, _, data, _ = generate(SynthSpec(features=5, classes=2, objects=10, seed=8))
        rng = random.Random(8)
        for r in rb.rules:
            r.weight = rng.uniform(-0.8, 0.8)
        labels = {o.id: o.label for o in data}
        cfg = PenaltyConfig()

        def f():
            states = [evaluate_full(rb, o) for o in data]
            return margin_metric(states, labels, rb.output_classes).value + penalty(rb, cfg)

        direction = {r.id: rng.uniform(-1, 1) for r in rb.rules}
        base_val = f()
        w0 = {r.id: r.weight for r in rb.rules}
        deltas = []
        for h in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            for r in rb.rules:
                r.weight = w0[r.id] + h * direction[r.id]
            deltas.append((h, abs(f() - base_val)))
            for r in rb.rules:
                r.weight = w0[r.id]
        slope = deltas[0][1] / deltas[0][0]
        for h, d in deltas[1:]:
            assert d <= 10.0 * (slope + 1.0) * h


class TestAccuracy:
    def make(self, cf_pairs, labels):
        props = [Proposition(c, DERIVED, output_class=True) for c in CLASSES]
        rb = RuleBase(props, [])
        evs = []
        for i, pair in enumerate(cf_pairs):
            evs.append(fake_eval(f"o{i}", dict(zip(CLASSES, pair))))
        return rb, evs, {f"o{i}": lab for i, lab in enumerate(labels)}

    def test_all_correct(self):
        rb, evs, labels = self.make([(0.9, 0.1), (0.1, 0.9)], ["A", "B"])
        assert accuracy(evs, labels, rb) == 1.0

    def test_none_correct(self):
        rb, evs, labels = self.make([(0.1, 0.9), (0.9, 0.1)], ["A", "B"])
        assert accuracy(evs, labels, rb) == 0.0

    def test_three_of_four(self):
        rb, evs, labels = self.make(
            [(0.9, 0.1), (0.1, 0.9), (0.9, 0.1), (0.9, 0.1)],
            ["A", "B", "A", "B"],
        )
        assert accuracy(evs, labels, rb) == 0.75

    def test_no_objects_raises(self):
        # 0.0 would read as every object wrong
        rb, evs, labels = self.make([], [])
        with pytest.raises(EmptyDataset, match="no objects"):
            accuracy(evs, labels, rb)

    @pytest.mark.parametrize("labels", [{"o0": "A"}, {"o0": "A", "o1": "C"}])
    def test_a_missing_or_unknown_label_raises_as_in_margin_metric(self, labels):
        # a missing label once raised a bare KeyError, and an unknown one
        # counted as a miss
        rb, evs, _ = self.make([(0.9, 0.1), (0.1, 0.9)], ["A", "B"])
        for score in (lambda: margin_metric(evs, labels, CLASSES), lambda: accuracy(evs, labels, rb)):
            with pytest.raises(UnknownLabel, match="'o1'"):
                score()
