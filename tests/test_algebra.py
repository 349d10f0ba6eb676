"""Certainty-factor calculus: worked examples and algebraic laws."""

import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from cf_forge import (
    And,
    Not,
    Or,
    Ref,
    UnboundProposition,
    combine_parallel,
    eval_expr,
    is_cf,
)
from cf_forge.engine import _fold
from helpers import clamped_formula

cfs = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
# the conflicting-combination denominator 1 - min(|x|, |y|) amplifies
# rounding near saturation, so the associativity law is checked away from it
cfs_interior = st.floats(min_value=-0.99, max_value=0.99, allow_nan=False)
# phi below loses digits as |x| nears 1, so the evidence identity is
# checked on [-0.999, 0.999]
cfs_evidence = st.floats(min_value=-0.999, max_value=0.999, allow_nan=False)

TINY = 5e-324  # the smallest subnormal
MIN_NORMAL = 2.2250738585072014e-308
# signed zeros, the absorbing values, values within 1e-15 of them, and
# subnormals: where an inline clamp that skips a bound could go wrong
EDGES = (
    0.0, -0.0, 1.0, -1.0,
    math.nextafter(1.0, 0.0), math.nextafter(-1.0, 0.0), 1.0 - 1e-15, -1.0 + 1e-15,
    TINY, -TINY, MIN_NORMAL, -MIN_NORMAL, math.nextafter(MIN_NORMAL, 0.0),
    0.5, -0.5,
)


class TestCombineParallel:
    def test_zero_is_identity(self):
        assert combine_parallel(0.0, 0.7) == 0.7
        assert combine_parallel(0.7, 0.0) == 0.7

    def test_both_supportive(self):
        # oracle: direct scalar evaluation of x + y - xy
        assert combine_parallel(0.6, 0.4) == 0.6 + 0.4 - 0.6 * 0.4
        assert combine_parallel(0.6, 0.4) == pytest.approx(0.76, abs=1e-12)

    def test_conflicting(self):
        # oracle: (x + y) / (1 - min(|x|, |y|))
        assert combine_parallel(0.8, -0.5) == (0.8 + -0.5) / (1 - 0.5)
        assert combine_parallel(0.8, -0.5) == pytest.approx(0.6, abs=1e-12)

    def test_both_opposing(self):
        # oracle: x + y + xy
        assert combine_parallel(-0.3, -0.4) == -0.3 + -0.4 + (-0.3 * -0.4)
        assert combine_parallel(-0.3, -0.4) == pytest.approx(-0.58, abs=1e-12)

    def test_total_conflict_is_symmetric_tie(self):
        assert combine_parallel(1.0, -1.0) == 0.0
        assert combine_parallel(-1.0, 1.0) == 0.0

    @given(cfs, cfs)
    def test_equals_the_clamped_formula_bitwise(self, x, y):
        assert combine_parallel(x, y).hex() == clamped_formula(x, y).hex()

    def test_equals_the_clamped_formula_on_edge_inputs(self):
        for x, y in itertools.product(EDGES, repeat=2):
            assert combine_parallel(x, y).hex() == clamped_formula(x, y).hex(), (x, y)

    @given(cfs, cfs)
    def test_closure(self, x, y):
        assert is_cf(combine_parallel(x, y))

    @given(cfs, cfs)
    def test_commutative_exactly(self, x, y):
        assert combine_parallel(x, y) == combine_parallel(y, x)

    @given(cfs)
    def test_identity_exactly(self, x):
        assert combine_parallel(x, 0.0) == x

    @given(cfs)
    def test_absorption(self, y):
        if y > -1.0:
            assert combine_parallel(1.0, y) == 1.0
        if y < 1.0:
            assert combine_parallel(-1.0, y) == -1.0

    @given(cfs_interior, cfs_interior, cfs_interior)
    def test_associative(self, x, y, z):
        left = combine_parallel(combine_parallel(x, y), z)
        right = combine_parallel(x, combine_parallel(y, z))
        assert left == pytest.approx(right, abs=1e-12)


def phi(x):
    """The evidence of a CF, a log-likelihood ratio (Heckerman 1986)."""
    return math.copysign(-math.log1p(-abs(x)), x)


def phi_inv(e):
    return math.copysign(-math.expm1(-abs(e)), e)


class TestEvidenceSpace:
    """Parallel combination is addition of evidence: combine_parallel(x, y)
    == phi_inv(phi(x) + phi(y)) in all three branches (Hajek 1985), so a
    fold of contributions is phi_inv of the sum of their evidence."""

    @given(cfs_evidence, cfs_evidence)
    def test_a_pair_adds_its_evidence(self, x, y):
        assert combine_parallel(x, y) == pytest.approx(phi_inv(phi(x) + phi(y)), abs=1e-13)

    @given(cfs_evidence, cfs_evidence, cfs_evidence)
    def test_a_fold_of_three_adds_their_evidence(self, x, y, z):
        # a conflicting step divides by 1 - min(|x|, |y|) >= 0.001, so the
        # few ulps of 1 that the first step may round off grow up to 1000x
        # (targeted draws near +-0.999 reach 1.7e-13)
        expected = phi_inv(phi(x) + phi(y) + phi(z))
        assert _fold([x, y, z], 0, 3) == pytest.approx(expected, abs=1e-12)


class TestCombineAll:
    """Combining all of a proposition's contributions: the engine's fold
    from 0.0 over a slot range, skipping rules that do not fire."""

    @staticmethod
    def fold(xs):
        return _fold(xs, 0, len(xs))

    def test_empty_means_unknown(self):
        assert self.fold([]) == 0.0
        assert self.fold([None, None]) == 0.0

    def test_single_passes_through(self):
        assert self.fold([0.9]) == 0.9
        assert self.fold([None, 0.9]) == 0.9

    def test_fold(self):
        assert self.fold([0.4, 0.5]) == 0.4 + 0.5 - 0.4 * 0.5
        assert self.fold([0.4, 0.5]) == pytest.approx(0.7, abs=1e-12)

    def test_order_independent(self):
        rng = random.Random(11)
        for _ in range(200):
            xs = [rng.uniform(-0.99, 0.99) for _ in range(rng.randint(2, 6))]
            shuffled = xs[:]
            rng.shuffle(shuffled)
            assert self.fold(shuffled) == pytest.approx(self.fold(xs), abs=1e-12)


class TestEvalExpr:
    ENV = {"a": 0.3, "b": 0.8, "c": -0.2, "d": 0.1, "e": 0.4}

    def test_leaf(self):
        assert eval_expr(Ref("a"), self.ENV) == 0.3

    def test_and_is_min(self):
        assert eval_expr(And((Ref("a"), Ref("b"))), self.ENV) == 0.3

    def test_or_is_max(self):
        # oracle: direct comparison
        assert eval_expr(Or((Ref("c"), Ref("d"))), self.ENV) == max(-0.2, 0.1)

    def test_not_negates(self):
        assert eval_expr(Not(Ref("e")), self.ENV) == -0.4

    def test_nested(self):
        expr = And((Or((Ref("a"), Ref("b"))), Not(Ref("c"))))
        assert eval_expr(expr, self.ENV) == min(max(0.3, 0.8), 0.2)

    def test_unbound_proposition(self):
        with pytest.raises(UnboundProposition):
            eval_expr(Ref("missing"), self.ENV)
