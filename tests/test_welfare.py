"""Welfare indices: frozen examples, zero handling, and family identities."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ineqkit import (
    DomainError,
    IncomeSample,
    ZeroIncomeError,
    atkinson,
    ge_index,
    ge_zero,
    theil,
)

positive_samples = st.lists(
    st.floats(min_value=0.5, max_value=50.0, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=50,
).map(IncomeSample.from_values)


def exact_ge(values, alpha):
    """GE of integer order in exact rational arithmetic."""
    v = [Fraction(x) for x in values]
    mean = sum(v) / len(v)
    moment = sum((x / mean) ** alpha for x in v) / len(v)
    return (moment - 1) / (alpha * (alpha - 1))


class TestPowerMeanRange:
    """Power means factor out the extreme ratio, so no term overflows."""

    @pytest.mark.parametrize("values, alpha", [([1, 2, 3], 2000), ([1e-300, 2, 3], -3)])
    def test_unrepresentable_ge_raises(self, values, alpha):
        with pytest.raises(DomainError, match="exceeds the float range"):
            ge_index(values, alpha)

    @pytest.mark.parametrize(
        "values, alpha",
        # r^alpha overflows for the largest (smallest) ratio, the index does not
        [([1, 1, 4.25], 1000), ([1e-100, 2, 3], -1), ([1e-300, 2, 3], -1), ([1, 2, 3], 2)],
    )
    def test_representable_ge_is_finite(self, values, alpha):
        exact = exact_ge(values, alpha)
        assert ge_index(values, alpha) == pytest.approx(float(exact), rel=1e-12)

    def test_high_aversion_overflowing_term(self):
        # (1/1500.5)^-100 overflows; the index is 0.99933 (mpmath, 40 digits)
        assert atkinson([1, 3000], 101) == pytest.approx(0.9993289199932977549, rel=1e-12)

    def test_tiny_value_high_aversion(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert atkinson([1e-100, 2, 3], 5) == 1.0
            assert atkinson([1e-300, 1e300], 3) == 1.0


class TestAtkinson:
    def test_equal_incomes(self):
        for eps in (0.0, 0.5, 1.0, 2.0):
            assert atkinson([4, 4, 4], eps) == pytest.approx(0.0, abs=1e-12)

    def test_harmonic_mean_case(self):
        # harmonic mean 1.5, mean 2
        assert atkinson([1, 3], 2.0) == pytest.approx(0.25, abs=1e-12)

    def test_geometric_mean_case(self):
        assert atkinson([1, 3], 1.0) == pytest.approx(1 - math.sqrt(3) / 2, abs=1e-12)

    def test_zero_income_high_aversion(self):
        assert atkinson([0, 1], 1.0) == 1.0
        assert atkinson([0, 1], 2.5) == 1.0

    def test_zero_income_low_aversion(self):
        a = atkinson([0, 1], 0.5)
        assert 0.0 < a < 1.0

    def test_negative_aversion_rejected(self):
        with pytest.raises(DomainError):
            atkinson([1, 2], -0.1)

    @given(positive_samples, st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, s, c):
        for eps in (0.5, 1.0, 2.0):
            scaled = IncomeSample.from_values(s.values * c)
            assert atkinson(scaled, eps) == pytest.approx(atkinson(s, eps), abs=1e-12)

    @given(
        positive_samples,
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.0, max_value=5.0),
    )
    def test_monotone_aversion(self, s, e1, e2):
        lo, hi = sorted((e1, e2))
        assert atkinson(s, lo) <= atkinson(s, hi) + 1e-10


class TestGeneralizedEntropy:
    def test_equal_incomes(self):
        assert ge_index([2, 2, 2], 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_order_two(self):
        # 0.5 * (0.5 * (0.25 + 2.25) - 1)
        assert ge_index([1, 3], 2.0) == pytest.approx(0.125, abs=1e-12)

    def test_order_half(self):
        # direct evaluation: (mean((y/ybar)^0.5) - 1) / (0.5 * (0.5 - 1))
        assert ge_index([1, 3], 0.5) == pytest.approx(0.136296694843727, abs=1e-12)

    def test_zero_income_negative_order(self):
        with pytest.raises(ZeroIncomeError):
            ge_index([0, 1], -1.0)
        with pytest.raises(ZeroIncomeError):
            ge_index([0, 1], 0.0)

    def test_zero_income_fractional_order_allowed(self):
        assert math.isfinite(ge_index([0, 1], 0.5))

    @given(positive_samples)
    def test_limit_at_zero(self, s):
        assert ge_index(s, 1e-6) == pytest.approx(ge_zero(s), abs=1e-4)

    @given(positive_samples)
    def test_limit_at_one(self, s):
        assert ge_index(s, 1.0 - 1e-6) == pytest.approx(theil(s), abs=1e-4)

    @given(positive_samples, st.floats(min_value=-2.0, max_value=3.0))
    @example(IncomeSample.from_values([1.0, 8.245170565950737]), 0.99999)
    @example(IncomeSample.from_values([1.0, 8.245170565950737]), 1e-5)
    def test_scale_invariance(self, s, alpha):
        scaled = IncomeSample.from_values(s.values * 7.5)
        assert ge_index(scaled, alpha) == pytest.approx(ge_index(s, alpha), abs=1e-12)

    @given(positive_samples, st.floats(min_value=0.0, max_value=3.0))
    def test_cross_identity_with_atkinson(self, s, eps):
        # (1 - A(eps))^(1 - eps) = 1 + (1 - eps)(-eps) GE(1 - eps)
        if abs(eps - 1.0) < 1e-6:
            return
        lhs = (1.0 - atkinson(s, eps)) ** (1.0 - eps)
        rhs = 1.0 + (1.0 - eps) * (-eps) * ge_index(s, 1.0 - eps)
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestMeanLogDeviation:
    def test_equal_incomes(self):
        assert ge_zero([3, 3]) == pytest.approx(0.0, abs=1e-12)

    def test_two_values(self):
        assert ge_zero([1, 3]) == pytest.approx(0.143841036225890, abs=1e-12)

    def test_three_values(self):
        assert ge_zero([1, 1, 4]) == pytest.approx(0.231049060186648, abs=1e-12)

    def test_zero_rejected(self):
        with pytest.raises(ZeroIncomeError):
            ge_zero([0, 1])


class TestTheil:
    def test_equal_incomes(self):
        assert theil([5, 5, 5]) == pytest.approx(0.0, abs=1e-12)

    def test_two_values(self):
        assert theil([1, 3]) == pytest.approx(0.130812035941137, abs=1e-12)

    def test_zero_term_vanishes(self):
        assert theil([0, 2]) == pytest.approx(math.log(2), abs=1e-12)


@given(positive_samples, st.data())
def test_pigou_dalton_family(s, data):
    """A progressive transfer never increases any index in the family."""
    v = s.values.copy()
    if v[-1] <= v[0]:
        return
    i = int(np.argmin(v))
    j = int(np.argmax(v))
    frac = data.draw(st.floats(min_value=0.01, max_value=1.0))
    delta = frac * (v[j] - v[i]) / 2.0
    v[i] += delta
    v[j] -= delta
    after = IncomeSample.from_values(v)
    assert atkinson(after, 1.5) <= atkinson(s, 1.5) + 1e-10
    assert theil(after) <= theil(s) + 1e-10
    assert ge_zero(after) <= ge_zero(s) + 1e-10
    assert ge_index(after, 2.0) <= ge_index(s, 2.0) + 1e-10
