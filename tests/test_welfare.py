"""Welfare indices: frozen examples, zero handling, and family identities."""

import math
import sys
import warnings
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ineqkit import (
    DomainError,
    IncomeSample,
    IneqError,
    ZeroIncomeError,
    atkinson,
    ge_index,
    ge_zero,
    theil,
)
from ineqkit.welfare import LIMIT_WINDOW

positive_samples = st.lists(
    st.floats(min_value=0.5, max_value=50.0, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=50,
).map(IncomeSample.from_values)


def decimal_moment(values, alpha):
    """mean((y / ybar)^alpha) of ``values`` by decimal at 60 digits, with the
    Decimal of alpha."""
    with localcontext(Context(prec=60)):
        exact = [Decimal(v) for v in values]
        mean = sum(exact) / len(exact)
        a = Decimal(alpha)
        return sum((a * (v / mean).ln()).exp() for v in exact) / len(exact), a


def decimal_ge(values, alpha):
    moment, a = decimal_moment(values, alpha)
    with localcontext(Context(prec=60)):
        return float((moment - 1) / (a * (a - 1)))


def decimal_atkinson(values, eps):
    moment, p = decimal_moment(values, 1 - Decimal(eps))
    with localcontext(Context(prec=60)):
        return float(1 - (moment.ln() / p).exp())


def exact_ge(values, alpha):
    """GE of integer order in exact rational arithmetic."""
    v = [Fraction(x) for x in values]
    mean = sum(v) / len(v)
    moment = sum((x / mean) ** alpha for x in v) / len(v)
    return (moment - 1) / (alpha * (alpha - 1))


class TestPowerMeanRange:
    """Power means factor out the extreme ratio, so no term overflows."""

    # the unscaled mean of [0, 5e-324] rounds to 0; ln(mean) is read from the scaled one
    @pytest.mark.parametrize("values, alpha", [([1, 2, 3], 2000), ([1e-300, 2, 3], -3), ([0.0, 5e-324], 1e5)])
    def test_unrepresentable_ge_raises(self, values, alpha):
        with pytest.raises(DomainError, match="exceeds the float range"):
            ge_index(values, alpha)

    @pytest.mark.parametrize("alpha", [1e155, -1e155, 1e300, -1e300])
    def test_order_whose_square_overflows_raises(self, alpha):
        """alpha * (alpha - 1) is past the float range, and so is the index."""
        with pytest.raises(DomainError, match="exceeds the float range"):
            ge_index([1, 2, 3], alpha)

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

    def test_aversion_whose_ge_is_past_the_float_range(self):
        """A(eps) tends to 1 - min / mean as eps grows; GE(1 - eps) is past
        the float range, and that error is not Atkinson's."""
        assert atkinson([1, 2], 1e200) == pytest.approx(1.0 / 3.0, rel=1e-15)
        # (1 - eps) ln(min / mean) is past the float range, its log power mean is not
        assert atkinson([1, 1e9], 1e307) == pytest.approx(1.0 - 2.0 / (1.0 + 1e9), rel=1e-15)
        with pytest.raises(DomainError, match="exceeds the float range"):
            ge_index([1, 2], 1.0 - 1e200)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_aversion_must_be_finite(self, eps):
        with pytest.raises(DomainError) as exc:
            atkinson([1, 2, 3], eps)
        assert str(exc.value) == "aversion parameter must be finite"

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

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_order_must_be_finite(self, alpha):
        with pytest.raises(DomainError) as exc:
            ge_index([1, 3], alpha)
        assert str(exc.value) == "entropy order must be finite"

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

    def test_product_past_the_float_range_near_order_one(self):
        """r expm1((alpha - 1) ln r) times v overflows although the sample's
        total (4.8e307) does not; the index is scale-invariant."""
        values = np.array([1.0] * 99 + [1000.0])
        assert ge_index(values * 2.0**1012, 1.45) == pytest.approx(9.130671, abs=5e-7)
        assert ge_index(values * 2.0**1012, 1.45) == ge_index(values, 1.45)

    @given(positive_samples, st.floats(min_value=0.0, max_value=3.0))
    def test_cross_identity_with_atkinson(self, s, eps):
        # (1 - A(eps))^(1 - eps) = 1 + (1 - eps)(-eps) GE(1 - eps)
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

    def test_product_past_the_float_range(self):
        """v ln(v / mean) overflows although the sample's total (4.8e307)
        does not; the index is scale-invariant."""
        values = np.array([1.0] * 99 + [1000.0])
        assert theil(values * 2.0**1012) == pytest.approx(3.888506, abs=5e-7)
        assert theil(values * 2.0**1012) == theil(values)

    def test_product_past_the_float_range_with_zeros(self):
        rng = np.random.default_rng(11)
        values = np.append(rng.lognormal(0.0, 1.0, 40_000), [0.0, 0.0, 1e6])
        scaled = values * (2.0 ** math.floor(math.log2(1e308 / values.sum())))
        assert theil(scaled) == theil(values)


class TestRatioUnderflow:
    """A positive income whose ratio to the mean is below the normal range
    (subnormal, or 0 by underflow) is read by its log quotient where its term
    is not negligible, else as a zero income, and no warning is raised."""

    TINY = [1e-310, 1e308]
    ZERO = [0.0, 1e308]

    def test_theil(self):
        assert theil(self.TINY) == theil(self.ZERO) == pytest.approx(math.log(2), rel=1e-15)

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.2])
    def test_ge_where_zeros_are_defined(self, alpha):
        # the ratios are 0 and 2: GE = (2^(alpha - 1) - 1) / (alpha (alpha - 1))
        exact = (2.0 ** (alpha - 1.0) - 1.0) / (alpha * (alpha - 1.0))
        assert ge_index(self.TINY, alpha) == ge_index(self.ZERO, alpha)
        assert ge_index(self.TINY, alpha) == pytest.approx(exact, rel=1e-14)

    def test_ge_negative_order(self):
        # the ratio 2e-618 to the power -0.3 is 2e185: the log-space sum reads it
        ctx = Context(prec=40)
        tiny, big = (Decimal(v) for v in self.TINY)
        mean, alpha = (tiny + big) / 2, Decimal(-0.3)
        moment = (ctx.power(tiny / mean, alpha) + ctx.power(big / mean, alpha)) / 2
        exact = (moment - 1) / (alpha * (alpha - 1))
        assert ge_index(self.TINY, -0.3) == pytest.approx(float(exact), rel=1e-12)

    def test_atkinson_of_order_one(self):
        # ln(1e-320 / mean) is -748.35, not -inf: the index is about 0.526
        values = [1e-320] + [1e5] * 1000
        ctx = Context(prec=40)
        exact = [Decimal(v) for v in values]
        mean = sum(exact) / len(exact)
        log_mean = sum(ctx.ln(v / mean) for v in exact) / len(exact)
        assert atkinson(values, 1.0) == pytest.approx(float(1 - ctx.exp(log_mean)), rel=1e-14)

    def test_mld_of_an_overflowing_ratio(self):
        # ln(mean / 1e-320) is read as ln(mean) - ln(1e-320), not ln(inf)
        values = [1e-320, 1.0]
        ctx = Context(prec=40)
        exact = [Decimal(v) for v in values]
        mean = sum(exact) / len(exact)
        mld = sum(ctx.ln(mean / v) for v in exact) / len(exact)
        assert ge_zero(values) == pytest.approx(float(mld), rel=1e-14)

    @pytest.mark.parametrize(
        "values, alpha",
        [
            # the fallback read the quotient 1e-600 ** 1e-3 as 0 (GE 1987.17)
            ([1e-300, 1e300], -1e-3),
            ([1e-300, 1e300], -2e-9),
            # a small positive order read the ratio 2e-600 as a zero income
            ([1e-300, 1e300], 2e-9),
            ([1e-310] + [1e15] * 999, 0.01),
            # the ratio 1e-320 / 1.5 is subnormal: it kept a few bits for r^alpha
            ([1e-320, 1, 2, 3], -0.4),
            ([1e-320, 1, 2, 3], -1e-3),
        ],
    )
    def test_ge_of_a_small_order(self, values, alpha):
        assert ge_index(values, alpha) == pytest.approx(decimal_ge(values, alpha), rel=1e-9)

    def test_atkinson_of_a_small_order(self):
        values = [1e-310] + [1e15] * 999
        assert atkinson(values, 0.99) == pytest.approx(decimal_atkinson(values, 0.99), rel=1e-12)

    def test_subnormal_the_scale_rule_sets_to_zero(self):
        """Beside 1e308 the scale rule reads 5e-324 times 2**-8, which is 0:
        its log quotient is read from the unscaled value."""
        values = [5e-324, 1e308]
        with localcontext(Context(prec=60)):
            exact = [Decimal(v) for v in values]
            mean = sum(exact) / len(exact)
            mld = float(sum((mean / v).ln() for v in exact) / len(exact))
        assert ge_zero(values) == pytest.approx(mld, rel=1e-14)
        assert atkinson(values, 1.0) == 1.0

    def test_results_are_floats(self):
        for value in (theil([1, 3]), ge_index([1, 3], 0.7), ge_index([1, 3], 1.2)):
            assert type(value) is float


class TestNoBlas:
    """Theil and GE near alpha = 1 sum an in-place product, not np.dot, so no
    BLAS call (and no BLAS thread) is made and the result does not depend on
    the BLAS build or its thread count."""

    # Each term carries a few ulps and the sums of 2,000 terms lose a few more;
    # the index is far from the cancelling limit, so 1e-9 leaves a wide margin.
    REL = 1e-9

    def test_no_dot(self, monkeypatch):
        rng = np.random.default_rng(7)
        values = [0.0, 0.0, *rng.lognormal(0.0, 1.0, 2_000).tolist()]
        s = IncomeSample.from_values(values)
        mean = math.fsum(values) / len(values)
        ratios = [x / mean for x in values]

        def reference_ge(alpha):
            terms = [r**alpha for r in ratios]
            return math.fsum([*terms, -len(values)]) / len(values) / (alpha * (alpha - 1))

        reference_theil = math.fsum(r * math.log(r) for r in ratios if r > 0) / len(values)

        def no_dot(*args, **kwargs):
            raise AssertionError("numpy.dot called")

        monkeypatch.setattr(np, "dot", no_dot)
        assert theil(s) == pytest.approx(reference_theil, rel=self.REL)
        assert ge_index(s, 0.7) == pytest.approx(reference_ge(0.7), rel=self.REL)
        assert ge_index(s, 1.2) == pytest.approx(reference_ge(1.2), rel=self.REL)


EXTREME_SAMPLES = [[1e-300, 1e300], [5e-324, 1e308], [0.0, 5e-324], [1e-320, 1.0, 2.0, 3.0], [1e308] * 3, [0.0, 1.0]]
_EDGES = (LIMIT_WINDOW, 1.0 - LIMIT_WINDOW, 1.0 + LIMIT_WINDOW)
# 0, the smallest order, each window edge and one ulp outside it, the moment
# near 1 just outside the window of 1, and orders up to 1e300; both signs
_ORDERS = (
    5e-324, *_EDGES, *(math.nextafter(e, 2.0 * e) for e in _EDGES),
    1.0 - 2e-9, 1.0 + 2e-9, 0.5, 2.0, 50.0, 1e155, 1e300,
)
EXTREME_ORDERS = (0.0, *_ORDERS, *(-order for order in _ORDERS))


def value_in_range_or_typed_error(measure, upper: float) -> None:
    """``measure()`` is a float in [0, ``upper``] or raises an
    :class:`IneqError`; no other exception and no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = measure()
        except IneqError:
            return
    # -0.0 would print as -0.000000
    assert type(value) is float and 0.0 <= value <= upper and math.copysign(1.0, value) == 1.0, value


@pytest.mark.parametrize("values", EXTREME_SAMPLES, ids=repr)
@pytest.mark.parametrize("order", EXTREME_ORDERS, ids=repr)
def test_extreme_orders_give_a_value_or_a_typed_error(values, order):
    value_in_range_or_typed_error(lambda: atkinson(values, order), 1.0)
    value_in_range_or_typed_error(lambda: ge_index(values, order), sys.float_info.max)


@pytest.mark.parametrize("values", [[0.1] * 3, [1e308] * 3, [5.0] * 4], ids=repr)
@pytest.mark.parametrize(
    "order", [o for o in EXTREME_ORDERS if abs(o) > LIMIT_WINDOW and abs(o - 1.0) > LIMIT_WINDOW], ids=repr
)
def test_equal_incomes_at_any_order(values, order):
    """Each index read from the power moment of equal incomes is 0, although
    the mean of [0.1] * 3 rounds above 0.1, and a ratio of 1 - 2**-53 to the
    power 1e155 is 0; the repr also tells 0.0 from -0.0 (-0.000000)."""
    assert repr(ge_index(values, order)) == "0.0"
    if order >= 0.0:
        assert repr(atkinson(values, order)) == "0.0"


# Orders inside LIMIT_WINDOW of 0 and of 1, and the windows' edges
_IN_WINDOW = (
    -LIMIT_WINDOW, -1e-10, 0.0, 1e-10, LIMIT_WINDOW,
    1.0 - LIMIT_WINDOW, 1.0 - 1e-10, 1.0, 1.0 + 1e-10, 1.0 + LIMIT_WINDOW,
)


@pytest.mark.parametrize(
    "values", [[0.1] * 3, [0.1] * 6, [0.7] * 6, [1e300] * 7, [1e308] * 3, [5.0] * 4], ids=repr
)
def test_equal_incomes_inside_the_limit_windows(values):
    """Equal incomes read 0.0 from every reader of the limit windows, as
    from the power moment: the mean of [0.1] * 3 rounds above 0.1 and that
    of [0.1] * 6 below it, so each ln(mean / y) is one ulp from 0."""
    read = [ge_zero(values), theil(values)]
    for order in _IN_WINDOW:
        read.append(ge_index(values, order))
        if order >= 0.0:
            read.append(atkinson(values, order))
    assert [repr(value) for value in read] == ["0.0"] * len(read)


@pytest.mark.parametrize("values", EXTREME_SAMPLES, ids=repr)
def test_extreme_samples_give_a_value_or_a_typed_error(values):
    value_in_range_or_typed_error(lambda: theil(values), math.log(len(values)))
    value_in_range_or_typed_error(lambda: ge_zero(values), sys.float_info.max)


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
