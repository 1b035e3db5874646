"""Micro-data measures: examples with independent oracles, then properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ineqkit import (
    DegenerateSampleError,
    DivisionByZeroShareError,
    DomainError,
    EmptyInputError,
    IncomeSample,
    LorenzCurve,
    QuantileShares,
    bottom_share,
    gini,
    lorenz_curve,
    palma_ratio,
    ratio_b_over_t,
    top_share,
)


def pairwise_gini(values):
    """Independent oracle: mean absolute difference over twice the mean."""
    v = np.asarray(values, dtype=float)
    n = v.size
    return float(np.abs(v[:, None] - v[None, :]).sum() / (2.0 * n * n * v.mean()))


def rank_gini(values):
    """Independent oracle, exactly summed: sum_i (2i - n - 1) y_(i) over
    n * sum(y), with y_(1) <= ... <= y_(n)."""
    y = sorted(float(v) for v in values)
    n = len(y)
    weighted = math.fsum((2 * i - n - 1) * v for i, v in enumerate(y, 1))
    return weighted / (n * math.fsum(y))


def _drawn_values(seed_and_n):
    """Lognormal incomes rounded to 0.1, so that ties and zeros occur."""
    seed, n = seed_and_n
    return np.floor(np.random.default_rng(seed).lognormal(0.0, 1.5, n) * 10.0) / 10.0


# Strategy notes: zeros are legal, but positive elements stay >= 1e-6 so that
# scale factors cannot push values into subnormal territory where the 1e-12
# invariance tolerances stop being meaningful.
elements = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
)
value_lists = st.lists(elements, min_size=1, max_size=60).filter(
    lambda xs: sum(xs) > 0
)
samples = value_lists.map(IncomeSample.from_values)
# Seeded samples of up to 20k values, past the reach of the pairwise oracle.
large_samples = (
    st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 20_000))
    .map(_drawn_values)
    .filter(lambda v: v.sum() > 0)
    .map(IncomeSample.from_values)
)
positive_samples = st.lists(
    st.floats(min_value=1e-3, max_value=1e5, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=60,
).map(IncomeSample.from_values)


class TestIncomeSample:
    def test_sorts_input(self):
        s = IncomeSample.from_values([3, 1, 2])
        assert s.values.tolist() == [1.0, 2.0, 3.0]
        assert s.n == 3
        assert s.total == 6.0

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateSampleError):
            IncomeSample.from_values([0.0, 0.0])

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            IncomeSample.from_values([1.0, -0.5])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            IncomeSample.from_values([])

    def test_unsorted_direct_construction_rejected(self):
        with pytest.raises(DomainError):
            IncomeSample(np.array([2.0, 1.0]))

    def test_values_immutable(self):
        s = IncomeSample.from_values([1, 2])
        with pytest.raises(ValueError):
            s.values[0] = 5.0

    def test_caller_array_is_not_shared(self):
        # a sample keeps its own copy of an array its caller can still write
        values = np.array([1.0, 2.0, 3.0])
        view = values[:]
        view.flags.writeable = False
        for arr in (values, view):
            s = IncomeSample(arr)
            values[0] = 0.5
            assert s.values.tolist() == [1.0, 2.0, 3.0]
            values[0] = 1.0
        s = IncomeSample.from_values(values)
        values[0] = 9.0
        assert s.values.tolist() == [1.0, 2.0, 3.0]
        p, L = np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.25, 1.0])
        curve = LorenzCurve(p, L)
        p[1], L[1] = 0.6, 0.3
        assert curve.points == [(0.0, 0.0), (0.5, 0.25), (1.0, 1.0)]

    def test_overflowing_total_rejected(self):
        # each value is finite, their sum is not
        with pytest.raises(DomainError, match="sample total overflows"):
            IncomeSample.from_values([1e308] * 3)
        with pytest.raises(DomainError, match="sample total overflows"):
            gini([1e308] * 3)


class TestLorenzCurve:
    def test_equal_sample_is_diagonal(self):
        curve = lorenz_curve([5, 5])
        assert curve.points == [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)]

    def test_single_holder(self):
        curve = lorenz_curve([0, 1])
        assert curve.points == [(0.0, 0.0), (0.5, 0.0), (1.0, 1.0)]

    def test_hand_cumulative_sums(self):
        # cumulative sums of [1,2,3,4] over total 10
        curve = lorenz_curve([1, 2, 3, 4])
        expected = [(0.0, 0.0), (0.25, 0.1), (0.5, 0.3), (0.75, 0.6), (1.0, 1.0)]
        for (p, L), (ep, eL) in zip(curve.points, expected):
            assert p == pytest.approx(ep, abs=1e-15)
            assert L == pytest.approx(eL, abs=1e-15)

    @given(samples)
    def test_invariants(self, s):
        curve = lorenz_curve(s)
        assert curve.p[0] == 0.0 and curve.L[0] == 0.0
        assert curve.p[-1] == 1.0 and curve.L[-1] == 1.0
        assert np.all(np.diff(curve.p) > 0)
        assert np.all(np.diff(curve.L) >= -1e-12)
        assert np.all(curve.L <= curve.p + 1e-12)
        slopes = np.diff(curve.L) / np.diff(curve.p)
        assert np.all(np.diff(slopes) >= -1e-9)

    @given(st.one_of(samples, large_samples))
    def test_matches_reference_arithmetic(self, s):
        # the curve is built in place, with the bits of the plain formula
        cum = np.cumsum(s.values)
        L = np.concatenate(([0.0], cum / cum[-1]))
        L[-1] = 1.0
        curve = lorenz_curve(s)
        assert curve.p.tobytes() == (np.arange(s.n + 1) / s.n).tobytes()
        assert curve.L.tobytes() == L.tobytes()

    @given(st.one_of(samples, large_samples), st.data())
    def test_value_at_matches_interp(self, s, data):
        curve = lorenz_curve(s)
        on_grid = st.integers(0, s.n).map(lambda k: k / s.n)
        shares = data.draw(st.lists(st.one_of(on_grid, st.floats(0.0, 1.0)), max_size=12))
        expected = np.interp(shares, np.array(curve.p), np.array(curve.L))
        assert curve.value_at(shares).tobytes() == expected.tobytes()
        for x, e in zip(shares, expected):
            value = curve.value_at(x)
            assert type(value) is float and value == e

    def test_large_sample_passes_convexity_check(self):
        # Chord-slope rounding error grows like eps * n on an even grid, so a
        # fixed 1e-9 slack would reject this convex curve at n = 2e6.
        rng = np.random.default_rng(20151)
        n = 2_000_000
        bulk = rng.lognormal(mean=10.0, sigma=0.7, size=n - n // 10)
        tail = np.exp(10.9) * (1.0 + rng.pareto(2.0, size=n // 10))
        values = np.rint(np.concatenate((bulk, tail)) * 100.0) / 100.0
        assert 0.4 < gini(values) < 0.5

    def test_real_slope_drop_still_rejected(self):
        n = 1_000_000
        p = np.arange(n + 1) / n
        slopes = 1.0 + (np.arange(n) - n / 2) * 1e-7

        def curve(s):
            L = np.concatenate(([0.0], np.cumsum(s) / s.sum()))
            L[-1] = 1.0
            return LorenzCurve(p, L)

        curve(slopes)  # convex: accepted
        slopes[n // 2] = slopes[n // 2 - 1] - 1e-6
        with pytest.raises(DomainError, match="convex"):
            curve(slopes)


class TestGini:
    def test_equality_line(self):
        assert gini([7, 7, 7]) == pytest.approx(0.0, abs=1e-15)

    def test_two_person_extreme(self):
        assert gini([0, 1]) == pytest.approx(0.5, abs=1e-12)

    def test_small_sample(self):
        # pairwise oracle: 20 / (2 * 16 * 2.5)
        assert gini([1, 2, 3, 4]) == pytest.approx(0.25, abs=1e-12)
        assert pairwise_gini([1, 2, 3, 4]) == pytest.approx(0.25, abs=1e-15)

    @given(samples)
    def test_matches_pairwise_oracle(self, s):
        assert gini(s) == pytest.approx(pairwise_gini(s.values), abs=1e-10)

    @given(st.one_of(samples, large_samples))
    def test_matches_exact_rank_oracle(self, s):
        assert gini(s) == pytest.approx(rank_gini(s.values), abs=1e-12)

    @given(samples)
    def test_bounds(self, s):
        g = gini(s)
        assert -1e-12 <= g <= 1.0 - 1.0 / s.n + 1e-12

    @given(samples, st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, s, c):
        assert gini(IncomeSample.from_values(s.values * c)) == pytest.approx(
            gini(s), abs=1e-12
        )

    @given(samples, st.integers(min_value=2, max_value=5))
    def test_replication_invariance(self, s, k):
        replicated = IncomeSample.from_values(np.tile(s.values, k))
        assert gini(replicated) == pytest.approx(gini(s), abs=1e-12)

    @given(positive_samples, st.data())
    def test_pigou_dalton(self, s, data):
        v = s.values.copy()
        if v[-1] <= v[0]:
            return  # nothing to transfer
        i = int(np.argmin(v))
        j = int(np.argmax(v))
        frac = data.draw(st.floats(min_value=0.01, max_value=1.0))
        delta = frac * (v[j] - v[i]) / 2.0
        v[i] += delta
        v[j] -= delta
        assert gini(IncomeSample.from_values(v)) <= gini(s) + 1e-12


class TestShares:
    def test_equal_sample_decile(self):
        assert bottom_share([1] * 10, 10) == pytest.approx(0.10, abs=1e-15)

    def test_poorest_half_owns_nothing(self):
        assert bottom_share([0, 1], 50) == 0.0

    def test_interpolated_point(self):
        assert bottom_share([1, 2, 3, 4], 25) == pytest.approx(0.10, abs=1e-12)

    def test_fractional_split(self):
        # 10% of a 4-person sample splits the poorest observation: 0.4 * 0.1
        assert bottom_share([1, 2, 3, 4], 10) == pytest.approx(0.04, abs=1e-12)

    def test_domain(self):
        for bad in (0, -5, 50.001, 60):
            with pytest.raises(DomainError):
                bottom_share([1, 2], bad)
            with pytest.raises(DomainError):
                top_share([1, 2], bad)

    @pytest.mark.parametrize("cut", [1e-15, 1e-17, 5e-324])
    def test_cut_too_small_for_the_top_share(self, cut):
        # 1 - cut/100 rounds to 1, so the top share would read 0
        with pytest.raises(DomainError, match="too small"):
            bottom_share([1, 2, 3], cut)
        with pytest.raises(DomainError, match="too small"):
            lorenz_curve([1, 2, 3]).tail_shares([10, cut])

    @given(samples, st.floats(min_value=0.01, max_value=50.0))
    def test_halves_sum_to_one(self, s, x):
        assert bottom_share(s, 50) + top_share(s, 50) == pytest.approx(1.0, abs=1e-12)
        assert bottom_share(s, x) <= top_share(s, x) + 1e-12

    @given(samples, st.floats(min_value=0.01, max_value=50.0), st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, s, x, c):
        scaled = IncomeSample.from_values(s.values * c)
        assert bottom_share(scaled, x) == pytest.approx(bottom_share(s, x), abs=1e-12)
        assert top_share(scaled, x) == pytest.approx(top_share(s, x), abs=1e-12)
        assert ratio_b_over_t(scaled, x) == pytest.approx(
            ratio_b_over_t(s, x), abs=1e-12
        )


class TestRatioBOverT:
    def test_equal_sample(self):
        assert ratio_b_over_t([4, 4, 4], 30) == pytest.approx(1.0, abs=1e-12)

    def test_zero_bottom(self):
        assert ratio_b_over_t([0] * 9 + [1], 10) == 0.0

    def test_quarter(self):
        assert ratio_b_over_t([1, 2, 3, 4], 25) == pytest.approx(0.25, abs=1e-12)

    @given(samples, st.floats(min_value=0.01, max_value=50.0))
    def test_never_exceeds_one(self, s, x):
        assert 0.0 <= ratio_b_over_t(s, x) <= 1.0 + 1e-12


class TestPalma:
    def test_equal_sample_lower_bound(self):
        assert palma_ratio([3] * 10) == pytest.approx(0.25, abs=1e-12)

    def test_one_to_ten(self):
        # top decile 10/55 over bottom 40% (1+2+3+4)/55
        assert palma_ratio(range(1, 11)) == pytest.approx(1.0, abs=1e-12)

    def test_single_zero(self):
        # bottom 40% = 3/9, top 10% = 1/9
        assert palma_ratio([0] + [1] * 9) == pytest.approx(1 / 3, abs=1e-12)

    def test_zero_bottom_forty(self):
        with pytest.raises(DivisionByZeroShareError):
            palma_ratio([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])


class TestQuantileShares:
    def test_matches_functions(self):
        s = IncomeSample.from_values([1, 2, 3, 4, 10])
        q = QuantileShares.from_sample(s)
        for x in (10, 25, 40, 50):
            assert q.bottom(x) == bottom_share(s, x)
            assert q.top(x) == top_share(s, x)
            assert q.b_over_t(x) == ratio_b_over_t(s, x)
