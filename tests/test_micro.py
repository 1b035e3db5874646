"""Micro-data measures: examples with independent oracles, then properties."""

import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ineqkit import (
    DegenerateSampleError,
    DivisionByZeroShareError,
    DomainError,
    EmptyInputError,
    IncomeSample,
    IneqError,
    LorenzCurve,
    atkinson,
    bottom_share,
    ge_index,
    ge_zero,
    gini,
    lorenz_curve,
    palma_ratio,
    ratio_b_over_t,
    read_sample,
    theil,
    top_share,
)
from ineqkit.micro import _BLOCK


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

    @pytest.mark.parametrize(
        "values, message",
        [
            (np.ones((2, 2)), "sample values must be one-dimensional"),
            (np.array([1.0, math.nan]), "sample values must be finite"),
            (np.array([1.0, math.inf]), "sample values must be finite"),
        ],
    )
    def test_shape_and_finiteness_rejected(self, values, message):
        for build in (IncomeSample, IncomeSample.from_values):
            with pytest.raises(DomainError) as exc:
                build(values)
            assert str(exc.value) == message

    @pytest.mark.parametrize(
        "values, message",
        [
            ([1.0, math.nan], "sample values must be finite"),
            ([math.nan, -1.0], "sample values must be finite"),
            ([-math.inf, 1.0], "sample values must be finite"),
            ([math.inf], "sample values must be finite"),
            ([-1.0, 2.0], "sample values must be non-negative"),
        ],
    )
    def test_sorted_values_checked_at_their_ends(self, values, message):
        """After its sort, from_values reads only the two end values for a
        non-finite one, still before the sign."""
        with pytest.raises(DomainError) as exc:
            IncomeSample.from_values(values)
        assert (type(exc.value), str(exc.value)) == (DomainError, message)

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

    def test_from_values_never_changes_the_callers_array(self):
        """An array is copied before it is sorted, a read-only one too."""
        values = np.array([3.0, 1.0, 2.0])
        s = IncomeSample.from_values(values)
        assert values.tolist() == [3.0, 1.0, 2.0] and values.flags.writeable
        assert s.values.tolist() == [1.0, 2.0, 3.0] and not np.shares_memory(s.values, values)
        frozen = np.array([3.0, 1.0, 2.0])
        frozen.flags.writeable = False
        s = IncomeSample.from_values(frozen)
        assert frozen.tolist() == [3.0, 1.0, 2.0] and s.values.tolist() == [1.0, 2.0, 3.0]
        # a read-only view could still change through its base: copied
        base = np.array([1.0, 2.0, 3.0])
        view = base[:]
        view.flags.writeable = False
        s = IncomeSample.from_values(view)
        base[0] = 9.0
        assert s.values.tolist() == [1.0, 2.0, 3.0]

    def test_order_checked_once(self, monkeypatch):
        """from_values does not check the order its own sort made; the
        constructor checks the order it is given, once."""
        real = np.any
        for make, expected in ((IncomeSample.from_values, 0), (IncomeSample, 1)):
            checks = []
            monkeypatch.setattr(np, "any", lambda *a, **k: checks.append(1) or real(*a, **k))
            make(np.array([1.0, 2.0, 3.0]))
            monkeypatch.undo()
            assert len(checks) == expected

    def test_overflowing_total_measured(self):
        # each value is finite, their sum is not: only the total refuses
        s = IncomeSample.from_values([1e308] * 3)
        assert gini(s) == 0.0
        assert s.mean == 1e308
        with pytest.raises(DomainError, match="sample total overflows"):
            s.total


def _measures(sample):
    """Every scale-free measure of a sample, or the type of error it raises."""
    curve = lorenz_curve(sample)

    def read(measure):
        try:
            return measure()
        except IneqError as exc:
            return type(exc)

    return {
        "gini": curve.gini(),
        "deciles": curve.value_at(np.arange(11) / 10.0).tolist(),
        "tails": [a.tolist() for a in curve.tail_shares((0.5, 10.0, 40.0, 50.0))],
        "palma": read(curve.palma),
        **{f"atkinson({e})": atkinson(sample, e) for e in (0.0, 0.5, 1.0, 3.0)},
        "mld": read(lambda: ge_zero(sample)),
        "theil": theil(sample),
        **{f"ge({a})": read(lambda: ge_index(sample, a)) for a in (-1.0, -0.3, 0.3, 0.7, 1.2, 2.0, 3.0)},
    }


@st.composite
def power_of_two_scales(draw):
    """Values and a k that keeps their positive values normal and finite
    when scaled by 2**k."""
    values = draw(value_lists)
    positive = [v for v in values if v > 0]
    low = -1021 - math.frexp(min(positive))[1]
    high = 1024 - math.frexp(max(positive))[1]
    return values, draw(st.integers(low, high))


class TestPowerOfTwoScale:
    """Each measure reads the sample times an exact power of two, so scaling
    the values by one changes no bit of a scale-free measure: not where the
    total passes the float range, nor near the smallest normal value."""

    @given(power_of_two_scales())
    @example(([1.0, 1.5, 1.0], 1023))
    @example(([1.0] * 99 + [1000.0], 1012))
    @example(([1.0, 1.0001], -1022))
    @example(([0.0, 1.0, 1.0, 1.0, 1.5], -1022))
    def test_measures_keep_their_bits(self, values_and_k):
        values, k = values_and_k
        plain = IncomeSample.from_values(values)
        scaled = IncomeSample.from_values(np.ldexp(values, k))
        assert _measures(scaled) == _measures(plain)
        assert scaled.mean == math.ldexp(plain.mean, k)
        try:
            total = math.ldexp(plain.total, k)
        except OverflowError:
            with pytest.raises(DomainError, match="sample total overflows"):
                scaled.total
        else:
            assert scaled.total == total

    def test_tiny_sample_is_lifted(self):
        # subnormal values scale up exactly: the measures are those of 1, 2, 3
        tiny = IncomeSample.from_values(np.ldexp([1.0, 2.0, 3.0], -1070))
        assert _measures(tiny) == _measures(IncomeSample.from_values([1.0, 2.0, 3.0]))


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

    @pytest.mark.parametrize(
        "p, L, message",
        [
            ([0, 1], [0, 0.5, 1], "curve needs matching 1-d arrays of >= 2 points"),
            ([0], [0], "curve needs matching 1-d arrays of >= 2 points"),
            ([[0, 1]], [[0, 1]], "curve needs matching 1-d arrays of >= 2 points"),
            ([0, 1], [0, 0.9], "curve must run from (0, 0) to (1, 1)"),
            ([0.1, 1], [0, 1], "curve must run from (0, 0) to (1, 1)"),
            ([0, 0.5, 0.5, 1], [0, 0.2, 0.2, 1], "population shares must be strictly increasing"),
            ([0, 0.5, 0.75, 1], [0, 0.3, 0.2, 1], "income shares must be non-decreasing"),
            ([0, 0.5, 1], [0, 0.6, 1], "curve must lie on or below the diagonal"),
            ([0, 0.25, 0.5, 1], [0, 0.2, 0.25, 1], "curve must be convex (non-decreasing slopes)"),
        ],
    )
    def test_each_invariant_is_checked(self, p, L, message):
        with pytest.raises(DomainError) as exc:
            LorenzCurve(p, L)
        assert str(exc.value) == message

    @pytest.mark.parametrize("share", [-0.1, 1.5, math.nan, [0.5, 2.0]])
    def test_value_at_outside_unit_interval(self, share):
        with pytest.raises(DomainError) as exc:
            lorenz_curve([1, 2]).value_at(share)
        assert str(exc.value) == f"population share {share!r} outside [0, 1]"

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


def _grid_shares(n):
    """Each k/n and the doubles next to it, inside [0, 1]."""
    grid = np.arange(n + 1) / n
    shares = np.concatenate((grid, np.nextafter(grid, -1.0), np.nextafter(grid, 2.0)))
    return shares[(0.0 <= shares) & (shares <= 1.0)]


class TestSampleBuiltCurve:
    """A curve built from a sample stores only L; p = k/n is implicit."""

    @staticmethod
    def direct(curve):
        return LorenzCurve(np.arange(curve.L.size) / (curve.L.size - 1), np.array(curve.L))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 49, 100, 1000])
    def test_reads_match_a_directly_built_curve_on_grid_points(self, n):
        s = IncomeSample.from_values(_drawn_values((n, n)) + 0.1)
        curve = lorenz_curve(s)
        direct = self.direct(curve)
        shares = _grid_shares(n)
        assert curve.value_at(shares).tobytes() == direct.value_at(shares).tobytes()
        cuts = 100.0 * shares[(0.0 < shares) & (shares <= 0.5)]
        cuts = np.concatenate((cuts, 100.0 - 100.0 * shares[(0.5 <= shares) & (shares < 1.0)]))
        cuts = cuts[1.0 - cuts / 100.0 < 1.0]  # a smaller cut is rejected
        for got, want in zip(curve.tail_shares(cuts), direct.tail_shares(cuts)):
            assert got.tobytes() == want.tobytes()
        assert curve.palma() == direct.palma()
        assert curve.gini() == pytest.approx(direct.gini(), abs=1e-15)

    @settings(max_examples=200)
    @given(st.one_of(samples, large_samples), st.data())
    def test_reads_match_a_directly_built_curve(self, s, data):
        curve = lorenz_curve(s)
        direct = self.direct(curve)
        on_grid = st.integers(0, s.n).map(lambda k: k / s.n)
        shares = np.array(data.draw(st.lists(st.one_of(on_grid, st.floats(0.0, 1.0)), max_size=12)))
        cuts = np.array(data.draw(st.lists(st.floats(0.01, 50.0), min_size=1, max_size=6)))
        assert curve.value_at(shares).tobytes() == direct.value_at(shares).tobytes()
        for got, want in zip(curve.tail_shares(cuts), direct.tail_shares(cuts)):
            assert got.tobytes() == want.tobytes()
        if curve.value_at(0.4) > 0:
            assert curve.palma() == direct.palma()
        assert curve.gini() == pytest.approx(direct.gini(), abs=1e-15)
        assert curve.p.tobytes() == direct.p.tobytes()

    def test_running_total_past_the_float_range(self):
        # The sample's total is finite, but not the running sum of its values.
        v = np.sort(np.random.default_rng(5).random(35))
        v = v / v.sum() * np.finfo(float).max
        with np.errstate(over="ignore"):
            assert np.isfinite(v.sum()) and np.isinf(np.cumsum(v)[-1])
        curve = lorenz_curve(v)
        # halving the values is exact and leaves every share as it is
        assert curve.L.tobytes() == lorenz_curve(v * 0.5).L.tobytes()
        assert curve.gini() == pytest.approx(rank_gini(v / 1024.0), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
    @pytest.mark.parametrize("top", [None, np.finfo(float).max, 2.0**-1000], ids=["plain", "huge", "tiny"])
    def test_blocked_sums_keep_the_bits_of_one_cumsum(self, n, top):
        v = _drawn_values((n, n)) + 0.1
        s = IncomeSample.from_values(v if top is None else v / v.max() * top)
        # the scale rule divides by 2**k, k != 0, at either end of the float range
        assert (s._scale != 0) == (top is not None)
        # the construction of a whole L: cumsum, then divide, then L[-1] = 1
        L = np.empty(n + 1)
        L[0] = 0.0
        np.cumsum(s.values * 2.0**-s._scale, out=L[1:])
        L[1:] /= L[-1]
        L[-1] = 1.0
        curve = lorenz_curve(s)
        assert curve.L.tobytes() == L.tobytes()
        # the blocked reads against a curve that holds that L, within the
        # tolerance of tests/test_exact_reference.py
        direct = LorenzCurve(np.arange(n + 1) / n, L)
        close = {"rel": 1e-9, "abs": n * 2.0**-52}
        assert curve.gini() == pytest.approx(direct.gini(), **close)
        cuts = (0.01, 10.0, 33.3, 50.0)
        for got, want in zip(curve.tail_shares(cuts), direct.tail_shares(cuts)):
            np.testing.assert_allclose(got, want, rtol=close["rel"], atol=close["abs"])

    def test_right_end_reads_one(self):
        # the segment's interpolation formula reads 0.9999999999999998 here
        assert lorenz_curve([2.3, 9.1, 1.5]).value_at(1.0) == 1.0

    def test_fields_cannot_be_assigned(self):
        curve = lorenz_curve([1, 2, 3])
        for name, value in (("L", np.zeros(4)), ("p", np.zeros(4))):
            with pytest.raises(AttributeError):
                setattr(curve, name, value)
        with pytest.raises(ValueError):
            curve.p[1] = 0.5

    @pytest.mark.parametrize("n", [200_000, 800_000])
    def test_memory_stays_within_a_few_blocks(self, n):
        # From the curve through every Lorenz and welfare measure, the sample
        # is the only array of n floats: the traced peak is a few blocks, under
        # the same bound at both sizes (the sample alone is 3.05 and 12.2).
        s = IncomeSample.from_values(_drawn_values((7, n)) + 1.0)
        # a tiny income overflows the direct power sums: the log-space fallback
        tiny = IncomeSample(np.concatenate(([1e-155], s.values[1:])))
        tracemalloc.start()
        try:
            curve = lorenz_curve(s)
            curve.gini()
            curve.value_at(np.arange(11) / 10.0)
            curve.tail_shares((10, 20, 30, 40, 50))
            curve.palma()
            for eps in (0.5, 1.0, 2.0):
                atkinson(s, eps)
            for alpha in (-1.0, 0.3, 0.7, 2.0):
                ge_index(s, alpha)
            theil(s)
            ge_zero(s)
            atkinson(tiny, 3.0)
            ge_index(tiny, -2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * _BLOCK


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

    def test_small_cut_top_share_keeps_its_digits(self):
        # 1 - L(1 - x/100) cancelled here and read 1.554e-15
        assert top_share([1, 2, 3], 1e-13) == pytest.approx(1.5e-15, rel=1e-12, abs=0)

    @given(samples, st.floats(min_value=0.01, max_value=50.0), st.floats(min_value=1e-3, max_value=1e3))
    @example(IncomeSample.from_values([961809.0, 999994.0]), 0.01, 1.001)
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


def test_micro_imports_no_panel_or_cli_code():
    """`ineqkit.micro` reads a sample file with none of the panel commands'
    code: no ``cli``, ``panel``, ``ranking`` or ``_fork``, no ``pickle``
    or ``csv``, at module level or inside a function."""
    source = Path(__file__).resolve().parents[1] / "src" / "ineqkit" / "micro.py"
    imported = set()
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # a relative import is from the package; `from . import cli` names a module of it
            module = ".".join(filter(None, ["ineqkit" if node.level else "", node.module]))
            imported.update([module, *(f"{module}.{alias.name}" for alias in node.names)])
    forbidden = ("ineqkit.cli", "ineqkit.panel", "ineqkit.ranking", "ineqkit._fork", "pickle", "csv")
    assert {"numpy", "ineqkit.errors"} <= imported
    assert [name for name in sorted(imported) if any(name == f or name.startswith(f + ".") for f in forbidden)] == []


def test_read_sample_reports_bytes_that_are_not_utf8_as_a_domain_error(tmp_path):
    """Bytes the per-line parse cannot decode are an :class:`IneqError`
    carrying the decoder's message."""
    path = tmp_path / "values.txt.gz"
    path.write_bytes(b"1\n2\n\xff3\n")
    with pytest.raises(DomainError) as info:
        read_sample(str(path))
    assert isinstance(info.value, IneqError)
    assert str(info.value) == "'utf-8' codec can't decode byte 0xff in position 4: invalid start byte"


@pytest.mark.parametrize("name", ["values.txt", "values.txt.gz"])
def test_read_sample_reports_a_bad_line_as_a_domain_error(tmp_path, name):
    """An unparseable line is an :class:`IneqError` carrying the path and the
    1-based line number, whichever parse took the file (a ``.gz`` name takes
    the per-line one)."""
    path = tmp_path / name
    path.write_text("1\n\nbanana\n")
    with pytest.raises(DomainError) as info:
        read_sample(str(path))
    assert str(info.value) == f"{path}:3: could not convert string to float: 'banana'"
