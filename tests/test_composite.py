"""Composite index: transform, calibration, combination, and variants."""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ineqkit import (
    ArityError,
    CalibrationDomainError,
    DomainError,
    EmptyInputError,
    IncomeSample,
    alternative_index,
    b_over_t_from_t_over_b,
    bottom_share,
    calibrate_alpha,
    composite,
    generalized_composite,
    gini,
    h_transform,
    mean_alpha,
    ratio_b_over_t,
    top_share,
)

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestHTransform:
    def test_perfect_equality(self):
        assert h_transform(1.0, 0.25) == 0.0

    def test_zero_bottom(self):
        assert h_transform(0.0, 0.25) == 1.0

    def test_published_values(self):
        # reference rows round to 3 decimals within one unit in the last place
        assert h_transform(1 / 13.79, 0.25) == pytest.approx(0.481, abs=1e-3)
        assert h_transform(1 / 3.2, 0.25) == pytest.approx(0.252, abs=1e-3)

    def test_weight_domain(self):
        with pytest.raises(DomainError):
            h_transform(0.5, 0.0)
        with pytest.raises(DomainError):
            h_transform(0.5, 1.5)
        with pytest.raises(DomainError):
            h_transform(-0.1, 0.25)

    @given(unit_floats, st.floats(min_value=0.01, max_value=1.0))
    def test_bounded(self, ratio, weight):
        assert 0.0 <= h_transform(ratio, weight) <= 1.0


class TestCalibration:
    def test_hand_value(self):
        assert calibrate_alpha(0.36, 0.1) == pytest.approx(
            0.193820026016113, abs=1e-12
        )

    def test_round_trip(self):
        alpha = calibrate_alpha(0.42, 0.07)
        assert h_transform(0.07, alpha) == pytest.approx(0.42, abs=1e-12)

    @given(
        st.floats(min_value=0.05, max_value=0.9),
        st.floats(min_value=0.01, max_value=0.9),
    )
    def test_round_trip_property(self, g, r):
        alpha = calibrate_alpha(g, r)
        if alpha <= 1.0:  # h_transform only accepts weights in (0, 1]
            assert h_transform(r, alpha) == pytest.approx(g, abs=1e-12)

    def test_domain(self):
        for g, r in ((0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0), (-0.1, 0.5)):
            with pytest.raises(CalibrationDomainError):
                calibrate_alpha(g, r)


class TestMeanAlpha:
    def test_mean_of_two(self):
        assert mean_alpha([0.2, 0.28]) == pytest.approx(0.24, abs=1e-15)

    def test_identity(self):
        assert mean_alpha([0.25]) == 0.25

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            mean_alpha([])

    @pytest.mark.parametrize("alphas", [[math.nan, 1.0], [math.inf], [0.2, -math.inf]])
    def test_non_finite_rejected(self, alphas):
        with pytest.raises(DomainError, match="not finite"):
            mean_alpha(alphas)


class TestComposite:
    def test_greece_row(self):
        res = composite(0.360, 1 / 13.79)
        assert res.index_i == pytest.approx(0.425, abs=1e-3)
        assert res.h == pytest.approx(0.481, abs=1e-3)

    def test_malta_row(self):
        res = composite(0.294, 1 / 6.74)
        assert res.index_i == pytest.approx(0.339, abs=1e-3)

    def test_endpoints(self):
        assert composite(0.0, 1.0).index_i == 0.0
        assert composite(1.0, 0.0).index_i == 1.0

    def test_result_invariants(self):
        res = composite(0.4, 0.08, 0.3)
        assert res.h == pytest.approx(1 - 0.08 ** 0.3, abs=1e-12)
        assert res.index_i == pytest.approx(
            math.sqrt(res.gini ** 2 + res.h ** 2) / math.sqrt(2), abs=1e-12
        )

    def test_gini_domain(self):
        with pytest.raises(DomainError):
            composite(1.2, 0.5)
        with pytest.raises(DomainError):
            composite(-0.1, 0.5)

    def test_each_input_checked_once(self, monkeypatch):
        # the package's `composite` attribute is the function, not the module
        composite_module = importlib.import_module("ineqkit.composite")
        checked = []
        for name in ("_check_unit", "_check_weight"):
            real = getattr(composite_module, name)
            monkeypatch.setattr(
                composite_module, name, lambda *a, real=real: checked.append(a[0]) or real(*a)
            )
        composite(0.3, [0.1, 0.0], 0.5)
        assert checked == ["gini", "share ratio", 0.5]

    def test_first_bad_input_in_check_order(self):
        for args, message in (
            ((1.5, 2.0, 0.0), "gini"),
            ((0.3, 2.0, 0.0), "share ratio"),
            ((0.3, 0.2, 0.0), "weight"),
        ):
            with pytest.raises(DomainError, match=message):
                composite(*args)

    def test_shapes_that_do_not_broadcast(self):
        with pytest.raises(ArityError, match=r"shapes \(2,\) and \(3,\) do not broadcast"):
            composite([0.5, 0.4], [0.1, 0.2, 0.3])
        assert composite([0.5, 0.4], 0.3).index_i.shape == (2,)

    @given(unit_floats, unit_floats)
    def test_bounds(self, g, ratio):
        assert 0.0 <= composite(g, ratio).index_i <= 1.0

    def test_monotone_grid(self):
        # strictly increasing in gini, strictly decreasing in the ratio
        steps = [k / 99 for k in range(100)]
        for ratio in (0.0, 0.25, 0.5, 0.75, 1.0):
            values = [composite(g, ratio).index_i for g in steps]
            assert all(b > a for a, b in zip(values, values[1:]))
        for g in (0.0, 0.3, 0.7, 1.0):
            values = [composite(g, r).index_i for r in steps]
            assert all(b < a for a, b in zip(values, values[1:]))


# Ratios at the ends of the domain, and subnormal ones, whose T/B is +inf.
edge_ratios = st.one_of(unit_floats, st.sampled_from([0.0, 1.0, 5e-324, 1e-310, 2.2e-308]))


class TestArraysMatchScalars:
    """Arrays give, element by element, the bits of scalar calls."""

    @given(
        st.lists(st.tuples(unit_floats, edge_ratios), min_size=1, max_size=30),
        st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(0.01, 1.0)),
    )
    def test_composite_h_and_alternative_index(self, pairs, weight):
        gini = np.array([g for g, _ in pairs])
        ratio = np.array([r for _, r in pairs])
        with np.errstate(over="ignore"):
            t_over_b = np.divide(1.0, ratio, out=np.full(ratio.shape, math.inf), where=ratio != 0.0)
        res = composite(gini, ratio, weight)
        h = h_transform(ratio, weight)
        alt = alternative_index(gini, t_over_b)
        for k, (g, r) in enumerate(pairs):
            one = composite(g, r, weight)
            assert np.array([res.h[k], res.index_i[k], res.alt_index[k]]).tobytes() == (
                np.array([one.h, one.index_i, one.alt_index]).tobytes()
            )
            assert np.float64(h[k]).tobytes() == np.float64(h_transform(r, weight)).tobytes()
            scalar = alternative_index(g, t_over_b[k])
            assert np.float64(alt[k]).tobytes() == np.float64(scalar).tobytes()
            assert np.float64(res.alt_index[k]).tobytes() == np.float64(scalar).tobytes()


    @given(
        st.lists(st.tuples(unit_floats, edge_ratios), min_size=1, max_size=30),
        st.sampled_from([0.25, 0.5, 1.0]),
        st.integers(1, 7),
    )
    def test_slices_of_the_kernel(self, pairs, weight, rows):
        """Applied a slice of ``rows`` elements at a time, concatenated, the
        composite and its tail term give the bits of one pass over all."""
        gini = np.array([g for g, _ in pairs])
        ratio = np.array([r for _, r in pairs])
        whole = composite(gini, ratio, weight)
        slices = [slice(start, start + rows) for start in range(0, len(pairs), rows)]
        sliced = [composite(gini[s], ratio[s], weight) for s in slices]
        for name in ("h", "index_i", "alt_index"):
            joined = np.concatenate([getattr(res, name) for res in sliced])
            assert joined.tobytes() == getattr(whole, name).tobytes()
        h = np.concatenate([h_transform(ratio[s], weight) for s in slices])
        assert h.tobytes() == whole.h.tobytes()


class TestRatioOrientation:
    def test_reciprocal(self):
        assert b_over_t_from_t_over_b(4.0) == 0.25

    def test_infinite_maps_to_zero(self):
        assert b_over_t_from_t_over_b(math.inf) == 0.0

    def test_below_one_rejected(self):
        with pytest.raises(DomainError):
            b_over_t_from_t_over_b(0.8)

    def test_array(self):
        got = b_over_t_from_t_over_b(np.array([4.0, math.inf, 1.0]))
        assert got.tolist() == [0.25, 0.0, 1.0]
        with pytest.raises(DomainError, match="ratio nan must be >= 1"):
            b_over_t_from_t_over_b(np.array([4.0, math.nan, 0.5]))


class TestGeneralizedComposite:
    def test_single_ratio_reduces(self):
        for g, r, w in ((0.3, 0.1, 0.25), (0.5, 0.02, 0.4), (0.0, 1.0, 0.25)):
            assert generalized_composite(g, [(10, r)], [w]) == pytest.approx(
                composite(g, r, w).index_i, abs=1e-12
            )

    def test_all_equal_ratios(self):
        # every tail term vanishes, leaving gini / sqrt(N + 1)
        g = 0.42
        ratios = [(x, 1.0) for x in (10, 20, 30, 40, 50)]
        expected = g / math.sqrt(6)
        assert generalized_composite(g, ratios, [0.25] * 5) == pytest.approx(
            expected, abs=1e-12
        )

    def test_five_ratio_oracle(self):
        # frozen from a straight-line evaluation over the interpolated shares
        # of 1..10: ratios 1/10, 3/19, 2/9, 5/17, 3/8 and gini 0.3
        s = IncomeSample.from_values(range(1, 11))
        g = gini(s)
        ratios = [(x, ratio_b_over_t(s, x)) for x in (10, 20, 30, 40, 50)]
        value = generalized_composite(g, ratios, [0.25] * 5)
        assert value == pytest.approx(0.324848641497928, abs=1e-12)
        assert ratios[0][1] == pytest.approx(0.1, abs=1e-12)
        assert ratios[4][1] == pytest.approx(0.375, abs=1e-12)

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            generalized_composite(0.3, [(10, 0.1), (20, 0.2)], [0.25])

    def test_empty_ratios(self):
        with pytest.raises(EmptyInputError):
            generalized_composite(0.3, [], [])

    def test_duplicate_cut(self):
        with pytest.raises(DomainError):
            generalized_composite(0.3, [(10, 0.1), (10, 0.2)], [0.25, 0.25])

    def test_cut_out_of_range(self):
        with pytest.raises(DomainError):
            generalized_composite(0.3, [(60, 0.1)], [0.25])


class TestAlternativeIndex:
    def test_perfect_equality(self):
        assert alternative_index(0.0, 1.0) == pytest.approx(0.01, abs=1e-15)

    def test_hand_value(self):
        assert alternative_index(0.360, 13.79) == pytest.approx(
            0.385507989541073, abs=1e-12
        )

    def test_infinite(self):
        assert alternative_index(1.0, math.inf) == math.inf

    def test_shapes_that_do_not_broadcast(self):
        with pytest.raises(ArityError):
            alternative_index([0.5, 0.4], [2.0, 3.0, 4.0])
        assert alternative_index(0.5, [2.0, 3.0]).shape == (2,)

    def test_carried_on_composite_result(self):
        res = composite(0.360, 1 / 13.79)
        assert res.alt_index == pytest.approx(0.385507989541073, abs=1e-9)
        assert composite(0.5, 0.0).alt_index == math.inf
