"""The micro and welfare measures against exact references, on small
positive-integer samples: ``fractions`` for the Gini, the tail shares and
the Palma ratio, and ``decimal`` at 60 digits for the power means and logs.

Each measure is within a relative 1e-9 of its reference.  Two allowances
are added to that, each the size of a known, documented error:

- an absolute n * 2**-52 (n ulps of 1): where the values are nearly
  equal, an index is a small difference of sums of ratios near 1, and the
  rounding of those ratios is all that is left of it;
- inside ``LIMIT_WINDOW`` of a removable singularity the library returns
  the closed-form limit, so it may be off by as much as the limit is.
"""

import math
import warnings
from decimal import Context, Decimal, localcontext
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ineqkit import IncomeSample, atkinson, ge_index, ge_zero, lorenz_curve, theil
from ineqkit.welfare import LIMIT_WINDOW

CUTS = (10.0, 20.0, 40.0, 50.0)
DIGITS = Context(prec=60)
samples = st.lists(st.integers(1, 10**9), min_size=2, max_size=40)


def lorenz_at(values, p: Fraction) -> Fraction:
    """L(p) of the sorted ``values``: linear between the points (k/n, L_k)."""
    n = len(values)
    k = math.floor(p * n)
    below = sum(values[:k]) + (p * n - k) * (values[k] if k < n else 0)
    return below / Fraction(sum(values))


def exact_lorenz(values) -> dict:
    """The Gini, the bottom and top shares and B/T at each of ``CUTS``, and
    the Palma ratio of the sorted ``values``, as fractions."""
    n, total = len(values), sum(values)
    # 1 - 2 * area under the curve, the area summed by parts
    gini = Fraction(2 * sum(i * v for i, v in enumerate(values, 1)), n * total) - Fraction(n + 1, n)
    bottom = [lorenz_at(values, Fraction(int(x), 100)) for x in CUTS]
    top = [1 - lorenz_at(values, 1 - Fraction(int(x), 100)) for x in CUTS]
    ratio = [b / t for b, t in zip(bottom, top)]
    return {"gini": gini, "bottom": bottom, "top": top, "ratio": ratio, "palma": top[0] / bottom[2]}


def expm1(z: Decimal) -> Decimal:
    """exp(z) - 1 at the context's precision, by its series where z is small."""
    if abs(z) > Decimal("0.1"):
        return z.exp() - 1
    term = total = z
    k = 1
    while term and abs(term) > abs(total) * Decimal("1e-70"):
        k += 1
        term = term * z / k
        total += term
    return total


def log1p(d: Decimal) -> Decimal:
    """ln(1 + d) at the context's precision, by its series where d is small."""
    if abs(d) > Decimal("0.1"):
        return (1 + d).ln()
    term = total = d
    k = 1
    while term and abs(term / k) > abs(total) * Decimal("1e-70"):
        term = -term * d
        k += 1
        total += term / k
    return total


class Exact:
    """The welfare indices of a sample of integers, by decimal at 60 digits:
    each from ln(v / mean), with exp - 1 and ln(1 + d) by their series where
    they cancel, so every parameter is read to full precision."""

    def __init__(self, values):
        with localcontext(DIGITS):
            mean = Decimal(sum(values)) / len(values)
            self.logs = [Decimal(v).ln() - mean.ln() for v in values]

    def mean_of(self, terms) -> Decimal:
        return sum(terms) / len(self.logs)

    def mld(self) -> Decimal:
        with localcontext(DIGITS):
            return -self.mean_of(self.logs)

    def theil(self) -> Decimal:
        with localcontext(DIGITS):
            return self.mean_of(log.exp() * log for log in self.logs)

    def ge(self, alpha: float) -> Decimal:
        """(mean(r^alpha) - 1) / (alpha (alpha - 1)); its limits at 0 and 1."""
        if alpha == 0.0:
            return self.mld()
        if alpha == 1.0:
            return self.theil()
        with localcontext(DIGITS):
            a = Decimal(alpha)
            return self.mean_of(expm1(a * log) for log in self.logs) / (a * (a - 1))

    def atkinson(self, eps: float) -> Decimal:
        """1 - mean(r^p)^(1/p), p = 1 - eps; the geometric mean's at p = 0."""
        with localcontext(DIGITS):
            p = 1 - Decimal(eps)
            if not p:
                return -expm1(self.mean_of(self.logs))
            return -expm1(log1p(self.mean_of(expm1(p * log) for log in self.logs)) / p)


def assert_close(got, exact, n: int, limit=None) -> None:
    """``got`` within a relative 1e-9 of ``exact``, plus the allowances in
    the module docstring; ``limit`` is the exact limit the library returns
    inside its window, or None outside it."""
    slack = n * 2.0**-52 + (abs(float(exact - limit)) if limit is not None else 0.0)
    assert abs(got - float(exact)) <= 1e-9 * abs(float(exact)) + slack, (got, float(exact), float(limit or 0))


def near(value: float, point: float) -> bool:
    return abs(value - point) <= LIMIT_WINDOW


@settings(max_examples=150, deadline=None)
@given(samples, st.floats(0.0, 20.0) | st.floats(1.0 - 1e-6, 1.0 + 1e-6), st.floats(-5.0, 10.0))
@example([1, 2, 3], 1.0 - 1e-10, 1e-12)
# just outside the window of eps = 1, where the moment rounds near 1
@example([1, 2], 1.0 - 2e-9, 2.0)
@example([1, 2], 1.0 + 2e-9, 2.0)
@example([1, 2], 1.0 - 1e-8, 2.0)
@example([1, 2], 1.0 + 1e-7, 2.0)
@example([1, 2, 3], 1.0 + 1e-10, 1.0 - 1e-8)
@example([1, 10**9] * 20, 20.0, 1.0 + 1e-8)
@example([10**9 - 1, 10**9], 0.5, -5.0)
def test_measures_match_exact_references(values, eps, alpha):
    values = sorted(values)
    n = len(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sample = IncomeSample.from_values(values)
        curve = lorenz_curve(sample)
        gini = curve.gini()
        bottom, top, ratio = curve.tail_shares(CUTS)
        palma = curve.palma()
        got = {"atkinson": atkinson(sample, eps), "ge": ge_index(sample, alpha)}
        got.update(theil=theil(sample), mld=ge_zero(sample))

    lorenz = exact_lorenz(values)
    assert_close(gini, lorenz["gini"], n)
    for name, column in (("bottom", bottom), ("top", top), ("ratio", ratio)):
        for value, exact in zip(column.tolist(), lorenz[name]):
            assert_close(value, exact, n)
    assert_close(palma, lorenz["palma"], n)

    ref = Exact(values)
    assert_close(got["theil"], ref.theil(), n)
    assert_close(got["mld"], ref.mld(), n)
    assert_close(got["atkinson"], ref.atkinson(eps), n, ref.atkinson(1.0) if near(eps, 1.0) else None)
    limit = ref.mld() if near(alpha, 0.0) else ref.theil() if near(alpha, 1.0) else None
    assert_close(got["ge"], ref.ge(alpha), n, limit)
