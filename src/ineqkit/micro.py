"""Inequality measures computed directly from micro-data samples.

Each measure reads one curve, the empirical Lorenz curve: the piecewise-linear
plot of cumulative income share against cumulative population share, with the
sample sorted poorest to richest.  Each is one method of :class:`LorenzCurve`.
The Gini coefficient is one minus twice the trapezoidal area under the curve,
which coincides exactly with the pairwise mean-difference form.  Tail shares
interpolate linearly on the curve, so a cut point falling inside an
observation splits that observation proportionally.  To read several
measures, build the curve once with :func:`lorenz_curve`.

All operations are pure functions over immutable inputs and may be shared
freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSampleError,
    DivisionByZeroShareError,
    DomainError,
    EmptyInputError,
)

# Slack for float wobble when validating curve invariants.
_CONVEXITY_TOL = 1e-9


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr`` as a read-only array.  One that is already read-only and owns
    its memory is taken as immutable and kept; any other is copied, so that
    no caller can write through it."""
    if arr.flags.writeable or arr.base is not None:
        arr = arr.copy()
        arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class IncomeSample:
    """Non-negative values in ascending order with a positive, finite total.

    Use :meth:`from_values` to build one from unsorted data.  Direct
    construction requires the array to already satisfy the invariants.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1:
            raise DomainError("sample values must be one-dimensional")
        if arr.size == 0:
            raise EmptyInputError("sample must contain at least one value")
        if not np.all(np.isfinite(arr)):
            raise DomainError("sample values must be finite")
        if arr[0] < 0:
            raise DomainError("sample values must be non-negative")
        if np.any(np.diff(arr) < 0):
            raise DomainError("sample values must be in non-decreasing order")
        if arr[-1] <= 0:
            raise DegenerateSampleError("sample total must be positive")
        with np.errstate(over="ignore"):
            if not np.isfinite(arr.sum()):
                raise DomainError("sample total overflows")
        object.__setattr__(self, "values", _frozen(arr))

    @classmethod
    def from_values(cls, values) -> "IncomeSample":
        """Sort ``values`` ascending and wrap them as a sample.  An array is
        copied once and sorted in place; other iterables go through ``list()``."""
        arr = np.array(values if isinstance(values, np.ndarray) else list(values), dtype=float)
        if arr.ndim == 1:
            arr.sort()
        arr.flags.writeable = False
        return cls(arr)

    @property
    def n(self) -> int:
        return int(self.values.size)

    @property
    def total(self) -> float:
        return float(self.values.sum())

    @property
    def mean(self) -> float:
        return float(self.values.mean())


def _as_sample(sample) -> IncomeSample:
    if isinstance(sample, IncomeSample):
        return sample
    return IncomeSample.from_values(sample)


def _check_percent(x) -> np.ndarray:
    """One percent cut or a sequence of them, each in (0, 50], as a 1-d array."""
    cuts = np.atleast_1d(np.asarray(x, dtype=float))
    bad = cuts[~((0.0 < cuts) & (cuts <= 50.0))]
    if bad.size:
        raise DomainError(f"percent cut {float(bad[0])!r} outside (0, 50]")
    return cuts


@dataclass(frozen=True)
class LorenzCurve:
    """Piecewise-linear Lorenz curve: (population share p, income share L).

    Invariants: starts at (0, 0), ends at (1, 1), p strictly increasing,
    L non-decreasing, L(p) <= p, and chord slopes non-decreasing (convexity).
    Every Lorenz-derived measure is a method of the curve.
    """

    p: np.ndarray
    L: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        L = np.asarray(self.L, dtype=float)
        if p.shape != L.shape or p.ndim != 1 or p.size < 2:
            raise DomainError("curve needs matching 1-d arrays of >= 2 points")
        if p[0] != 0.0 or L[0] != 0.0 or p[-1] != 1.0 or L[-1] != 1.0:
            raise DomainError("curve must run from (0, 0) to (1, 1)")
        dp = np.diff(p)
        if np.any(dp <= 0):
            raise DomainError("population shares must be strictly increasing")
        slopes = np.diff(L)
        if np.any(slopes < -_CONVEXITY_TOL):
            raise DomainError("income shares must be non-decreasing")
        if np.any(L > p + _CONVEXITY_TOL):
            raise DomainError("curve must lie on or below the diagonal")
        slopes /= dp
        # A chord slope's rounding error grows like eps / dp, and so does the
        # slack on a slope difference: 8 eps n on an even grid of n + 1
        # points.  In-place steps keep a large curve's peak memory down.
        slack = np.minimum(dp[:-1], dp[1:])
        np.divide(8.0 * np.finfo(float).eps, slack, out=slack)
        slack += _CONVEXITY_TOL
        slack += np.diff(slopes)
        if np.any(slack < 0.0):
            raise DomainError("curve must be convex (non-decreasing slopes)")
        object.__setattr__(self, "p", _frozen(p))
        object.__setattr__(self, "L", _frozen(L))

    @classmethod
    def from_sample(cls, sample) -> "LorenzCurve":
        """Same as :func:`lorenz_curve`."""
        return lorenz_curve(sample)

    @property
    def points(self) -> list[tuple[float, float]]:
        return list(zip(self.p.tolist(), self.L.tolist()))

    def value_at(self, p):
        """Income share of the poorest fraction ``p`` (linear interpolation);
        an array of fractions gives an array."""
        shares = np.asarray(p, dtype=float)
        if not np.all((0.0 <= shares) & (shares <= 1.0)):
            raise DomainError(f"population share {p!r} outside [0, 1]")
        # np.interp copies a read-only array whole, so it is handed only the
        # two points that bracket each share, which interpolate the same.
        ends = np.minimum(np.searchsorted(self.p, shares, side="right"), self.p.size - 1)
        values = np.array(
            [
                np.interp(x, self.p[k - 1 : k + 1], self.L[k - 1 : k + 1])
                for x, k in zip(shares.flat, ends.flat)
            ]
        ).reshape(shares.shape)
        return float(values) if values.ndim == 0 else values

    def gini(self) -> float:
        """Gini coefficient: area between the equality line and the curve
        over the whole area under the equality line.

        Computed as 1 - 2 * (trapezoidal area under the curve), which is
        identical to the pairwise mean-difference form
        sum_ij |y_i - y_j| / (2 n^2 mean).  Population estimator: the maximum
        for a sample of size n is 1 - 1/n.
        """
        area = float(np.sum((self.L[1:] + self.L[:-1]) * np.diff(self.p)) / 2.0)
        return max(1.0 - 2.0 * area, 0.0)

    def tail_shares(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bottom share, top share and B/T ratio of the ``x`` percent tails.

        ``x`` is one cut in (0, 50] or a sequence of them, all read in one
        lookup; each result has one entry per cut.  B/T is 0 when the bottom
        share is zero and never above 1, because the top tail share can never
        fall below the bottom tail share of the same width.
        """
        cuts = _check_percent(x)
        values = self.value_at(np.concatenate((cuts / 100.0, 1.0 - cuts / 100.0)))
        bottom, top = values[: cuts.size], 1.0 - values[cuts.size :]
        # The richest x percent always hold something; a zero top share
        # means 1 - x/100 rounded to (nearly) 1.
        if not np.all(top > 0.0):
            tiny = float(cuts[~(top > 0.0)][0])
            raise DomainError(f"percent cut {tiny!r} too small to resolve the top share")
        ratio = np.divide(bottom, top, out=np.zeros_like(bottom), where=bottom != 0.0)
        # float noise can push bottom/top one ulp past 1 when the shares tie
        return bottom, top, np.minimum(ratio, 1.0)

    def bottom(self, x) -> float:
        """Income share held by the poorest ``x`` percent, x in (0, 50]."""
        return float(self.tail_shares(x)[0][0])

    def top(self, x) -> float:
        """Income share held by the richest ``x`` percent, x in (0, 50]."""
        return float(self.tail_shares(x)[1][0])

    def b_over_t(self, x) -> float:
        """Bottom-x share over top-x share; 0 when the bottom share is zero."""
        return float(self.tail_shares(x)[2][0])

    def palma(self) -> float:
        """Top-10% share over bottom-40% share.

        Ranges over [1/4, infinity); raises when the bottom 40% holds nothing.
        """
        bottom, top, _ = self.tail_shares((40.0, 10.0))
        if bottom[0] == 0.0:
            raise DivisionByZeroShareError("bottom 40% share is zero")
        return float(top[1] / bottom[0])


# Public name for the share queries, which a curve answers itself.
QuantileShares = LorenzCurve


def lorenz_curve(sample) -> LorenzCurve:
    """Empirical Lorenz curve of a sample.

    Returns n + 1 points; point k is (k/n, sum of the smallest k values over
    the total).
    """
    sample = _as_sample(sample)
    n = sample.n
    p = np.arange(n + 1, dtype=float)
    p /= n
    L = np.empty(n + 1)
    L[0] = 0.0
    np.cumsum(sample.values, out=L[1:])
    L[1:] /= L[-1]
    L[-1] = 1.0
    p.flags.writeable = L.flags.writeable = False
    return LorenzCurve(p, L)


def gini(sample) -> float:
    """Gini coefficient of a sample; see :meth:`LorenzCurve.gini`."""
    return lorenz_curve(sample).gini()


def bottom_share(sample, x) -> float:
    """Income share held by the poorest ``x`` percent, x in (0, 50]."""
    return lorenz_curve(sample).bottom(x)


def top_share(sample, x) -> float:
    """Income share held by the richest ``x`` percent, x in (0, 50]."""
    return lorenz_curve(sample).top(x)


def ratio_b_over_t(sample, x) -> float:
    """Bottom-x share over top-x share; see :meth:`LorenzCurve.tail_shares`."""
    return lorenz_curve(sample).b_over_t(x)


def palma_ratio(sample) -> float:
    """Top-10% share over bottom-40% share; see :meth:`LorenzCurve.palma`."""
    return lorenz_curve(sample).palma()
