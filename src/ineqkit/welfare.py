"""Welfare-based inequality indices: Atkinson and the generalized-entropy family.

The Atkinson index is built on the equally distributed equivalent income
(the uniform income level giving the same social welfare as the observed
distribution) with aversion parameter epsilon.  The generalized-entropy
family GE(alpha) shifts sensitivity from the bottom (small alpha) to the top
(large alpha) of the distribution; GE(0) is the mean logarithmic deviation
and GE(1) is the Theil index.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ZeroIncomeError
from .micro import _as_sample

# Dispatch to the closed-form limits inside this window: the general formulas
# have removable singularities at alpha = 0, alpha = 1, and epsilon = 1 and
# lose precision when evaluated too close to them.
LIMIT_WINDOW = 1e-9


def _log_power_mean(v: np.ndarray, power: float) -> float:
    """ln mean((v / mean(v))^power) of ascending values, free of overflow;
    ``power`` != 0, and no value is zero when ``power`` < 0.

    The largest value (``power`` > 0) or the smallest (``power`` < 0) is
    factored out in log space, so every remaining term lies in [0, 1].
    """
    if power > 0:
        ext = v[-1]
        terms = v / ext
    else:
        ext = v[0]
        terms = np.divide(ext, v)
    terms **= abs(power)
    return power * (math.log(ext) - math.log(v.mean())) + math.log(terms.mean())


def atkinson(sample, eps: float) -> float:
    """Atkinson index with inequality aversion ``eps`` >= 0.

    Equals 1 - y_ede / mean, where y_ede is the power mean of order
    (1 - eps) for eps != 1 and the geometric mean for eps = 1.  With a zero
    income present and eps >= 1 the equally distributed equivalent income is
    zero, so the index is exactly 1.
    """
    sample = _as_sample(sample)
    eps = float(eps)
    if eps < 0:
        raise DomainError("aversion parameter must be >= 0")
    v = sample.values
    mean = v.mean()
    has_zero = v[0] == 0.0
    if abs(eps - 1.0) <= LIMIT_WINDOW:
        if has_zero:
            return 1.0
        return max(1.0 - float(np.exp(np.mean(np.log(v / mean)))), 0.0)
    if eps > 1.0 and has_zero:
        return 1.0
    power = 1.0 - eps
    # The direct power mean is the more precise while it is finite; it
    # overflows only for power < 0 and a tiny income.
    with np.errstate(over="ignore", divide="ignore"):
        moment = np.mean((v / mean) ** power)
    if np.isfinite(moment):
        return max(1.0 - float(moment ** (1.0 / power)), 0.0)
    return -math.expm1(_log_power_mean(v, power) / power)


def ge_index(sample, alpha: float) -> float:
    """Generalized-entropy index of order ``alpha``.

    (1 / (alpha * (alpha - 1))) * (mean((y / ybar)^alpha) - 1), with the
    closed-form limits substituted near alpha = 0 (mean log deviation) and
    alpha = 1 (Theil).  For alpha <= 0 the index is undefined when zero
    incomes are present; alpha in (0, 1) tolerates zeros since 0^alpha = 0.
    Raises :class:`DomainError` when the index exceeds the float range.
    """
    sample = _as_sample(sample)
    alpha = float(alpha)
    if not np.isfinite(alpha):
        raise DomainError("entropy order must be finite")
    if abs(alpha) <= LIMIT_WINDOW:
        return ge_zero(sample)
    if abs(alpha - 1.0) <= LIMIT_WINDOW:
        return theil(sample)
    v = sample.values
    if alpha < 0 and v[0] == 0.0:
        raise ZeroIncomeError("GE with alpha <= 0 is undefined for zero incomes")
    r = v / v.mean()
    if -0.5 < alpha < 1.5:
        # Near alpha = 0 or 1, mean(r^alpha) - 1 nearly cancels and is then
        # divided by a tiny alpha or alpha - 1: sum it as expm1 terms instead.
        # Values ascend, so the zero incomes (alpha in (0, 1) only) lead.
        zeros = int(np.searchsorted(v, 0.0, side="right"))
        terms = np.log(r[zeros:])
        if alpha < 0.5:
            # r^alpha - 1 = expm1(alpha ln r); each zero income contributes -1
            terms *= alpha
            np.expm1(terms, out=terms)
            dev = float(terms.sum()) - zeros
        else:
            # mean(r) = 1, so sum r^alpha - r = r expm1((alpha - 1) ln r)
            # instead; zero incomes contribute nothing
            terms *= alpha - 1.0
            np.expm1(terms, out=terms)
            terms *= r[zeros:]
            dev = float(terms.sum())
    else:
        # The direct sum is the more precise while it is finite.
        with np.errstate(over="ignore", divide="ignore"):
            total = float((r**alpha).sum())
        if math.isinf(total):
            # mean(r^alpha) is then so large that subtracting 1 changes nothing
            try:
                return math.exp(_log_power_mean(v, alpha) - math.log(alpha * (alpha - 1.0)))
            except OverflowError:
                raise DomainError(f"GE({alpha!r}) of this sample exceeds the float range") from None
        dev = total - v.size
    return max(dev / v.size / (alpha * (alpha - 1.0)), 0.0)


def ge_zero(sample) -> float:
    """Mean logarithmic deviation, GE(0): mean of ln(ybar / y_i).

    Requires strictly positive values.
    """
    sample = _as_sample(sample)
    v = sample.values
    if v[0] == 0.0:
        raise ZeroIncomeError("mean log deviation is undefined for zero incomes")
    return max(float(np.mean(np.log(v.mean() / v))), 0.0)


def theil(sample) -> float:
    """Theil index, GE(1): mean of (y_i / ybar) * ln(y_i / ybar).

    Zero values contribute nothing (the x ln x -> 0 limit).
    """
    sample = _as_sample(sample)
    r = sample.values / sample.mean
    terms = np.log(r, out=np.zeros_like(r), where=r > 0)
    terms *= r
    return max(float(terms.mean()), 0.0)
