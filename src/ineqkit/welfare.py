"""Welfare-based inequality indices: Atkinson and the generalized-entropy family.

The Atkinson index is built on the equally distributed equivalent income
(the uniform income level giving the same social welfare as the observed
distribution) with aversion parameter epsilon.  The generalized-entropy
family GE(alpha) shifts sensitivity from the bottom (small alpha) to the top
(large alpha) of the distribution; GE(0) is the mean logarithmic deviation
and GE(1) is the Theil index.

No index calls BLAS: a weighted sum is an in-place product and ``sum``, not
``np.dot``, so results do not depend on the BLAS build or its thread count.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .errors import DomainError, ZeroIncomeError
from .micro import _as_sample

# Dispatch to the closed-form limits inside this window: the general formulas
# have removable singularities at alpha = 0, alpha = 1, and epsilon = 1 and
# lose precision when evaluated too close to them.
LIMIT_WINDOW = 1e-9


def _log_power_mean(v: np.ndarray, mean: float, power: float) -> float:
    """ln mean((v / mean)^power) of ascending values, free of overflow;
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
    return power * (math.log(ext) - math.log(mean)) + math.log(terms.mean())


def _log_quotients(a, b) -> np.ndarray:
    """ln(a / b) of positive values, read from their mantissas and exponents:
    no quotient is formed whole, so none overflows or underflows, and the
    result keeps its bits when a and b are scaled by one power of two."""
    (ma, ea), (mb, eb) = np.frexp(a), np.frexp(b)
    return np.log(ma / mb) + (ea - eb) * math.log(2.0)


def _sum_times_values(v: np.ndarray, ratios: np.ndarray, mean: float, weigh) -> float:
    """sum(w_i * v_i) / mean of positive ratios v / mean, where ``weigh``
    turns ln(ratios) into the w_i in place; ``ratios`` is overwritten."""
    terms = np.log(ratios, out=ratios)
    weigh(terms)
    terms *= v
    return float(terms.sum() / mean)


def atkinson(sample, eps: float) -> float:
    """Atkinson index with inequality aversion ``eps`` >= 0.

    Equals 1 - y_ede / mean, where y_ede is the power mean of order
    (1 - eps) for eps != 1 and the geometric mean for eps = 1.  With a zero
    income present and eps >= 1 the equally distributed equivalent income is
    zero, so the index is exactly 1.
    """
    sample = _as_sample(sample)
    eps = float(eps)
    if not math.isfinite(eps):
        raise DomainError("aversion parameter must be finite")
    if eps < 0:
        raise DomainError("aversion parameter must be >= 0")
    v = sample._scaled[0]
    mean = v.mean()
    has_zero = sample.values[0] == 0.0
    if abs(eps - 1.0) <= LIMIT_WINDOW:
        if has_zero:
            return 1.0
        terms = v / mean
        # The ratios ascend, so those that underflow to 0 lead.
        zeros = int(np.searchsorted(terms, 0.0, side="right"))
        np.log(terms[zeros:], out=terms[zeros:])
        terms[:zeros] = _log_quotients(v[:zeros], mean)
        return max(1.0 - float(np.exp(terms.mean())), 0.0)
    if eps > 1.0 and has_zero:
        return 1.0
    power = 1.0 - eps
    # The direct power mean is the more precise while it is finite; it
    # overflows only for power < 0 and a tiny income.
    with np.errstate(over="ignore", divide="ignore"):
        terms = v / mean
        terms **= power
        moment = terms.mean()
    del terms  # the fallback makes its own
    if np.isfinite(moment):
        return max(1.0 - float(moment ** (1.0 / power)), 0.0)
    return -math.expm1(_log_power_mean(sample.values, sample.mean, power) / power)


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
    v = sample._scaled[0]
    if alpha < 0 and sample.values[0] == 0.0:
        raise ZeroIncomeError("GE with alpha <= 0 is undefined for zero incomes")
    mean = v.mean()
    ratios = v / mean
    # The ratios ascend, so the zeros lead: zero incomes and ratios that
    # underflow.  For alpha < 0 the latter leave to the log-space sum below.
    zeros = int(np.searchsorted(ratios, 0.0, side="right"))
    if -0.5 < alpha < 1.5 and not (alpha < 0 and zeros):
        # Near alpha = 0 or 1, mean(r^alpha) - 1 nearly cancels and is then
        # divided by a tiny alpha or alpha - 1: sum it as expm1 terms instead.
        if alpha < 0.5:
            # r^alpha - 1 = expm1(alpha ln r); each zero ratio contributes -1
            terms = ratios[zeros:]
            np.log(terms, out=terms)
            terms *= alpha
            np.expm1(terms, out=terms)
            dev = float(terms.sum()) - zeros
        else:
            # mean(r) = 1, so sum r^alpha - r = r expm1((alpha - 1) ln r)
            # instead; zero ratios contribute nothing
            dev = _sum_times_values(
                v[zeros:], ratios[zeros:], mean,
                lambda t: np.expm1(np.multiply(t, alpha - 1.0, out=t), out=t),
            )
    else:
        # The direct sum is the more precise while it is finite.
        with np.errstate(over="ignore", divide="ignore"):
            ratios **= alpha
            total = float(ratios.sum())
        del ratios  # the fallback makes its own
        if math.isinf(total):
            # mean(r^alpha) is then so large that subtracting 1 changes nothing
            try:
                log_mean = _log_power_mean(sample.values, sample.mean, alpha)
                # alpha * (alpha - 1) > 0 here, and overflows for |alpha| > ~1.3e154
                return math.exp(log_mean - math.log(abs(alpha)) - math.log(abs(alpha - 1.0)))
            except OverflowError:
                raise DomainError(f"GE({alpha!r}) of this sample exceeds the float range") from None
        dev = total - v.size
    return max(dev / v.size / alpha / (alpha - 1.0), 0.0)


def ge_zero(sample) -> float:
    """Mean logarithmic deviation, GE(0): mean of ln(ybar / y_i).

    Requires strictly positive values.
    """
    sample = _as_sample(sample)
    if sample.values[0] == 0.0:
        raise ZeroIncomeError("mean log deviation is undefined for zero incomes")
    v = sample._scaled[0]
    mean = float(v.mean())
    # The ratios descend, so those that overflow lead; a float quotient past
    # the range is inf, with no numpy warning.
    big = bisect.bisect_left(v, True, key=lambda x: mean / float(x) < math.inf)
    terms = np.empty_like(v)
    np.divide(mean, v[big:], out=terms[big:])
    np.log(terms[big:], out=terms[big:])
    terms[:big] = _log_quotients(mean, v[:big])
    return max(float(terms.mean()), 0.0)


def theil(sample) -> float:
    """Theil index, GE(1): mean of (y_i / ybar) * ln(y_i / ybar).

    Zero values, and values whose ratio to the mean underflows to 0,
    contribute nothing (the r ln r -> 0 limit).
    """
    v = _as_sample(sample)._scaled[0]
    mean = v.mean()
    ratios = v / mean
    zeros = int(np.searchsorted(ratios, 0.0, side="right"))
    return max(_sum_times_values(v[zeros:], ratios[zeros:], mean, lambda terms: None) / v.size, 0.0)
