"""Welfare-based inequality indices: Atkinson and the generalized-entropy family.

The Atkinson index is built on the equally distributed equivalent income
(the uniform income level giving the same social welfare as the observed
distribution) with aversion parameter epsilon.  The generalized-entropy
family GE(alpha) shifts sensitivity from the bottom (small alpha) to the top
(large alpha) of the distribution; GE(0) is the mean logarithmic deviation
and GE(1) is the Theil index.  With alpha = 1 - epsilon both read one power
moment: 1 - A = (1 + alpha (alpha - 1) GE(alpha))^(1/alpha) (Shorrocks, 1980).

Each index is summed a block of the sample at a time: its terms are formed
in one scratch buffer of at most ``micro._BLOCK`` values, and the block sums
are added by ``math.fsum``, so no index holds an array as long as the sample.
No index calls BLAS: a weighted sum is an in-place product and ``sum``, not
``np.dot``, so results do not depend on the BLAS build or its thread count.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .errors import DomainError, ZeroIncomeError
from .micro import _as_sample, _blocks

# Dispatch to the closed-form limits inside this window: the general formulas
# have removable singularities at alpha = 0, alpha = 1, and epsilon = 1 and
# lose precision when evaluated too close to them.
LIMIT_WINDOW = 1e-9


def _log_quotients(a, b, shift: int = 0) -> np.ndarray:
    """ln(a / b) + shift * ln 2 of positive values, from their mantissas and
    exponents: no quotient is formed whole, so none overflows or underflows,
    and the result keeps its bits when a and b are scaled by a power of two."""
    (ma, ea), (mb, eb) = np.frexp(a), np.frexp(b)
    return np.log(ma / mb) + (ea - eb + shift) * math.log(2.0)


def _first(sample, test) -> int:
    """The index of the first of a sample's values, divided by 2**k (see
    ``IncomeSample._scale``), that passes ``test``; the ascending values fail
    it, then pass it."""
    scale = 2.0**-sample._scale
    return bisect.bisect_left(sample.values, True, key=lambda x: test(float(x) * scale))


def _log_ratios(sample, mean: float, low: int, start: int = 0):
    """``(i, ln r)`` of the ratios r = y / ybar from ``start`` on, a block at a
    time in one scratch buffer; the ratios before ``low``, below the normal
    range, are read from the log quotients of the unscaled values."""
    for i, terms in sample._scaled_blocks(start):
        c = min(max(low - i, 0), terms.size)
        np.log(np.divide(terms[c:], mean, out=terms[c:]), out=terms[c:])
        terms[:c] = _log_quotients(sample.values[i : i + c], mean, -sample._scale)
        yield i, terms


def _log_power_mean(sample, mean: float, alpha: float) -> float:
    """ln mean(r^alpha) / alpha, the log power mean, ``mean`` being the scaled
    mean: the largest income (``alpha`` > 0) or the smallest, then not zero, is
    factored out, so each term left is a quotient in [0, 1] to the |alpha|."""
    y = sample.values
    ext = float(y[-1] if alpha > 0 else y[0])
    cut = y.size
    if -1.0 < alpha < 0.0:
        # such an alpha lifts a quotient past the normal range near 1: read its log
        cut = bisect.bisect_left(y, True, key=lambda x: ext / float(x) < np.finfo(float).tiny)

    def block_sum(i, terms):
        if alpha > 0:
            terms /= ext
        else:
            np.divide(ext, terms, out=terms)
        terms **= abs(alpha)
        c = min(max(cut - i, 0), terms.size)
        terms[c:] = np.exp(alpha * _log_quotients(y[i + c : i + terms.size], ext))
        return terms.sum()

    total = math.fsum(block_sum(i, terms) for i, terms in _blocks(y))
    return float(_log_quotients(ext, mean, -sample._scale)) + math.log(total / y.size) / alpha


def _sum_times_values(sample, start: int, mean: float, weigh) -> float:
    """sum(w_i * v_i) / mean over the scaled values v_i from ``start`` on, each
    of positive ratio v_i / mean, where ``weigh`` turns ln(ratios) into the w_i
    in place."""

    def block_sum(i, terms):
        weigh(terms)
        terms *= 2.0**-sample._scale  # exact, so w * y * 2**-k rounds once, as w * v
        terms *= sample.values[i : i + terms.size]
        return terms.sum()

    return math.fsum(block_sum(i, terms) for i, terms in _log_ratios(sample, mean, start, start)) / mean


def _power_moment(sample, alpha: float, alpha_m1: float) -> tuple[float, bool]:
    """``(mean(r^alpha) - 1, False)`` of r = y / ybar to full relative precision,
    or ``(ln mean(r^alpha) / alpha, True)`` past the float range.  ``alpha_m1`` is
    alpha - 1, exact where alpha rounds; no income is zero where alpha < 0."""
    y = sample.values
    if y[0] == y[-1]:  # every ratio is 1, whichever way the mean rounds
        return 0.0, False
    mean = sample._sum / y.size
    # The ratios ascend, so those below the normal range lead: zero incomes, then
    # positive ones that lost bits, underflow or are scaled to 0.
    low = _first(sample, lambda v: v / mean >= np.finfo(float).tiny)
    if alpha < 0 and low:
        # a low ratio has lost the bits its vast r^alpha needs
        return _log_power_mean(sample, mean, alpha), True
    if -0.5 < alpha < 1.5:
        # Near alpha = 0 or 1, mean(r^alpha) - 1 nearly cancels and is then
        # divided by a tiny alpha or alpha - 1: sum it as expm1 terms instead.
        if alpha < 0.5:
            # r^alpha - 1 = expm1(alpha ln r); a zero income contributes -1,
            # and a positive one with a low ratio the log of its quotient.
            nil = int(np.searchsorted(y, 0.0, side="right"))
            blocks = _log_ratios(sample, mean, low, nil)
            dev = math.fsum(np.expm1(np.multiply(t, alpha, out=t), out=t).sum() for _, t in blocks) - nil
        else:
            # mean(r) = 1, so sum r^alpha - r = r expm1((alpha - 1) ln r)
            # instead; a low ratio's term, below 2**-511, contributes nothing
            dev = _sum_times_values(
                sample, low, mean,
                lambda t: np.expm1(np.multiply(t, alpha_m1, out=t), out=t),
            )
        return dev / y.size, False
    # The direct sum is the more precise while finite.
    with np.errstate(over="ignore"):
        blocks = sample._scaled_blocks()
        try:
            total = math.fsum(np.power(np.divide(r, mean, out=r), alpha, out=r).sum() for _, r in blocks)
        except OverflowError:  # block sums that are finite, but not their total
            total = math.inf
    if not 0.0 < total < math.inf:
        return _log_power_mean(sample, mean, alpha), True
    return (total - y.size) / y.size, False


def atkinson(sample, eps: float) -> float:
    """Atkinson index with inequality aversion ``eps`` >= 0.

    Equals 1 - y_ede / mean, where y_ede is the power mean of order (1 - eps),
    read from the GE power moment, and the geometric mean for eps = 1.  With a
    zero income present and eps >= 1 the equally distributed equivalent
    income is zero, so the index is exactly 1.
    """
    sample = _as_sample(sample)
    eps = float(eps)
    if not math.isfinite(eps):
        raise DomainError("aversion parameter must be finite")
    if eps < 0:
        raise DomainError("aversion parameter must be >= 0")
    if sample.values[0] == 0.0 and eps - 1.0 >= -LIMIT_WINDOW:
        return 1.0
    if abs(eps - 1.0) <= LIMIT_WINDOW:
        # ln(y_ede / mean) is minus the mean log deviation
        return -math.expm1(-ge_zero(sample))
    # 1 - eps rounds where eps is small; -eps is alpha - 1 exactly.
    moment, in_log = _power_moment(sample, 1.0 - eps, -eps)
    return max(0.0, -math.expm1(moment if in_log else math.log1p(moment) / (1.0 - eps)))


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
    if alpha < 0 and sample.values[0] == 0.0:
        raise ZeroIncomeError("GE with alpha <= 0 is undefined for zero incomes")
    moment, in_log = _power_moment(sample, alpha, alpha - 1.0)
    if not in_log:
        return max(0.0, moment / alpha / (alpha - 1.0))
    # L = ln mean(r^alpha) >= 0 but for rounding; e^L - 1 = e^L * -expm1(-L) keeps a
    # small L (from an underflowed ratio); alpha * (alpha - 1) > 0 may overflow.
    moment = max(alpha * moment, 0.0)
    try:
        index = math.exp(moment - math.log(abs(alpha)) - math.log(abs(alpha - 1.0))) * -math.expm1(-moment)
    except OverflowError:
        index = math.inf
    if index == math.inf:
        raise DomainError(f"GE({alpha!r}) of this sample exceeds the float range")
    return index


def ge_zero(sample) -> float:
    """Mean logarithmic deviation, GE(0): mean of ln(ybar / y_i).

    Requires strictly positive values.
    """
    sample = _as_sample(sample)
    y = sample.values
    if y[0] == 0.0:
        raise ZeroIncomeError("mean log deviation is undefined for zero incomes")
    if y[0] == y[-1]:  # every ratio is 1, whichever way the mean rounds
        return 0.0
    mean = sample._sum / y.size
    # A ratio below the normal range, and any value the scale rule sets to 0,
    # is read from its log quotient: its reciprocal may overflow.
    low = _first(sample, lambda v: v / mean >= np.finfo(float).tiny)
    return max(-math.fsum(t.sum() for _, t in _log_ratios(sample, mean, low)) / y.size, 0.0)


def theil(sample) -> float:
    """Theil index, GE(1): mean of (y_i / ybar) * ln(y_i / ybar).

    Zero values, and values whose ratio to the mean underflows to 0,
    contribute nothing (the r ln r -> 0 limit).
    """
    sample = _as_sample(sample)
    y = sample.values
    if y[0] == y[-1]:  # every ratio is 1, whichever way the mean rounds
        return 0.0
    mean = sample._sum / y.size
    zeros = _first(sample, lambda v: v / mean > 0.0)
    return max(_sum_times_values(sample, zeros, mean, lambda terms: None) / y.size, 0.0)
