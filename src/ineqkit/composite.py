"""Composite inequality index: a Gini value combined with a bounded tail term.

The tail term H = 1 - (B/T)^alpha maps the unbounded top-over-bottom share
ratio into [0, 1]; the exponent alpha balances its weight against the Gini
term and is calibrated so that avg(Gini) = 1 - avg(B/T)^alpha over a panel.
The index itself is the normalized Euclidean length sqrt(Gini^2 + H^2) /
sqrt(2), bounded in [0, 1].  A multi-percentile form extends the same
construction to several tail ratios at once, and a simpler unbounded variant
skips the tail transform entirely.

A scalar and a column both go through numpy's SIMD loops for ``pow`` and ``hypot``: they
agree bit for bit, but may differ from the C library, and between CPUs, in the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArityError,
    CalibrationDomainError,
    DomainError,
    EmptyInputError,
)

# Fixed default exponent for the tail term; close to the panel-calibrated
# mean and trivial to evaluate (two square roots).
DEFAULT_WEIGHT = 0.25


def _check_unit(name: str, value) -> np.ndarray:
    value = np.asarray(value, dtype=float)
    bad = ~((0.0 <= value) & (value <= 1.0))
    if bad.any():
        raise DomainError(f"{name} {float(value[bad][0])!r} outside [0, 1]")
    return value


def _check_t_over_b(value) -> np.ndarray:
    value = np.asarray(value, dtype=float)
    bad = ~(value >= 1.0)
    if bad.any():
        raise DomainError(f"top-over-bottom ratio {float(value[bad][0])!r} must be >= 1")
    return value


def _check_shapes(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ArityError(f"shapes {a.shape} and {b.shape} do not broadcast") from None
    return a, b


def _check_weight(weight: float) -> float:
    weight = float(weight)
    if not 0.0 < weight <= 1.0 or math.isnan(weight):
        raise DomainError(f"weight {weight!r} outside (0, 1]")
    return weight


def _scalar_or_array(values: np.ndarray):
    """A 0-d result as a float; any other result as it is."""
    return float(values) if values.ndim == 0 else values


def h_transform(b_over_t, weight: float = DEFAULT_WEIGHT):
    """Bounded tail term 1 - (B/T)^weight of one ratio or an array of them.

    Exactly 1 when the bottom share is zero and exactly 0 at perfect
    equality (B/T = 1).
    """
    b_over_t = _check_unit("share ratio", b_over_t)
    weight = _check_weight(weight)
    return _scalar_or_array(1.0 - np.power(b_over_t, weight))


def calibrate_alpha(avg_gini: float, avg_ratio: float) -> float:
    """Exponent solving avg_gini = 1 - avg_ratio^alpha.

    Both inputs must lie strictly inside (0, 1).
    """
    avg_gini = float(avg_gini)
    avg_ratio = float(avg_ratio)
    if not 0.0 < avg_gini < 1.0:
        raise CalibrationDomainError(f"average gini {avg_gini!r} outside (0, 1)")
    if not 0.0 < avg_ratio < 1.0:
        raise CalibrationDomainError(f"average ratio {avg_ratio!r} outside (0, 1)")
    return math.log(1.0 - avg_gini) / math.log(avg_ratio)


def mean_alpha(alphas) -> float:
    """Arithmetic mean of per-sample exponents (equal weighting)."""
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise EmptyInputError("no exponents to average")
    for alpha in alphas:
        if not math.isfinite(alpha):
            raise DomainError(f"exponent {alpha!r} is not finite")
    return sum(alphas) / len(alphas)


def b_over_t_from_t_over_b(t_over_b):
    """Convert a printed top-over-bottom ratio, or an array of them, to the
    canonical B/T form.

    An infinite T/B (bottom share zero) maps to 0.
    """
    return _scalar_or_array(1.0 / _check_t_over_b(t_over_b))


@dataclass(frozen=True)
class CompositeResult:
    """Derived values for one (gini, B/T) observation, or for arrays of them."""

    gini: float
    b_over_t: float
    h: float
    index_i: float

    @property
    def alt_index(self):
        """The unbounded variant of the same inputs, with T/B = 1 / (B/T);
        computed when read.  A caller that holds the printed T/B passes it
        to :func:`alternative_index` instead."""
        with np.errstate(divide="ignore", over="ignore"):  # T/B is inf where B/T is 0 or subnormal
            t_over_b = 1.0 / np.asarray(self.b_over_t)
        return _alt_index(np.asarray(self.gini), t_over_b)


def composite(gini, b_over_t, weight: float = DEFAULT_WEIGHT) -> CompositeResult:
    """Composite index sqrt(gini^2 + h^2) / sqrt(2) with h = 1 - (B/T)^weight.

    Bounded in [0, 1]: 0 only at (gini 0, ratio 1), 1 only at (gini 1,
    ratio 0).  Also carries the simpler unbounded variant for the same
    inputs.  Arrays give arrays, element by element; scalars give floats.
    """
    gini, b_over_t = _check_shapes(_check_unit("gini", gini), _check_unit("share ratio", b_over_t))
    h = 1.0 - np.power(b_over_t, _check_weight(weight))
    index_i = np.sqrt(gini * gini + h * h) / np.sqrt(2.0)
    return CompositeResult(
        gini=_scalar_or_array(gini),
        b_over_t=_scalar_or_array(b_over_t),
        h=_scalar_or_array(h),
        index_i=_scalar_or_array(index_i),
    )


def generalized_composite(gini: float, ratios, weights) -> float:
    """Multi-percentile composite: sqrt(gini^2 + sum_j h_j^2) / sqrt(N + 1).

    ``ratios`` is a sequence of (x, b_over_t) pairs with distinct x in
    (0, 50]; ``weights`` supplies one exponent per ratio.  With a single
    ratio this reduces exactly to :func:`composite`.
    """
    gini = _check_unit("gini", gini)
    ratios = list(ratios)
    weights = [float(w) for w in weights]
    if not ratios:
        raise EmptyInputError("at least one percentile ratio is required")
    if len(weights) != len(ratios):
        raise ArityError(
            f"{len(ratios)} ratios but {len(weights)} weights"
        )
    xs = []
    total = gini * gini
    for (x, b_over_t), weight in zip(ratios, weights):
        x = float(x)
        if not 0.0 < x <= 50.0:
            raise DomainError(f"percentile cut {x!r} outside (0, 50]")
        xs.append(x)
        h = h_transform(b_over_t, weight)
        total += h * h
    if len(set(xs)) != len(xs):
        raise DomainError("percentile cuts must be distinct")
    return math.sqrt(total) / math.sqrt(len(ratios) + 1.0)


def alternative_index(gini, t_over_b):
    """Unbounded variant sqrt((100 gini)^2 + (T/B)^2) / 100, of one pair or
    of arrays of them.

    Equals 0.01 at perfect equality (gini 0, T/B = 1) and +infinity when the
    bottom share is zero.
    """
    return _alt_index(*_check_shapes(_check_unit("gini", gini), _check_t_over_b(t_over_b)))


def _alt_index(gini: np.ndarray, t_over_b: np.ndarray):
    """:func:`alternative_index` of inputs already checked."""
    # hypot avoids overflow for ratios near the float ceiling
    return _scalar_or_array(np.hypot(gini * 100.0, t_over_b) / 100.0)
