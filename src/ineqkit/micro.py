"""Inequality measures computed directly from micro-data samples.

Each measure reads one curve, the empirical Lorenz curve: the piecewise-linear
plot of cumulative income share against cumulative population share, with the
sample sorted poorest to richest.  Each is one method of :class:`LorenzCurve`.
The Gini coefficient is one minus twice the trapezoidal area under the curve,
which coincides exactly with the pairwise mean-difference form.  Tail shares
interpolate linearly on the curve, so a cut point falling inside an
observation splits that observation proportionally.  To read several
measures, build the curve once with :func:`lorenz_curve`.

All operations but :func:`read_sample`, which reads a file or stdin, are pure
functions over immutable inputs and may be shared freely across threads.
"""

from __future__ import annotations

import codecs
import contextlib
import io
import itertools
import math
import os
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateSampleError,
    DivisionByZeroShareError,
    DomainError,
    EmptyInputError,
)

# Slack for float wobble when validating curve invariants.
_CONVEXITY_TOL = 1e-9

# Values per block of the blocked passes over a sample: each pass holds a few
# blocks, never an array as long as the sample.
_BLOCK = 1 << 16


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr`` as a read-only array.  One that is already read-only and owns
    its memory is taken as immutable and kept; any other is copied, so that
    no caller can write through it."""
    if arr.flags.writeable or arr.base is not None:
        arr = arr.copy()
        arr.flags.writeable = False
    return arr


def _checked(values, ordered: bool) -> np.ndarray:
    """``values`` as the read-only array of a sample, once its invariants
    hold.  Where ``ordered`` says numpy just sorted them, their order is not
    checked and only their ends, where a sort puts -inf, +inf and NaN, are
    read for a non-finite value."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise DomainError("sample values must be one-dimensional")
    if arr.size == 0:
        raise EmptyInputError("sample must contain at least one value")
    if not np.all(np.isfinite(arr[[0, -1]] if ordered else arr)):
        raise DomainError("sample values must be finite")
    if arr[0] < 0:
        raise DomainError("sample values must be non-negative")
    if not ordered and np.any(arr[1:] < arr[:-1]):
        raise DomainError("sample values must be in non-decreasing order")
    if arr[-1] <= 0:
        raise DegenerateSampleError("sample total must be positive")
    return _frozen(arr)


@dataclass(frozen=True)
class IncomeSample:
    """Finite, non-negative values in ascending order with a positive total.

    Use :meth:`from_values` to build one from unsorted data, and
    :func:`read_sample` to read one from a file.  Direct construction
    requires the array to already satisfy the invariants.
    """

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _checked(self.values, ordered=False))

    @classmethod
    def from_values(cls, values) -> "IncomeSample":
        """Sort ``values`` ascending and wrap them as a sample.  An array is
        copied once and sorted in place, so the caller's array is never
        changed; other iterables go through ``list()``.  The order made here
        is not checked again."""
        arr = np.array(values if isinstance(values, np.ndarray) else list(values), dtype=float)
        if arr.ndim == 1:
            arr.sort()
        arr.flags.writeable = False
        return cls._of_sorted(arr)

    @classmethod
    def _of_sorted(cls, arr: np.ndarray) -> "IncomeSample":
        """A sample of ``arr``, known to be in ascending order."""
        sample = cls.__new__(cls)
        object.__setattr__(sample, "values", _checked(arr, ordered=True))
        return sample

    @property
    def n(self) -> int:
        return int(self.values.size)

    @cached_property
    def _scale(self) -> int:
        """The k of 2**k, the power of two the measures divide every value by:
        0 unless the largest value nears an end of the float range.  There k
        keeps n**1.5 * max, which bounds every sum the measures take, below
        2**1020, and max at or above 2**-512, so that their products stay normal."""
        e = math.frexp(self.values[-1])[1]
        return max(e + 3 * self.n.bit_length() // 2 + 4 - 1023, min(e + 512, 0))

    def _scaled_blocks(self, start: int = 0):
        """The values from ``start`` on divided by 2**k (see :attr:`_scale`), a
        block at a time, as :func:`_blocks` gives them."""
        return _blocks(self.values, 2.0**-self._scale, start)

    @cached_property
    def _sum(self) -> float:
        """The sum of the values divided by 2**k (see :attr:`_scale`)."""
        return math.fsum(block.sum() for _, block in self._scaled_blocks())

    @property
    def total(self) -> float:
        try:
            return math.ldexp(self._sum, self._scale)
        except OverflowError:
            raise DomainError("sample total overflows") from None

    @property
    def mean(self) -> float:
        return math.ldexp(self._sum / self.n, self._scale)


def _blocks(values: np.ndarray, scale: float = 1.0, start: int = 0):
    """``(i, values[i : i + m] * scale)`` for each block of at most ``_BLOCK``
    values from ``start`` on, each product written over the last in one
    scratch buffer.  ``scale`` is a power of two, so a product is exact for a
    normal value."""
    buf = np.empty(min(_BLOCK, values.size - start))
    for i in range(start, values.size, _BLOCK):
        block = buf[: min(_BLOCK, values.size - i)]
        np.multiply(values[i : i + _BLOCK], scale, out=block)
        yield i, block


def _open(path: str):
    """The input ``path`` as a binary stream: stdin's bytes for "-" (stdin
    itself where it has no bytes), else the file's."""
    if path == "-":
        return contextlib.nullcontext(getattr(sys.stdin, "buffer", sys.stdin))
    return open(path, "rb")


def _read_bytes(path: str) -> bytes:
    """All the bytes of the input ``path``, without a leading byte-order mark
    (spreadsheet exports often start with one)."""
    with _open(path) as stream:
        data = stream.read()
    if isinstance(data, str):  # a text stdin
        data = data.encode("utf-8", "surrogateescape")
    return data.removeprefix(codecs.BOM_UTF8)


def _load_values(source, encoding: str) -> np.ndarray | None:
    """The values of a one-column input read by numpy's C reader from
    ``source``, a path or a binary stream; None where that reader rejects
    the input."""
    try:
        with warnings.catch_warnings():
            # "input contained no data": the per-line parse handles that input
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(source, dtype=float, comments=None, delimiter=",", ndmin=2, encoding=encoding)
    except (OSError, ValueError):
        return None
    if values.size == 0 or values.shape[1] != 1:
        return None
    values.shape = (len(values),)  # one column: an array of its own, no view
    return values


def _lines(text: str):
    """The 1-based number and stripped text of each non-blank line of
    ``text``; lines end at "\\n", "\\r\\n" or a lone "\\r" only."""
    return ((n, line) for n, line in enumerate(map(str.strip, io.StringIO(text, newline=None)), 1) if line)


def _parse_lines(path: str, text: str) -> np.ndarray:
    """``float()`` of each non-blank line of ``text`` (see :func:`_lines`);
    a bad value is reported with its 1-based line number."""
    try:
        return np.array([float(line) for _, line in _lines(text)])
    except ValueError as exc:
        # Only an input that fails pays for finding its first bad line.
        for number, line in _lines(text):
            try:
                float(line)
            except ValueError:
                raise DomainError(f"{path}:{number}: {exc}") from None
        raise


def read_sample(path: str) -> IncomeSample:
    """The sample of a one-number-per-line input: the file ``path``, or stdin's
    bytes for "-".  A leading UTF-8 byte-order mark is dropped, the rest must
    be UTF-8 (else a DomainError with the decoder's message), and blank lines
    are skipped.

    A plain file, by its path, and stdin's bytes are read by numpy's C reader
    (``np.loadtxt``), with no Python float per line.  Names ending in ``.gz``,
    ``.bz2``, ``.xz`` or ``.lzma`` (plain text, never decompressed) and any
    input that reader does not take as one column of numbers (``1_000``,
    Unicode digits, whitespace-only lines, ...) take a per-line ``float()``
    parse instead, with the same values and messages.  Lines end at "\\n",
    "\\r\\n" or a lone "\\r" only, as in a panel: a form feed, vertical tab,
    "\\x1c" to "\\x1e", "\\x85", U+2028 or U+2029 is line content, so "2\\f3"
    is one bad value.  A bad, non-finite (``nan``, ``inf``, ``1e999``) or
    negative value is reported with its 1-based line number, non-finite before
    negative.  The array read is sorted in place and kept, not copied."""
    data = values = None
    if path == "-":
        data = _read_bytes(path)
        # The mark is gone: with "utf-8-sig" numpy would strip one from each line.
        values = _load_values(io.BytesIO(data), "utf-8")
    elif os.path.isfile(path) and not path.endswith((".gz", ".bz2", ".xz", ".lzma")):
        # numpy reads only a path in chunks (any stream a line at a time) and
        # decompresses by these suffixes.  An absolute path is never a URL;
        # joined, not normalized, so ".." after a symlink resolves as the OS does.
        values = _load_values(os.path.join(os.getcwd(), path), "utf-8-sig")
    if values is None:
        data = _read_bytes(path) if data is None else data
        try:
            text = data.decode()
        except UnicodeDecodeError as exc:
            raise DomainError(str(exc)) from None
        values = _parse_lines(path, text)
    # NaN fails both tests, -inf the first, +inf the second; min and max copy nothing.
    if not (values.min(initial=0.0) >= 0.0 and values.max(initial=0.0) < math.inf):
        bad = np.flatnonzero(~((values >= 0.0) & (values < math.inf)))
        nonfinite = ~np.isfinite(values[bad])
        problem = "finite" if nonfinite.any() else "non-negative"
        data = _read_bytes(path) if data is None else data
        number, _ = next(itertools.islice(_lines(data.decode()), int(bad[np.argmax(nonfinite)]), None))
        raise DomainError(f"{path}:{number}: sample values must be {problem}")
    values.sort()
    values.flags.writeable = False
    return IncomeSample._of_sorted(values)


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


class LorenzCurve:
    """Piecewise-linear Lorenz curve: (population share p, income share L).

    Invariants: starts at (0, 0), ends at (1, 1), p strictly increasing,
    L non-decreasing, L(p) <= p, and chord slopes non-decreasing (convexity).
    ``LorenzCurve(p, L)`` checks them all.  A curve built from a checked
    sample by :func:`lorenz_curve` holds them by construction, so it is
    trusted, and keeps only the sample's values, its total and the running
    sum at the start of each block of ``_BLOCK`` values: its p = k/n and its L
    are built when first read, and each measure sums the few points it needs
    from the block that holds them.  Every Lorenz-derived measure is a method
    of the curve.
    """

    def __init__(self, p, L):
        p = np.asarray(p, dtype=float)
        L = np.asarray(L, dtype=float)
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
        self.__dict__.update(p=_frozen(p), L=_frozen(L), _n=L.size - 1, _carries=None)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @cached_property
    def p(self) -> np.ndarray:
        """Population shares; a sample-built curve's, k/n, are built when first read."""
        p = np.arange(self._n + 1) / self._n
        p.flags.writeable = False
        return p

    @cached_property
    def L(self) -> np.ndarray:
        """Income shares; a sample-built curve's are built when first read."""
        L = np.zeros(self._n + 1)
        for i in range(0, self._n, _BLOCK):
            L[i + 1 : i + 1 + _BLOCK] = self._sums(i, min(i + _BLOCK, self._n))
        L /= self._carries[-1]
        L.flags.writeable = False
        return L

    def _sums(self, i: int, stop: int) -> np.ndarray:
        """The running sums S[i + 1 : stop + 1] of a sample-built curve's scaled
        values, S[k] the sum of the k smallest, from the carry S[i] of the
        block that starts at ``i``.  ``np.add.accumulate`` adds in sequence, so
        these are the bits of one cumsum over the whole sample."""
        sums = self._values[i:stop] * self._factor
        sums[0] += self._carries[i // _BLOCK]
        return np.cumsum(sums, out=sums)

    def _at(self, k: np.ndarray) -> np.ndarray:
        """L[k] for an array of indices ``k``; a sample-built curve sums each
        block that holds one only as far as the last index in it."""
        if self._carries is None:
            return self.L[k]
        shares = np.zeros(k.shape)
        for i in set(((k[k > 0] - 1) // _BLOCK * _BLOCK).tolist()):
            here = (i < k) & (k <= i + _BLOCK)
            sums = self._sums(i, int(k[here].max()))
            shares[here] = sums[k[here] - i - 1] / self._carries[-1]
        return shares

    def _segments(self, *xs: np.ndarray) -> list[tuple]:
        """For each share of each array of ``xs``, all in [0, 1], the segment
        that holds it, as a search of p finds it: its ends p[k - 1] and p[k],
        L[k - 1] and L[k], and its slope.  The L of every end is read in one
        call of :meth:`_at`, so each block is summed at most once."""
        n, ends = self._n, []
        for x in xs:
            if self._carries is not None:
                # On the grid fl(j/n), floor(x n) is at most one off the last j <= x.
                j = np.floor(x * n)
                j += (j < n) & ((j + 1.0) / n <= x)
                j -= j / n > x
                k = np.minimum(j.astype(np.intp) + 1, n)
                ends.append((k, (k - 1) / n, k / n))
            else:
                k = np.minimum(np.searchsorted(self.p, x, side="right"), n)
                ends.append((k, self.p[k - 1], self.p[k]))
        k = np.concatenate([np.ravel(k) for k, _, _ in ends])
        lows, highs = self._at(np.stack((k - 1, k)))
        segments, at = [], 0
        for k, left, right in ends:
            lo, hi = (v[at : at + k.size].reshape(k.shape) for v in (lows, highs))
            at += k.size
            segments.append((left, right, lo, hi, (hi - lo) / (right - left)))
        return segments

    @property
    def points(self) -> list[tuple[float, float]]:
        return list(zip(self.p.tolist(), self.L.tolist()))

    def value_at(self, p):
        """Income share of the poorest fraction ``p`` (linear interpolation);
        an array of fractions gives an array."""
        shares = _check_share(p)
        return _interpolate(shares, *self._segments(shares))

    def profile(self, p, x):
        """``value_at(p)`` and ``tail_shares(x)``, their points read in one
        lookup of the curve."""
        shares, tails = _check_share(p), _check_tails(x)
        at, bottom, top = self._segments(shares, tails, 1.0 - tails)
        return _interpolate(shares, at), _tail_shares(tails, bottom, top)

    def gini(self) -> float:
        """Gini coefficient: area between the equality line and the curve
        over the whole area under the equality line.

        Computed as 1 - 2 * (trapezoidal area under the curve), which is
        identical to the pairwise mean-difference form
        sum_ij |y_i - y_j| / (2 n^2 mean).  Population estimator: the maximum
        for a sample of size n is 1 - 1/n.  On the grid p = k/n the area is
        (2 sum_{0<k<n} L_k + 1) / 2n; :func:`lorenz_curve` sums it a block at
        a time as it builds the curve.
        """
        if self._carries is not None:
            return max(1.0 - (2.0 * self._inner + 1.0) / self._n, 0.0)
        area = float(np.sum((self.L[1:] + self.L[:-1]) * np.diff(self.p)) / 2.0)
        return max(1.0 - 2.0 * area, 0.0)

    def tail_shares(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bottom share, top share and B/T ratio of the ``x`` percent tails.

        ``x`` is one cut in (0, 50] or a sequence of them, all read in one
        lookup; each result has one entry per cut.  B/T is 0 when the bottom
        share is zero and never above 1, because the top tail share can never
        fall below the bottom tail share of the same width.
        """
        tails = _check_tails(x)
        return _tail_shares(tails, *self._segments(tails, 1.0 - tails))

    def palma(self) -> float:
        """Top-10% share over bottom-40% share.

        Ranges over [1/4, infinity); raises when the bottom 40% holds nothing.
        """
        bottom, top, _ = self.tail_shares((40.0, 10.0))
        return palma_of(bottom[0], top[1])


def _check_share(p) -> np.ndarray:
    """A population share or an array of them, each in [0, 1], as an array."""
    shares = np.asarray(p, dtype=float)
    if not np.all((0.0 <= shares) & (shares <= 1.0)):
        raise DomainError(f"population share {p!r} outside [0, 1]")
    return shares


def _check_tails(x) -> np.ndarray:
    """The population shares of the percent cuts ``x`` (see
    :func:`_check_percent`), each far enough from 0 that 1 less it is below 1."""
    cuts = _check_percent(x)
    tails = cuts / 100.0
    # The richest x percent always hold something, but where 1 - x/100
    # rounds to 1 the curve cannot tell how much.
    if not np.all(1.0 - tails < 1.0):
        tiny = float(cuts[~(1.0 - tails < 1.0)][0])
        raise DomainError(f"percent cut {tiny!r} too small to resolve the top share")
    return tails


def _interpolate(shares: np.ndarray, segment: tuple):
    """The curve at ``shares`` on the segments that hold them, as
    :meth:`LorenzCurve._segments` gives them: np.interp's arithmetic."""
    left, right, lo, hi, slope = segment
    values = np.where(shares == left, lo, slope * (shares - left) + lo)
    values = np.where(shares == right, hi, values)
    return float(values) if values.ndim == 0 else values


def _tail_shares(tails: np.ndarray, bottom: tuple, top: tuple):
    """:meth:`LorenzCurve.tail_shares` of the tails ``tails``, from the
    segments that hold ``tails`` and ``1 - tails``."""
    low = _interpolate(tails, bottom)
    # 1 - L(1 - x/100) cancels for a small cut, so the top share is read
    # from the right end: the share above the segment that holds the cut,
    # plus the part of that segment right of the cut.
    _, right, _, hi, slope = top
    high = (1.0 - hi) + ((right - 1.0) + tails) * slope
    ratio = np.divide(low, high, out=np.zeros_like(low), where=low != 0.0)
    # float noise can push bottom/top one ulp past 1 when the shares tie
    return low, high, np.minimum(ratio, 1.0)


def palma_of(bottom40: float, top10: float) -> float:
    """The Palma ratio of a bottom-40% share and a top-10% share: top over
    bottom; raises when the bottom 40% holds nothing."""
    if bottom40 == 0.0:
        raise DivisionByZeroShareError("bottom 40% share is zero")
    # A float quotient past the range is inf, with no numpy warning.
    return float(top10) / float(bottom40)


def lorenz_curve(sample) -> LorenzCurve:
    """Empirical Lorenz curve of a sample.

    Its n + 1 points are (k/n, sum of the smallest k values over the total),
    summed a block at a time; the curve keeps the running sum at the start of
    each block.  It is not checked again: the checked sample's sorted,
    non-negative values make it convex (Gastwirth, Econometrica 39(6), 1971).
    """
    sample = _as_sample(sample)
    n = sample.n
    carries, inner = [0.0], []
    # S[k], the sum of the k smallest scaled values, is at most n * max, and the
    # scale rule keeps n**1.5 * max below 2**1020: the n terms S[k] * fit,
    # fit <= 1/n, sum below 2**1020 / sqrt(n), and S[n] * fit stays normal.
    fit = 2.0**-n.bit_length()
    for i, sums in sample._scaled_blocks():
        sums[0] += carries[-1]
        carries.append(float(np.cumsum(sums, out=sums)[-1]))
        sums *= fit
        inner.append(sums[: n - 1 - i].sum())
    curve = LorenzCurve.__new__(LorenzCurve)
    # _inner is the sum of L[1:-1], which the Gini reads
    inner = math.fsum(inner) / (carries[-1] * fit)
    curve.__dict__.update(_n=n, _values=sample.values, _factor=2.0**-sample._scale, _carries=carries, _inner=inner)
    return curve


def gini(sample) -> float:
    """Gini coefficient of a sample; see :meth:`LorenzCurve.gini`."""
    return lorenz_curve(sample).gini()


def bottom_share(sample, x) -> float:
    """Income share held by the poorest ``x`` percent, x in (0, 50]."""
    return float(lorenz_curve(sample).tail_shares(x)[0][0])


def top_share(sample, x) -> float:
    """Income share held by the richest ``x`` percent, x in (0, 50]."""
    return float(lorenz_curve(sample).tail_shares(x)[1][0])


def ratio_b_over_t(sample, x) -> float:
    """Bottom-x share over top-x share; see :meth:`LorenzCurve.tail_shares`."""
    return float(lorenz_curve(sample).tail_shares(x)[2][0])


def palma_ratio(sample) -> float:
    """Top-10% share over bottom-40% share; see :meth:`LorenzCurve.palma`."""
    return lorenz_curve(sample).palma()
