"""The CSV rows of `ineq compute`, laid out a chunk at a time in one byte
matrix; only `ineq compute` imports this module."""

from __future__ import annotations

import numpy as np

# A field of `ineq compute` below this is printed from its count of
# millionths, which float64 holds exactly.
_MILLIONTHS_BELOW = 2.0**52 / 1e6


def _digits(values: np.ndarray, least: int, out: np.ndarray, keep: np.ndarray) -> None:
    """Write the decimal digits of non-negative integers as ASCII bytes into
    the rows of ``out``, right-aligned, and clear in ``keep`` (set on entry)
    the leading zeros before the last ``least`` digits."""
    width = out.shape[1]
    rest = values
    for j in range(width - 1, -1, -1):
        # numpy divides by a scalar divisor faster than np.divmod does
        quotient = rest // 10
        out[:, j] = rest - quotient * 10 + ord("0")
        rest = quotient
    if width > least:
        powers = 10 ** np.arange(width - 1, least - 1, -1, dtype=np.int64)
        np.greater_equal(values[:, None], powers, out=keep[:, : width - least])


def _millionths(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x * 1e6`` rounded to integers, and the mask of the values whose
    ``f"{x:.6f}"`` prints that integer: 0 <= x < 2**52 / 1e6 and not -0.0,
    so the product is within half an ulp of the exact one, and the product
    is more than 4 ulp from a half-integer, so that error cannot cross it."""
    exact = (x >= 0.0) & (x < _MILLIONTHS_BELOW) & ~np.signbit(x)
    scaled = np.where(exact, x, 0.0) * 1e6
    exact &= np.abs(scaled - np.floor(scaled) - 0.5) > 4.0 * np.spacing(scaled)
    return np.rint(scaled).astype(np.int64), exact


def _name_table(names: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The UTF-8 bytes of ``names`` as one zero-padded matrix, a row per
    name, and their lengths."""
    encoded = [name.encode() for name in names]
    table = np.array(encoded, dtype=bytes)
    return table.view(np.uint8).reshape(len(table), table.itemsize), np.array(list(map(len, encoded)))


def _compute_rows(names: list[str], country, year, fields, name_table) -> str:
    """The CSV rows ``names[country],year,*fields`` of `ineq compute`, each
    field as ``f"{x:.6f}"``; ``name_table`` is ``_name_table(names)``.

    The rows are laid out in one byte matrix with a slot per byte, and one
    mask drops the unused slots.  A row with a value the matrix cannot print
    exactly (a negative year, or a field that is negative, -0.0, inf, NaN,
    huge or near a rounding tie) is formatted by an f-string instead.
    """
    table, lengths = name_table
    millionths = [_millionths(x) for x in fields]
    fast = np.logical_and.reduce([year >= 0, *(exact for _, exact in millionths)])
    code = country[fast]
    # Each number after its separator: the year, then each field's whole
    # millionths and the six digits after its point.
    numbers = [(",", year[fast], 1)]
    for k, _ in millionths:
        whole = k[fast] // 10**6
        numbers += [(",", whole, 1), (".", k[fast] - whole * 10**6, 6)]
    del millionths
    widths = [max(least, len(str(v.max(initial=0)))) for _, v, least in numbers]
    matrix = np.empty((len(code), table.shape[1] + sum(widths) + len(widths) + 1), np.uint8)
    keep = np.ones(matrix.shape, bool)
    matrix[:, : table.shape[1]] = table[code]
    np.less(np.arange(table.shape[1]), lengths[code][:, None], out=keep[:, : table.shape[1]])
    at = table.shape[1]
    for width in widths:
        separator, values, least = numbers.pop(0)  # dropped once written
        matrix[:, at] = ord(separator)
        at += 1 + width
        _digits(values, least, matrix[:, at - width : at], keep[:, at - width : at])
    matrix[:, at] = ord("\n")
    # The kept slots move to the front of the matrix, 512 rows at a time, not to a copy.
    blob, size = matrix.reshape(-1), 0
    for start in range(0, len(matrix), 512):
        part = matrix[start : start + 512][keep[start : start + 512]]
        blob[size : size + len(part)] = part
        size += len(part)
    if fast.all():
        return str(blob[:size], "utf-8")

    # Splice the f-string rows in at their places.
    ends = np.concatenate(([0], np.cumsum(keep.sum(axis=1))))
    parts, done = [], 0
    for r, i in enumerate(np.flatnonzero(~fast).tolist()):
        before = i - r  # matrix rows ahead of row i
        parts.append(blob[ends[done] : ends[before]])
        c, y, g, tb, h, ix, a = (v[i].item() for v in (country, year, *fields))
        parts.append(f"{names[c]},{y},{g:.6f},{tb:.6f},{h:.6f},{ix:.6f},{a:.6f}\n".encode())
        done = before
    parts.append(blob[ends[done] : size])
    return str(b"".join(parts), "utf-8")
