"""Output checks written independently of ineqkit.

Each check takes the text an `ineq` subcommand printed and returns a list of
problems; an empty list means the output is correct.  The expected values
come from the generator's own records and the closed forms below, never from
ineqkit code.
"""

from __future__ import annotations

import csv
import io
import math
import re
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from inputs import MicroInput, PanelInput

TOL = 1e-6
WEIGHT = 0.25  # the CLI's default tail exponent
SUBSET = 500
_SKIP_LINE = re.compile(r"^(?P<label>.*):(?P<line>\d+): skipped row: (?P<reason>.*)$")


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _close(label: str, printed: str, expected: float, problems: list[str]) -> None:
    if not abs(float(printed) - expected) <= TOL:
        problems.append(f"{label}: printed {printed}, expected {expected!r}")


def _record(row: tuple) -> tuple[str, int, str, float, float, float]:
    country, year, source, gini, top10, bottom10 = row
    return country, year, source, float(gini), float(top10), float(bottom10)


def composite_values(gini: float, top10: float, bottom10: float) -> tuple[float, float, float]:
    """(h, index_i, alt_index) from the paper's formulas at the default weight."""
    h = 1.0 - (bottom10 / top10) ** WEIGHT
    index_i = math.sqrt(gini * gini + h * h) / math.sqrt(2.0)
    alt_index = math.sqrt((100.0 * gini) ** 2 + (top10 / bottom10) ** 2) / 100.0
    return h, index_i, alt_index


def round3(value: float) -> float:
    """Half-away-from-zero rounding to the three decimals tables print."""
    return float(Decimal(repr(value)).quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


def competition_ranks(values: list[float]) -> list[int]:
    """Rank of each value: one plus the number of strictly smaller values."""
    ordered = sorted(values)
    first = {}
    for pos, value in enumerate(ordered, start=1):
        first.setdefault(value, pos)
    return [first[v] for v in values]


def check_skipped(panel: PanelInput, label: str, stderr: str) -> list[str]:
    """stderr must be exactly one `skipped row` line per injected bad row,
    at its line number and with the reason of its kind."""
    problems = []
    seen = {}
    for text in stderr.splitlines():
        match = _SKIP_LINE.match(text)
        if match is None or match["label"] != label:
            problems.append(f"unexpected stderr line: {text[:120]!r}")
            continue
        seen[int(match["line"])] = match["reason"]
    if len(seen) != len(panel.bad_lines):
        problems.append(f"{len(seen)} skipped rows reported, {len(panel.bad_lines)} injected")
    for line, keyword in panel.bad_lines.items():
        reason = seen.get(line)
        if reason is None or keyword not in reason:
            problems.append(f"line {line}: expected a {keyword!r} skip, got {reason!r}")
            break
    return problems


def check_compute(panel: PanelInput, seed: int, stdout: str) -> list[str]:
    rows = _rows(stdout)
    if rows[:1] != [["country", "year", "gini", "t_over_b", "h", "index_i", "alt_index"]]:
        return [f"compute: bad header {rows[:1]!r}"]
    rows = rows[1:]
    expected = sorted(panel.valid, key=lambda r: (r[0], r[1], r[2]))
    if len(rows) != len(expected):
        return [f"compute: {len(rows)} rows, expected {len(expected)}"]
    problems = []
    for row, exp in zip(rows, expected):
        if row[0] != exp[0] or row[1] != str(exp[1]):
            problems.append(f"compute: row {row[:2]} out of order, expected {exp[:2]}")
            return problems
    rng = np.random.default_rng([seed, 3])
    for k in rng.choice(len(rows), size=min(SUBSET, len(rows)), replace=False).tolist():
        country, year, _, gini, top10, bottom10 = _record(expected[k])
        h, index_i, alt = composite_values(gini, top10, bottom10)
        tag = f"compute {country}/{year}"
        for printed, value in zip(rows[k][2:], (gini, top10 / bottom10, h, index_i, alt)):
            _close(tag, printed, value, problems)
    return problems


def _slice(panel: PanelInput, year: int, source: str | None = None) -> list[tuple]:
    return [
        _record(r) for r in panel.valid if r[1] == year and (source is None or r[2] == source)
    ]


def check_rank(panel: PanelInput, year: int, source: str, stdout: str) -> list[str]:
    rows = _rows(stdout)
    if rows[:1] != [["rank", "country", "value"]]:
        return [f"rank: bad header {rows[:1]!r}"]
    rows = rows[1:]
    expected = {r[0]: round3(composite_values(*r[3:])[1]) for r in _slice(panel, year, source)}
    if sorted(r[1] for r in rows) != sorted(expected):
        return [f"rank: {len(rows)} countries, expected {len(expected)}"]
    values = [float(r[2]) for r in rows]
    problems = []
    for row, value in zip(rows, values):
        if abs(value - expected[row[1]]) > TOL:
            problems.append(f"rank {row[1]}: value {row[2]}, expected {expected[row[1]]}")
            break
    if [(v, r[1]) for v, r in zip(values, rows)] != sorted((v, r[1]) for v, r in zip(values, rows)):
        problems.append("rank: rows not in (value, country) order")
    if [int(r[0]) for r in rows] != competition_ranks(values):
        problems.append("rank: ranks do not follow competition ranking")
    return problems


def check_compare(panel: PanelInput, year: int, source: str, stdout: str) -> list[str]:
    records = _slice(panel, year, source)
    gini_ranks = competition_ranks([round3(r[3]) for r in records])
    index_ranks = competition_ranks([round3(composite_values(*r[3:])[1]) for r in records])
    changed = sum(a != b for a, b in zip(gini_ranks, index_ranks))
    expected = [["changed", "unchanged"], [str(changed), str(len(records) - changed)]]
    if _rows(stdout) != expected:
        return [f"compare: printed {_rows(stdout)!r}, expected {expected!r}"]
    return []


def check_series(panel: PanelInput, country: str, stdout: str) -> list[str]:
    rows = _rows(stdout)
    if rows[:1] != [["year", "gini", "t_over_b", "index_i"]]:
        return [f"series: bad header {rows[:1]!r}"]
    rows = rows[1:]
    expected = sorted(
        (_record(r) for r in panel.valid if r[0] == country), key=lambda r: (r[1], r[2])
    )
    if len(rows) != len(expected):
        return [f"series: {len(rows)} rows, expected {len(expected)}"]
    problems = []
    for row, (_, year, _, gini, top10, bottom10) in zip(rows, expected):
        if row[0] != str(year):
            return [f"series: year {row[0]}, expected {year}"]
        index_i = composite_values(gini, top10, bottom10)[1]
        for printed, value in zip(row[1:], (gini, top10 / bottom10, index_i)):
            _close(f"series {year}", printed, value, problems)
    return problems


def check_calibrate(panel: PanelInput, year: int, stdout: str) -> list[str]:
    """--by-sample: one alpha per (source, year) sample, then their mean."""
    rows = _rows(stdout)
    if rows[:1] != [["source", "year", "n", "avg_gini", "avg_ratio", "alpha"]]:
        return [f"calibrate: bad header {rows[:1]!r}"]
    rows = rows[1:]
    records = _slice(panel, year)
    sources = sorted({r[2] for r in records})
    if len(rows) != len(sources) + 1:
        return [f"calibrate: {len(rows)} rows, expected {len(sources) + 1}"]
    problems = []
    alphas = []
    for row, source in zip(rows, sources):
        sample = [r for r in records if r[2] == source]
        avg_gini = math.fsum(r[3] for r in sample) / len(sample)
        avg_ratio = math.fsum(r[5] / r[4] for r in sample) / len(sample)
        alpha = math.log(1.0 - avg_gini) / math.log(avg_ratio)
        alphas.append(alpha)
        if row[:3] != [source, str(year), str(len(sample))]:
            problems.append(f"calibrate: row {row[:3]}, expected {[source, year, len(sample)]}")
        for printed, value in zip(row[3:], (avg_gini, avg_ratio, alpha)):
            _close(f"calibrate {source}/{year}", printed, value, problems)
    mean_row = rows[-1]
    if mean_row[:3] != ["mean", "", str(len(records))]:
        problems.append(f"calibrate: mean row {mean_row[:3]}")
    _close("calibrate mean alpha", mean_row[5], math.fsum(alphas) / len(alphas), problems)
    return problems


def micro_expected(cents: np.ndarray) -> dict[str, float]:
    """n, mean, Gini (sorted closed form), Theil and MLD of a sample in cents."""
    x = np.sort(cents) / 100.0
    n = x.size
    total = x.sum()
    ranks = np.arange(1, n + 1, dtype=float)
    r = x / x.mean()
    return {
        "n": n,
        "mean": total / n,
        "gini": 2.0 * np.dot(ranks, x) / (n * total) - (n + 1.0) / n,
        "theil": float(np.mean(r * np.log(r))),
        "mld": float(np.mean(np.log(x.mean() / x))),
    }


def check_micro(micro: MicroInput, stdout: str, stderr: str = "") -> list[str]:
    rows = _rows(stdout)
    if rows[:1] != [["metric", "value"]]:
        return [f"micro: bad header {rows[:1]!r}"]
    printed = dict(r for r in rows[1:] if len(r) == 2)
    expected = micro_expected(micro.cents)
    problems = [f"micro: unexpected stderr {stderr[:120]!r}"] if stderr else []
    if printed.get("n") != str(expected["n"]):
        problems.append(f"micro: n {printed.get('n')}, expected {expected['n']}")
    if "mean" in printed and not math.isclose(float(printed["mean"]), expected["mean"], rel_tol=1e-9):
        problems.append(f"micro: mean {printed['mean']}, expected {expected['mean']}")
    for name in ("gini", "theil", "mld"):
        if name not in printed:
            problems.append(f"micro: no {name} row")
        else:
            _close(f"micro {name}", printed[name], expected[name], problems)
    return problems
