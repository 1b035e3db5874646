"""Country rankings, ranking comparisons, and per-country time series.

Rankings use competition ranks on values rounded half-away-from-zero to three
decimals: tied entries share a rank and the next distinct value's rank is one
plus the number of strictly better entries ("1224").  Lower value means more
equal, so rank 1 is the most equal country.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .composite import (
    DEFAULT_WEIGHT,
    alternative_index,
    b_over_t_from_t_over_b,
    calibrate_alpha,
    composite,
)
from .errors import DomainError, EmptyInputError, JoinError, NotFoundError
from .panel import CountryYearRecord, Panel, ratio_of, slice_panel, t_over_b_of


class Indicator(enum.Enum):
    GINI = "gini"
    INDEX_I = "index"
    RATIO_TB = "ratio"
    ALT = "alt"


RANK_DECIMALS = 3


def round_half_away(value: float, ndigits: int = RANK_DECIMALS) -> float:
    """Round to ``ndigits`` decimals with ties going away from zero.  A
    float of magnitude 2**52 or more is an integer already, and is kept."""
    if not math.isfinite(value) or abs(value) >= 2**52:
        return value
    quantum = Decimal(1).scaleb(-ndigits)
    return float(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class RankEntry:
    rank: int
    country: str
    value: float


@dataclass(frozen=True)
class RankTable:
    entries: tuple[RankEntry, ...]
    indicator: Indicator

    def rank_of(self, country: str) -> int:
        for entry in self.entries:
            if entry.country == country:
                return entry.rank
        raise NotFoundError(country)


@dataclass(frozen=True)
class RankComparison:
    """Per-country rank pairs between two tables over the same country set."""

    changed: int
    unchanged: int
    per_country: dict[str, tuple[int, int]]


@dataclass(frozen=True)
class SeriesPoint:
    year: int
    gini: float
    t_over_b: float
    index_i: float


def indicator_value(
    rows: CountryYearRecord | Panel,
    indicator: Indicator,
    weight: float = DEFAULT_WEIGHT,
):
    """Indicator value of a record, or the column of values of a panel."""
    if indicator is Indicator.GINI:
        return rows.gini
    if indicator is Indicator.INDEX_I:
        return composite(rows.gini, ratio_of(rows), weight).index_i
    if indicator is Indicator.RATIO_TB:
        return t_over_b_of(rows)
    if indicator is Indicator.ALT:
        return alternative_index(rows.gini, t_over_b_of(rows))
    raise DomainError(f"unknown indicator {indicator!r}")


def rank_values(values: dict[str, float], indicator: Indicator) -> RankTable:
    """Competition-rank a country -> value mapping (values already computed).

    Values are rounded to three decimals before ranking so that ties printed
    at table precision are honored.  A NaN value cannot be ranked; an
    infinite one (a zero bottom share's T/B) ranks last.
    """
    if not values:
        raise EmptyInputError("nothing to rank")
    for country, value in values.items():
        if math.isnan(value):
            raise DomainError(f"cannot rank {country!r}: its {indicator.value} is NaN")
    rounded = sorted((round_half_away(v), c) for c, v in values.items())
    entries = []
    current_rank = 1
    for pos, (value, country) in enumerate(rounded, start=1):
        if pos > 1 and value != rounded[pos - 2][0]:
            current_rank = pos
        entries.append(RankEntry(rank=current_rank, country=country, value=value))
    return RankTable(entries=tuple(entries), indicator=indicator)


def rank(panel: Panel, indicator: Indicator, weight: float = DEFAULT_WEIGHT) -> RankTable:
    """Rank a single-year, single-source panel under one indicator."""
    if not len(panel):
        raise EmptyInputError("cannot rank an empty panel")
    if (panel.year != panel.year[0]).any() or (panel.source != panel.source[0]).any():
        raise DomainError("rank expects a single-year, single-source panel")
    countries = [panel.names[c] for c in panel.country.tolist()]
    values = indicator_value(panel, indicator, weight).tolist()
    return rank_values(dict(zip(countries, values)), indicator)


def compare_rankings(a: RankTable, b: RankTable) -> RankComparison:
    """Count countries whose rank differs between two tables.

    Any rank difference counts as changed, including moves within tie
    groups.  The tables must cover the same country set.
    """
    ranks_a = {e.country: e.rank for e in a.entries}
    ranks_b = {e.country: e.rank for e in b.entries}
    if ranks_a.keys() != ranks_b.keys():
        only_a = sorted(ranks_a.keys() - ranks_b.keys())
        only_b = sorted(ranks_b.keys() - ranks_a.keys())
        raise JoinError(
            f"country sets differ: only in first {only_a}, only in second {only_b}"
        )
    per_country = {c: (ranks_a[c], ranks_b[c]) for c in sorted(ranks_a)}
    changed = sum(1 for ra, rb in per_country.values() if ra != rb)
    return RankComparison(
        changed=changed,
        unchanged=len(per_country) - changed,
        per_country=per_country,
    )


@dataclass(frozen=True)
class ReplicatedRow:
    """A row of a published table recomputed: H and the composite index
    from its Gini and printed T/B, and their absolute deviations from the
    published H and index."""

    country: str
    gini: float
    ratio: float
    h: float
    index_i: float
    dh: float
    di: float


def _worst(rows, deviation: str) -> tuple[float, str]:
    """The largest deviation of the rows and the first country with it;
    (0.0, "") when none is above 0."""
    return max([(0.0, ""), *((getattr(r, deviation), r.country) for r in rows)], key=lambda w: w[0])


@dataclass(frozen=True)
class Replication:
    """A published table recomputed row by row, in the order given."""

    rows: tuple[ReplicatedRow, ...]

    @property
    def worst_h(self) -> tuple[float, str]:
        return _worst(self.rows, "dh")

    @property
    def worst_i(self) -> tuple[float, str]:
        return _worst(self.rows, "di")

    def rank_changes(self) -> RankComparison:
        """Rank changes between the Gini and the recomputed index."""
        return compare_rankings(
            rank_values({r.country: r.gini for r in self.rows}, Indicator.GINI),
            rank_values({r.country: r.index_i for r in self.rows}, Indicator.INDEX_I),
        )

    def alpha(self) -> float:
        """The tail exponent calibrated from the Gini and B/T averages."""
        if not (n := len(self.rows)):
            raise EmptyInputError("no rows to calibrate on")
        return calibrate_alpha(
            sum(r.gini for r in self.rows) / n, sum(r.ratio for r in self.rows) / n
        )


def replicate_table(rows, weight: float = DEFAULT_WEIGHT) -> Replication:
    """Recompute each ``(country, gini, t_over_b, h, index_i)`` row of a
    published table, in one composite over its columns, and compare it with
    the published H and index."""
    rows = list(rows)
    gini, t_over_b, h, index_i = (np.array([r[k] for r in rows], dtype=float) for k in range(1, 5))
    res = composite(gini, b_over_t_from_t_over_b(t_over_b), weight)
    columns = (res.gini, res.b_over_t, res.h, res.index_i, abs(res.h - h), abs(res.index_i - index_i))
    return Replication(tuple(map(ReplicatedRow, [r[0] for r in rows], *(c.tolist() for c in columns))))


def series(panel: Panel, country: str, weight: float = DEFAULT_WEIGHT) -> list[SeriesPoint]:
    """Year-ascending (gini, T/B, index) trajectory for one country; rows
    of one year are in source order."""
    points = slice_panel(panel, country=country)
    if not len(points):
        raise NotFoundError(country)
    index_i = composite(points.gini, ratio_of(points), weight).index_i
    return [
        SeriesPoint(year=y, gini=g, t_over_b=t, index_i=i)
        for y, g, t, i in zip(
            points.year.tolist(),
            points.gini.tolist(),
            t_over_b_of(points).tolist(),
            index_i.tolist(),
        )
    ]
