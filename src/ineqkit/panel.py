"""Country-year indicator panels: CSV ingestion, validation, slicing, export.

Panels hold published indicator values (Gini, top-10% share, bottom-10%
share) exactly as reported; nothing is recomputed from micro-data.  Internal
units are always decimals in [0, 1]; percent-unit inputs are converted at the
parse boundary.  A panel is stored as numpy columns and its rows are checked
once, when they are parsed.  Bad rows are skipped and reported as
diagnostics, while a missing declared column rejects the whole file.
"""

from __future__ import annotations

import csv
import enum
import io
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SchemaError


class Source(enum.Enum):
    WB = "WB"
    OECD = "OECD"
    OTHER = "OTHER"


# Sources in value order.  A panel's source column holds indexes into this
# table, so sorting the codes sorts by source value.
SOURCES = tuple(sorted(Source, key=lambda s: s.value))

# The range and ordering rules of a record, in checking order, each with the
# reason a row that breaks it gets.  A rule reads scalars and columns alike.
_SHARE_RULES = (
    (lambda g, t, b: (0.0 < g) & (g < 1.0), "gini out of range: {0!r}"),
    (lambda g, t, b: (0.0 < t) & (t <= 1.0), "top10 share out of range: {1!r}"),
    (lambda g, t, b: (0.0 <= b) & (b < 1.0), "bottom10 share out of range: {2!r}"),
    # NaN never reaches this rule: it breaks a range rule first
    (lambda g, t, b: b <= t, "share ordering violated"),
)


def _share_fault(gini: float, top10: float, bottom10: float) -> str | None:
    """The reason of the first share rule the values break, or None."""
    for rule, reason in _SHARE_RULES:
        if not rule(gini, top10, bottom10):
            return reason.format(gini, top10, bottom10)
    return None


@dataclass(frozen=True)
class CountryYearRecord:
    """One panel row of published indicator values (decimal units)."""

    country: str
    year: int
    gini: float
    top10: float
    bottom10: float
    source: Source = Source.OTHER

    def __post_init__(self):
        if not self.country:
            raise DomainError("country identifier must be non-empty")
        fault = _share_fault(self.gini, self.top10, self.bottom10)
        if fault is not None:
            raise DomainError(fault)

    @property
    def key(self) -> tuple[str, int, str]:
        return (self.country, self.year, self.source.value)


# Column name and dtype of every panel column.
_COLUMNS = {
    "country": np.intp,
    "year": np.int64,
    "source": np.intp,
    "gini": np.float64,
    "top10": np.float64,
    "bottom10": np.float64,
}


def _repeats(country, year, source) -> np.ndarray:
    """Mask of the rows whose (country, year, source) key is that of an
    earlier row.  A stable sort puts equal keys next to each other in row
    order, so each such row follows one with the same key."""
    order = np.lexsort((source, year, country))
    first, then = order[:-1], order[1:]
    repeat = np.zeros(len(order), dtype=bool)
    repeat[then] = (
        (country[then] == country[first])
        & (year[then] == year[first])
        & (source[then] == source[first])
    )
    return repeat


class Panel:
    """Immutable country-year rows stored as numpy columns, unique by
    (country, year, source).

    ``gini``, ``top10`` and ``bottom10`` hold decimal shares and ``year`` the
    year.  ``country`` indexes the sorted name table ``names`` and ``source``
    indexes :data:`SOURCES`, so sorting the codes sorts by the key.
    ``records`` gives the rows as :class:`CountryYearRecord` objects.

    Building a panel from records checks that their keys are unique; the
    panels :func:`parse_panel` and :func:`slice_panel` return are not
    checked again.
    """

    def __init__(self, records=(), label: str = ""):
        records = tuple(records)
        names = sorted({r.country for r in records})
        code = {name: i for i, name in enumerate(names)}
        columns = {name: [getattr(r, name) for r in records] for name in _COLUMNS}
        columns["country"] = [code[name] for name in columns["country"]]
        columns["source"] = [SOURCES.index(source) for source in columns["source"]]
        self._set(label, names, **columns)
        repeat = _repeats(self.country, self.year, self.source)
        if repeat.any():
            raise DomainError(f"duplicate record {records[repeat.argmax()].key}")

    def _set(self, label: str, names, **columns) -> "Panel":
        self.label, self.names = label, tuple(names)
        for name, dtype in _COLUMNS.items():
            values = np.array(columns[name], dtype=dtype)
            values.flags.writeable = False
            setattr(self, name, values)
        return self

    def take(self, rows) -> "Panel":
        """The panel of the rows at the indexes ``rows``, in that order."""
        columns = {name: getattr(self, name)[rows] for name in _COLUMNS}
        return Panel.__new__(Panel)._set(self.label, self.names, **columns)

    @property
    def records(self) -> "_Records":
        return _Records(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Panel):
            return NotImplemented
        return self.label == other.label and self.records == other.records

    def __len__(self) -> int:
        return len(self.year)

    def slice(self, year: int | None = None, source: Source | None = None) -> "Panel":
        return slice_panel(self, year=year, source=source)

    def countries(self) -> list[str]:
        return [self.names[c] for c in np.unique(self.country).tolist()]


class _Records(Sequence):
    """The rows of a panel as :class:`CountryYearRecord` objects, each built
    when it is read."""

    def __init__(self, panel: Panel):
        self._panel = panel

    def __len__(self) -> int:
        return len(self._panel)

    def __getitem__(self, i):
        rows = _Records(self._panel.take(np.atleast_1d(np.arange(len(self))[i])))
        return tuple(rows) if isinstance(i, slice) else next(iter(rows))

    def __iter__(self):
        p = self._panel
        for c, y, s, g, t, b in zip(*(getattr(p, name).tolist() for name in _COLUMNS)):
            yield CountryYearRecord(p.names[c], y, g, t, b, SOURCES[s])

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and tuple(self) == tuple(other)


@dataclass(frozen=True)
class SchemaConfig:
    """Column names and unit modes for panel ingestion.

    ``source`` of None auto-uses a column literally named "source" when the
    header has one and falls back to ``default_source`` otherwise; naming a
    source column explicitly makes it required.
    """

    country: str = "country"
    year: str = "year"
    gini: str = "gini"
    top10: str = "top10"
    bottom10: str = "bottom10"
    source: str | None = None
    gini_unit: str = "decimal"
    share_unit: str = "decimal"
    default_source: Source = Source.OTHER

    def __post_init__(self):
        for name in ("gini_unit", "share_unit"):
            unit = getattr(self, name)
            if unit not in ("decimal", "percent"):
                raise SchemaError(f"{name} must be 'decimal' or 'percent', got {unit!r}")


@dataclass(frozen=True)
class RowDiagnostic:
    """A skipped data row: 1-based line number plus the reason."""

    line: int
    reason: str


# Data rows converted at a time: the cell texts of one block are held at once.
_BLOCK_ROWS = 1 << 14
# Characters of CSV text decoded at a time.
_BLOCK_CHARS = 1 << 20
_SOURCE_CODES = {s.value: i for i, s in enumerate(SOURCES)}


def _lines(text: str):
    """The lines of ``text`` as ``io.StringIO(text)`` gives them, decoded a
    block at a time (StringIO holds four bytes per character)."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _BLOCK_CHARS) + 1 or len(text)
        yield from io.StringIO(text[start:end])
        start = end


def _convert(texts: list[str], kind, dtype) -> tuple[np.ndarray, np.ndarray]:
    """``kind`` of each text as an array of ``dtype``, 0 where ``kind``
    raises, and the mask of the texts where it does not."""
    ok = np.ones(len(texts), dtype=bool)
    try:
        return np.fromiter(map(kind, texts), dtype, len(texts)), ok
    except (LookupError, ValueError, OverflowError):
        pass
    values = np.zeros(len(texts), dtype)
    for i, text in enumerate(texts):
        try:
            values[i] = kind(text)
        except (LookupError, ValueError, OverflowError):
            ok[i] = False
    return values, ok


def parse_panel(
    csv_text: str,
    schema: SchemaConfig = SchemaConfig(),
    label: str = "",
) -> tuple[Panel, list[RowDiagnostic]]:
    """Parse CSV text into a panel plus per-row diagnostics.

    Every non-empty data row either becomes a row of the panel, in file
    order, or produces exactly one diagnostic; there is no silent coercion.
    A row gets the reason of the first check it fails: its cells in the
    order country, year, gini, top10, bottom10, source, then the record's
    range and ordering rules, then a repeat of an earlier kept row's key.
    Percent-mode columns are divided by 100 on the way in.
    """
    reader = csv.reader(_lines(csv_text))
    header = next(reader, None)
    if header is None:
        raise SchemaError("input has no header row")
    header = [h.strip() for h in header]
    positions = {name: i for i, name in enumerate(header)}

    declared = [schema.country, schema.year, schema.gini, schema.top10, schema.bottom10]
    missing = [col for col in declared if col not in positions]
    if schema.source is not None and schema.source not in positions:
        missing.append(schema.source)
    if missing:
        raise SchemaError(f"missing declared column(s): {', '.join(missing)}")
    source_col = schema.source
    if source_col is None and "source" in positions:
        source_col = "source"
    if source_col is not None:
        declared.append(source_col)
    where = [positions[col] for col in declared]
    width = max(where) + 1
    units = (schema.gini_unit, schema.share_unit, schema.share_unit)
    scale = [100.0 if unit == "percent" else 1.0 for unit in units]
    codes: dict[str, int] = {}

    def country_code(text: str) -> int:
        if not text:
            raise ValueError("empty country identifier")
        return codes.setdefault(text, len(codes))

    # How the stripped cells of each declared column convert; a bad one raises.
    kinds = [
        (country_code, np.intp),
        (int, np.int64),
        (float, np.float64),
        (float, np.float64),
        (float, np.float64),
        (lambda text: _SOURCE_CODES[text.upper()], np.intp),
    ][: len(declared)]

    def fault(texts: list[str], length: int) -> str | None:
        """Why a row of ``length`` cells is skipped: the first check it fails."""

        def cell(k: int) -> str:
            if where[k] >= length:
                raise ValueError(f"row too short: no value for column '{declared[k]}'")
            return texts[k]

        try:
            country_code(cell(0))
            text = cell(1)
            try:
                np.int64(int(text))
            except ValueError:
                raise ValueError(f"year is not an integer: {text!r}") from None
            except OverflowError:
                raise ValueError(f"year out of range: {text!r}") from None
            shares = []
            for k in (2, 3, 4):
                text = cell(k)
                try:
                    value = float(text)
                except ValueError:
                    raise ValueError(
                        f"unparseable numeric in column '{declared[k]}': {text!r}"
                    ) from None
                if not math.isfinite(value):
                    raise ValueError(f"non-finite value in column '{declared[k]}': {text!r}")
                shares.append(value / scale[k - 2])
            if len(declared) > 5 and cell(5).upper() not in _SOURCE_CODES:
                raise ValueError(f"unknown source {texts[5].upper()!r}")
        except ValueError as exc:
            return str(exc)
        return _share_fault(*shares)

    # Rows are read a block at a time; a block's cells become columns in
    # one conversion each, and only the rows it flags are checked one by one.
    cells: list[list[str]] = [[] for _ in declared]
    lines = array("q")
    short: dict[int, int] = {}
    blocks: list[list[np.ndarray]] = []
    reasons: dict[int, str] = {}
    start = 0

    def convert_block() -> None:
        nonlocal start
        converted = [_convert(col, kind, dtype) for col, (kind, dtype) in zip(cells, kinds)]
        values = [v for v, _ in converted]
        values[2:5] = [v / s for v, s in zip(values[2:5], scale)]
        # A non-finite share breaks a range rule, so it needs no mask here.
        good = np.logical_and.reduce([ok for _, ok in converted])
        for rule, _ in _SHARE_RULES:
            good &= rule(*values[2:5])
        for j in np.flatnonzero(~good).tolist():
            reasons[start + j] = fault([col[j] for col in cells], short.get(start + j, width))
        blocks.append(values)
        start = len(lines)
        for col in cells:
            col.clear()

    for row in reader:
        if not row:
            continue
        if len(row) < width:
            short[len(lines)] = len(row)
            row += [""] * (width - len(row))
        lines.append(reader.line_num)
        for col, i in zip(cells, where):
            col.append(row[i].strip())
        if len(lines) - start == _BLOCK_ROWS:
            convert_block()
    convert_block()
    country, year, gini, top10, bottom10, *source = map(np.concatenate, zip(*blocks))
    source = source[0] if source else np.full(len(lines), SOURCES.index(schema.default_source))

    names = sorted(codes)
    # One spare slot: a row whose country was rejected reads code 0.
    rank = np.zeros(len(names) + 1, dtype=np.intp)
    rank[[codes[name] for name in names]] = np.arange(len(names))
    country = rank[country]
    kept = np.ones(len(lines), dtype=bool)
    kept[list(reasons)] = False
    live = np.flatnonzero(kept)
    repeat = live[_repeats(country[live], year[live], source[live])]
    for i in repeat.tolist():
        key = (names[country[i]], year[i].item(), SOURCES[source[i]].value)
        reasons[i] = f"duplicate record {key}"
    kept[repeat] = False

    columns = zip(_COLUMNS, (country, year, source, gini, top10, bottom10))
    panel = Panel.__new__(Panel)._set(label, names, **{k: v[kept] for k, v in columns})
    return panel, [RowDiagnostic(line=lines[i], reason=reasons[i]) for i in sorted(reasons)]


def _share_ratio(rows, numerator, denominator, zero_bottom: float):
    """numerator / denominator, or ``zero_bottom`` where the bottom share is 0."""
    out = np.full(np.shape(rows.bottom10), zero_bottom)
    with np.errstate(over="ignore"):  # a subnormal bottom share's T/B is +inf
        np.divide(numerator, denominator, out=out, where=np.asarray(rows.bottom10) != 0.0)
    return float(out) if out.ndim == 0 else out


def ratio_of(rows):
    """Canonical B/T share ratio of a record, or of every row of a panel;
    0 where the bottom share is 0."""
    return _share_ratio(rows, rows.bottom10, rows.top10, 0.0)


def t_over_b_of(rows):
    """Printed-style T/B ratio of a record, or of every row of a panel;
    +infinity where the bottom share is 0."""
    return _share_ratio(rows, rows.top10, rows.bottom10, np.inf)


def slice_panel(
    panel: Panel,
    year: int | None = None,
    source: Source | None = None,
) -> Panel:
    """Rows matching the filters, in ascending (country, year, source) order."""
    keep = np.ones(len(panel), dtype=bool)
    if year is not None:
        keep &= panel.year == year
    if source is not None:
        keep &= panel.source == SOURCES.index(source)
    rows = np.flatnonzero(keep)
    order = np.lexsort((panel.source[rows], panel.year[rows], panel.country[rows]))
    return panel.take(rows[order])


CANONICAL_COLUMNS = ("country", "year", "source", "gini", "top10", "bottom10")


def serialize_panel(panel: Panel) -> str:
    """Canonical CSV (decimal units, fixed column order, full float precision)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CANONICAL_COLUMNS)
    for r in panel.records:
        writer.writerow(
            [r.country, r.year, r.source.value, repr(r.gini), repr(r.top10), repr(r.bottom10)]
        )
    return out.getvalue()
