"""Country-year indicator panels: CSV ingestion, validation, slicing, export.

Panels hold published indicator values (Gini, top-10% share, bottom-10%
share) exactly as reported; nothing is recomputed from micro-data.  Internal
units are always decimals in [0, 1]; percent-unit inputs are converted at the
parse boundary.  Bad rows are skipped and reported as diagnostics, while a
missing declared column rejects the whole file.
"""

from __future__ import annotations

import csv
import enum
import io
import math
from dataclasses import dataclass

from .errors import DomainError, SchemaError


class Source(enum.Enum):
    WB = "WB"
    OECD = "OECD"
    OTHER = "OTHER"


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
        if not 0.0 < self.gini < 1.0:
            raise DomainError(f"gini out of range: {self.gini!r}")
        if not 0.0 < self.top10 <= 1.0:
            raise DomainError(f"top10 share out of range: {self.top10!r}")
        if not 0.0 <= self.bottom10 < 1.0:
            raise DomainError(f"bottom10 share out of range: {self.bottom10!r}")
        if self.bottom10 > self.top10:
            raise DomainError("share ordering violated")

    @property
    def key(self) -> tuple[str, int, str]:
        return (self.country, self.year, self.source.value)


@dataclass(frozen=True)
class Panel:
    """Immutable collection of records, unique by (country, year, source)."""

    records: tuple[CountryYearRecord, ...]
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        seen = set()
        for rec in self.records:
            if rec.key in seen:
                raise DomainError(f"duplicate record {rec.key}")
            seen.add(rec.key)

    def __len__(self) -> int:
        return len(self.records)

    def slice(self, year: int | None = None, source: Source | None = None) -> "Panel":
        return slice_panel(self, year=year, source=source)

    def countries(self) -> list[str]:
        return sorted({r.country for r in self.records})


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


def _parse_float(cell: str, column: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(f"unparseable numeric in column '{column}': {cell!r}")
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"non-finite value in column '{column}': {cell!r}")
    return value


def parse_panel(
    csv_text: str,
    schema: SchemaConfig = SchemaConfig(),
    label: str = "",
) -> tuple[Panel, list[RowDiagnostic]]:
    """Parse CSV text into a panel plus per-row diagnostics.

    Every non-empty data row either becomes a record or produces exactly one
    diagnostic; there is no silent coercion.  Percent-mode columns are
    divided by 100 on the way in.
    """
    reader = csv.reader(io.StringIO(csv_text))
    header = next(reader, None)
    if header is None:
        raise SchemaError("input has no header row")
    header = [h.strip() for h in header]
    positions = {name: i for i, name in enumerate(header)}

    declared = {
        "country": schema.country,
        "year": schema.year,
        "gini": schema.gini,
        "top10": schema.top10,
        "bottom10": schema.bottom10,
    }
    missing = [col for col in declared.values() if col not in positions]
    if schema.source is not None and schema.source not in positions:
        missing.append(schema.source)
    if missing:
        raise SchemaError(f"missing declared column(s): {', '.join(missing)}")
    source_col = schema.source
    if source_col is None and "source" in positions:
        source_col = "source"

    gini_div = 100.0 if schema.gini_unit == "percent" else 1.0
    share_div = 100.0 if schema.share_unit == "percent" else 1.0

    records: list[CountryYearRecord] = []
    diagnostics: list[RowDiagnostic] = []
    seen: set[tuple[str, int, str]] = set()

    for row in reader:
        line = reader.line_num
        if not row:
            continue

        def cell(col: str) -> str:
            idx = positions[col]
            if idx >= len(row):
                raise ValueError(f"row too short: no value for column '{col}'")
            return row[idx].strip()

        try:
            country = cell(declared["country"])
            if not country:
                raise ValueError("empty country identifier")
            year_text = cell(declared["year"])
            try:
                year = int(year_text)
            except ValueError:
                raise ValueError(f"year is not an integer: {year_text!r}")
            gini = _parse_float(cell(declared["gini"]), declared["gini"]) / gini_div
            top10 = _parse_float(cell(declared["top10"]), declared["top10"]) / share_div
            bottom10 = _parse_float(cell(declared["bottom10"]), declared["bottom10"]) / share_div
            if source_col is not None:
                src_text = cell(source_col).upper()
                try:
                    source = Source(src_text)
                except ValueError:
                    raise ValueError(f"unknown source {src_text!r}")
            else:
                source = schema.default_source
            # The record's own checks (a DomainError is a ValueError) give
            # the range and ordering reasons.
            record = CountryYearRecord(
                country=country,
                year=year,
                gini=gini,
                top10=top10,
                bottom10=bottom10,
                source=source,
            )
            key = record.key
            if key in seen:
                raise ValueError(f"duplicate record {key}")
        except ValueError as exc:
            diagnostics.append(RowDiagnostic(line=line, reason=str(exc)))
            continue
        seen.add(key)
        records.append(record)

    return Panel(tuple(records), label=label), diagnostics


def ratio_of(record: CountryYearRecord) -> float:
    """Canonical B/T share ratio of a record; 0 when the bottom share is 0."""
    if record.bottom10 == 0.0:
        return 0.0
    return record.bottom10 / record.top10


def t_over_b_of(record: CountryYearRecord) -> float:
    """Printed-style T/B ratio; +infinity when the bottom share is 0."""
    if record.bottom10 == 0.0:
        return math.inf
    return record.top10 / record.bottom10


def slice_panel(
    panel: Panel,
    year: int | None = None,
    source: Source | None = None,
) -> Panel:
    """Records matching the filters, in ascending (country, year, source) order."""
    kept = [
        r
        for r in panel.records
        if (year is None or r.year == year) and (source is None or r.source == source)
    ]
    kept.sort(key=lambda r: r.key)
    return Panel(tuple(kept), label=panel.label)


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
