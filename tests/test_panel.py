"""Panel ingestion: parsing, diagnostics, units, slicing, serialization."""

import csv
import io
import math
import os
import pickle
import re
import signal
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import ineqkit.panel as panel_module
from ineqkit import (
    CountryYearRecord,
    DomainError,
    Panel,
    SchemaConfig,
    SchemaError,
    Source,
    parse_panel,
    ratio_of,
    serialize_panel,
    slice_panel,
    t_over_b_of,
)

PERCENT_SCHEMA = SchemaConfig(gini_unit="percent", share_unit="percent")


class TestParse:
    def test_percent_mode_row(self):
        text = "country,year,gini,top10,bottom10\nGRC,2015,36.0,26.2,1.9\n"
        panel, diags = parse_panel(text, PERCENT_SCHEMA)
        assert diags == []
        (rec,) = panel.records
        assert rec.country == "GRC"
        assert rec.year == 2015
        assert rec.gini == pytest.approx(0.360, abs=1e-12)
        assert rec.top10 == pytest.approx(0.262, abs=1e-12)
        assert rec.bottom10 == pytest.approx(0.019, abs=1e-12)
        assert rec.source is Source.OTHER
        assert t_over_b_of(rec) == pytest.approx(13.79, abs=0.01)

    def test_empty_data_section(self):
        panel, diags = parse_panel("country,year,gini,top10,bottom10\n")
        assert len(panel) == 0
        assert diags == []

    def test_share_ordering_violation_dropped(self):
        text = "country,year,gini,top10,bottom10\nAAA,2015,0.3,0.05,0.2\n"
        panel, diags = parse_panel(text)
        assert len(panel) == 0
        assert len(diags) == 1
        assert "share ordering violated" in diags[0].reason

    @pytest.mark.parametrize(
        "values, reason",
        [
            ((1.3, 0.25, 0.03), "gini out of range: 1.3"),
            ((0.3, 1.25, 0.03), "top10 share out of range: 1.25"),
            ((0.3, 0.25, -0.03), "bottom10 share out of range: -0.03"),
            ((0.3, 0.02, 0.03), "share ordering violated"),
            ((1.3, 1.25, -0.03), "gini out of range: 1.3"),
        ],
    )
    def test_row_reason_is_the_record_rule(self, values, reason):
        gini, top10, bottom10 = values
        text = f"country,year,gini,top10,bottom10\nAAA,2015,{gini},{top10},{bottom10}\n"
        _, diags = parse_panel(text)
        assert [d.reason for d in diags] == [reason]
        with pytest.raises(DomainError) as exc:
            CountryYearRecord("AAA", 2015, gini, top10, bottom10)
        assert str(exc.value) == reason

    def test_missing_column_rejects_file(self):
        with pytest.raises(SchemaError):
            parse_panel("country,year,gini,top10\nAAA,2015,0.3,0.25\n")

    def test_named_source_column_is_required(self):
        text = "country,year,gini,top10,bottom10,source\nAAA,2015,0.3,0.25,0.03,WB\n"
        with pytest.raises(SchemaError) as exc:
            parse_panel(text, SchemaConfig(source="origin"))
        assert str(exc.value) == "missing declared column(s): origin"

    @pytest.mark.parametrize("field", ["gini_unit", "share_unit"])
    def test_schema_rejects_an_unknown_unit(self, field):
        with pytest.raises(SchemaError) as exc:
            SchemaConfig(**{field: "permille"})
        assert str(exc.value) == f"{field} must be 'decimal' or 'percent', got 'permille'"

    def test_custom_column_names(self):
        schema = SchemaConfig(
            country="Country Name",
            year="Year",
            gini="Gini",
            top10="Top decile",
            bottom10="Bottom decile",
        )
        text = "Country Name,Year,Gini,Top decile,Bottom decile\nAAA,2010,0.4,0.3,0.02\n"
        panel, diags = parse_panel(text, schema)
        assert diags == []
        assert panel.records[0].gini == 0.4

    def test_source_column_autodetected(self):
        text = "country,year,source,gini,top10,bottom10\nAAA,2015,WB,0.3,0.25,0.03\n"
        panel, _ = parse_panel(text)
        assert panel.records[0].source is Source.WB

    def test_default_source_label(self):
        schema = SchemaConfig(default_source=Source.OECD)
        text = "country,year,gini,top10,bottom10\nAAA,2015,0.3,0.25,0.03\n"
        panel, _ = parse_panel(text, schema)
        assert panel.records[0].source is Source.OECD

    def test_bad_rows_become_diagnostics(self):
        text = (
            "country,year,gini,top10,bottom10\n"
            "AAA,2015,0.30,0.25,0.03\n"
            "BBB,not-a-year,0.30,0.25,0.03\n"
            "CCC,2015,abc,0.25,0.03\n"
            ",2015,0.30,0.25,0.03\n"
            "DDD,2015,1.30,0.25,0.03\n"
            "AAA,2015,0.31,0.26,0.04\n"
        )
        panel, diags = parse_panel(text)
        assert len(panel) == 1
        assert len(diags) == 5
        # every non-empty data row is accounted for
        assert len(panel) + len(diags) == 6
        lines = [d.line for d in diags]
        assert lines == [3, 4, 5, 6, 7]

    def test_names_only_of_rows_kept(self):
        """A name that only skipped rows carry gets no place in the name
        table, as in a panel built from the records kept."""
        panel, diags = parse_panel("country,year,gini,top10,bottom10\nA,2000,x,0.2,0.01\nB,2000,0.3,0.2,0.01\n")
        assert (panel.names, panel.countries(), len(diags)) == (("B",), ["B"], 1)
        assert panel.names == Panel(panel.records).names

    def test_more_names_than_the_country_column_holds(self):
        """A parse that codes more names than the country column's dtype
        holds raises rather than wraps a code: here an int8 column, of 128
        codes."""
        rows = [f"C{i:03d},2000,0.3,0.25,0.03" for i in range(129)]
        with mock.patch.dict(panel_module._COLUMNS, country=np.int8):
            panel, _ = parse_panel("country,year,gini,top10,bottom10\n" + "\n".join(rows[:128]))
            assert (len(panel.names), panel.names[-1], panel.country.max()) == (128, "C127", 127)
            with pytest.raises(ValueError, match="^more than 128 country names$"):
                parse_panel("country,year,gini,top10,bottom10\n" + "\n".join(rows))

    def test_nan_rejected(self):
        text = "country,year,gini,top10,bottom10\nAAA,2015,nan,0.25,0.03\n"
        panel, diags = parse_panel(text)
        assert len(panel) == 0 and len(diags) == 1

    def test_unit_modes_equivalent(self):
        decimal_text = "country,year,gini,top10,bottom10\nAAA,2015,0.36,0.262,0.019\n"
        percent_text = "country,year,gini,top10,bottom10\nAAA,2015,36,26.2,1.9\n"
        dec, _ = parse_panel(decimal_text)
        pct, _ = parse_panel(percent_text, PERCENT_SCHEMA)
        a, b = dec.records[0], pct.records[0]
        assert a.gini == pytest.approx(b.gini, abs=1e-12)
        assert a.top10 == pytest.approx(b.top10, abs=1e-12)
        assert a.bottom10 == pytest.approx(b.bottom10, abs=1e-12)

    @pytest.mark.parametrize("block_chars", [64, 1 << 18])
    def test_cell_past_the_csv_field_limit(self, block_chars):
        """csv.reader's field limit, which is left as it is, raises a
        ValueError that names the line, in the header or in a quoted cell
        that runs over many lines."""
        limit = csv.field_size_limit()
        # The quoted cell starts on line 3 and passes the limit on the line
        # that takes it past ``limit`` characters, two to a line.
        long = '"' + "x\n" * (limit // 2 + 1) + '"'
        for text, line in [
            ("X" * (limit + 1) + ",year,gini,top10,bottom10\n", 1),
            (HEADER + "\nAAA,2015,0.3,0.25,0.03\n" + long + ",2015,0.3,0.25,0.03\n", 3 + limit // 2),
        ]:
            with pytest.raises(ValueError, match=f"^line {line}: field larger than field limit"):
                parsed(text, block_chars)
        assert csv.field_size_limit() == limit

    def test_no_header(self):
        with pytest.raises(SchemaError):
            parse_panel("")

    @pytest.mark.parametrize("mode", ["rb", "r"])
    def test_unclosed_quote_is_refused_in_bounded_memory(self, tmp_path, mode):
        """A quote that opens a field no later quote closes raises the field
        limit's error on the line csv.reader names, without reading the
        rest of the input into memory."""
        text = HEADER + '\n"Korea, Rep.,2015,0.3,0.25,0.03\n' + "AAA,2015,0.3,0.25,0.03\n" * 1_000_000
        reader = csv.reader(io.StringIO(text[: 1 << 20]))  # it stops well before
        with pytest.raises(csv.Error, match="field larger than field limit"):
            list(reader)
        path = tmp_path / "panel.csv"
        path.write_text(text)
        tracemalloc.start()
        try:
            with open(path, mode) as stream, pytest.raises(ValueError, match=f"^line {reader.line_num}: field larger"):
                parse_panel(stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(text) / 3


class TestRecordInvariants:
    def test_direct_construction_validated(self):
        with pytest.raises(DomainError):
            CountryYearRecord("AAA", 2015, gini=1.5, top10=0.3, bottom10=0.02)
        with pytest.raises(DomainError):
            CountryYearRecord("AAA", 2015, gini=0.3, top10=0.1, bottom10=0.2)
        with pytest.raises(DomainError):
            CountryYearRecord("", 2015, gini=0.3, top10=0.3, bottom10=0.02)

    def test_panel_uniqueness(self):
        rec = CountryYearRecord("AAA", 2015, gini=0.3, top10=0.3, bottom10=0.02)
        with pytest.raises(DomainError):
            Panel((rec, rec))


class TestRatioOf:
    def test_printed_ratio(self):
        rec = CountryYearRecord("GRC", 2015, gini=0.36, top10=0.262, bottom10=0.019)
        assert ratio_of(rec) == pytest.approx(0.019 / 0.262, abs=1e-12)
        assert 1.0 / ratio_of(rec) == pytest.approx(13.79, abs=0.01)

    def test_equal_shares(self):
        rec = CountryYearRecord("AAA", 2015, gini=0.3, top10=0.1, bottom10=0.1)
        assert ratio_of(rec) == 1.0

    def test_zero_bottom(self):
        rec = CountryYearRecord("AAA", 2015, gini=0.3, top10=0.1, bottom10=0.0)
        assert ratio_of(rec) == 0.0
        assert t_over_b_of(rec) == math.inf


def _mixed_panel():
    rows = [
        ("BBB", 2015, Source.WB),
        ("AAA", 2015, Source.WB),
        ("AAA", 2014, Source.WB),
        ("AAA", 2015, Source.OECD),
    ]
    records = tuple(
        CountryYearRecord(c, y, gini=0.3, top10=0.25, bottom10=0.03, source=s)
        for c, y, s in rows
    )
    return Panel(records, label="mixed")


class TestSlice:
    def test_filters_year_and_source(self):
        sliced = slice_panel(_mixed_panel(), year=2015, source=Source.WB)
        assert [(r.country, r.year, r.source) for r in sliced.records] == [
            ("AAA", 2015, Source.WB),
            ("BBB", 2015, Source.WB),
        ]

    def test_absent_year_gives_empty(self):
        assert len(slice_panel(_mixed_panel(), year=1999)) == 0

    def test_countries(self):
        # a slice keeps the panel's name table; its countries are its own rows'
        panel = _mixed_panel()
        assert panel.countries() == ["AAA", "BBB"]
        assert slice_panel(panel, year=2014).countries() == ["AAA"]
        assert slice_panel(panel, year=1999).countries() == []

    def test_idempotent(self):
        once = slice_panel(_mixed_panel(), year=2015, source=Source.WB)
        twice = slice_panel(once, year=2015, source=Source.WB)
        assert once == twice

    def test_one_key_sort_per_parse(self, monkeypatch):
        """The key order the duplicate check sorts is kept: slicing a parsed
        panel sorts nothing, and the panel stays in file order."""
        text = (
            "country,year,gini,top10,bottom10,source\n"
            "BBB,2015,0.3,0.25,0.03,WB\n"
            "AAA,2016,0.3,0.25,0.03,WB\n"
            "AAA,2015,0.3,0.25,0.03,OECD\n"
            "BBB,2015,0.4,0.25,0.03,WB\n"
            "CCC,2014,x,0.25,0.03,WB\n"
            "AAA,2015,0.3,0.25,0.03,WB\n"
        )
        sorts = []
        real = panel_module._key_sort
        monkeypatch.setattr(panel_module, "_key_sort", lambda *keys: sorts.append(1) or real(*keys))
        panel, diags = parse_panel(text)
        assert (len(sorts), [d.line for d in diags]) == (1, [5, 6])
        file_order = [("BBB", 2015, "WB"), ("AAA", 2016, "WB"), ("AAA", 2015, "OECD"), ("AAA", 2015, "WB")]
        assert [r.key for r in panel.records] == file_order
        assert [r.key for r in slice_panel(panel).records] == sorted(file_order)
        assert [r.key for r in slice_panel(panel, year=2015).records] == sorted(file_order[::2] + file_order[3:])
        assert len(sorts) == 1
        # a panel taken from rows sorts its keys when a slice needs them
        taken = panel.take([3, 0, 1])
        assert [r.key for r in slice_panel(taken).records] == sorted(file_order[3:] + file_order[:2])
        assert len(sorts) == 2


INT64 = np.iinfo(np.int64)
# Years near int64's ends make the packed key wider than 63 bits; years near
# +-2**60 make it about 63 bits wide, at the edge of the packed path.
KEY_YEARS = st.one_of(
    st.integers(-3, 3),
    st.integers(1990, 1993),
    st.sampled_from([int(INT64.min), int(INT64.min) + 1, int(INT64.max) - 1, int(INT64.max)]),
    st.sampled_from([-(2**61), -(2**60), 2**60 - 1, 2**60, 2**61]),
)


def reference_key_sort(country, year, source):
    """The stable key order of the rows, and its repeat mask, by sorted()."""
    key = lambda i: (country[i], year[i], source[i])
    order = sorted(range(len(country)), key=key)
    return order, [j > 0 and key(order[j]) == key(order[j - 1]) for j in range(len(order))]


class TestKeySort:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.one_of(st.integers(0, 4), st.integers(2**31 - 5, 2**31 - 1)), KEY_YEARS, st.integers(0, 2)),
            min_size=1,
            max_size=40,
        ),
    )
    @example([(0, -1, 0)])
    @example([(3, int(INT64.max), 2)])
    @example([(0, 0, 0), (0, 2**60, 0)])  # a 64-bit key
    @example([(2**31 - 1, 1990, 2), (0, 1993, 0)])  # a code an int32 shift would wrap
    def test_matches_sorted(self, rows):
        """Repeated keys, negative years and wide keys, in the dtypes of a
        panel's columns: int32 country codes up to 2**31 - 1, whose shift
        into the packed key must not wrap, and int8 sources."""
        dtypes = panel_module._COLUMNS
        country = np.array([c for c, _, _ in rows], dtype=dtypes["country"])
        year = np.array([y for _, y, _ in rows], dtype=dtypes["year"])
        source = np.array([s for _, _, s in rows], dtype=dtypes["source"])
        order, repeat = panel_module._key_sort(country, year, source)
        expected = reference_key_sort(country.tolist(), year.tolist(), source.tolist())
        assert (order.tolist(), repeat.tolist()) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["AAA", "BBB", "CCC"]),
                st.integers(1990, 1992),
                st.sampled_from(["WB", "OECD", "OTHER"]),
                st.sampled_from(["0.3", "x"]),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_wide_keys_give_the_same_diagnostics(self, rows):
        """Two rows at int64's year ends, appended, send the key sort to its
        lexsort path; the other rows' diagnostics and key order stay."""
        head = "country,year,gini,top10,bottom10,source\n"
        text = head + "".join(f"{c},{y},{g},0.25,0.03,{s}\n" for c, y, s, g in rows)
        ends = f"ZZZ,{INT64.min},0.3,0.25,0.03,WB\nZZZ,{INT64.max},0.3,0.25,0.03,WB\n"
        with mock.patch.object(panel_module.np, "lexsort", wraps=np.lexsort) as lexsort:
            narrow, narrow_diags = parse_panel(text)
            assert lexsort.call_count == 0
            wide, wide_diags = parse_panel(text + ends)
            assert lexsort.call_count == 1
        assert wide_diags == narrow_diags
        assert [r.key for r in slice_panel(wide).records][:-2] == [r.key for r in slice_panel(narrow).records]


class TestRoundTrip:
    def test_hand_panel(self):
        panel = _mixed_panel()
        text = serialize_panel(panel)
        reparsed, diags = parse_panel(text, label=panel.label)
        assert diags == []
        assert reparsed.records == panel.records

    @given(
        st.dictionaries(
            keys=st.tuples(
                st.text(
                    alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=2, max_size=3
                ),
                st.integers(min_value=1990, max_value=2020),
                st.sampled_from(list(Source)),
            ),
            values=st.tuples(
                st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
                st.floats(min_value=1e-6, max_value=1.0),
                st.floats(min_value=0.0, max_value=1.0 - 1e-9),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_round_trip_property(self, table):
        records = []
        for (country, year, source), (g, top, frac) in table.items():
            bottom = frac * top  # keeps bottom10 <= top10 and < 1
            records.append(
                CountryYearRecord(
                    country, year, gini=g, top10=top, bottom10=bottom, source=source
                )
            )
        panel = Panel(tuple(records), label="prop")
        reparsed, diags = parse_panel(serialize_panel(panel), label="prop")
        assert diags == []
        assert reparsed.records == panel.records


def reference_parse(text, schema):
    """Scalar reference for parse_panel: one row at a time, first failing
    check wins, first occurrence of a key kept.  Also gives the name table:
    the names of the rows kept, not of the rows skipped."""
    reader = csv.reader(io.StringIO(text, newline=None))
    positions = {name.strip(): i for i, name in enumerate(next(reader))}
    source_col = schema.source or ("source" if "source" in positions else None)
    gini_div = 100.0 if schema.gini_unit == "percent" else 1.0
    share_div = 100.0 if schema.share_unit == "percent" else 1.0
    kept, diagnostics, seen = [], [], set()
    for row in reader:
        if not row:
            continue

        def cell(col):
            if positions[col] >= len(row):
                raise ValueError(f"row too short: no value for column '{col}'")
            return row[positions[col]].strip()

        def number(col, divisor):
            text = cell(col)
            try:
                value = float(text)
            except ValueError:
                raise ValueError(f"unparseable numeric in column '{col}': {text!r}")
            if not math.isfinite(value):
                raise ValueError(f"non-finite value in column '{col}': {text!r}")
            return value / divisor

        try:
            country = cell(schema.country)
            if not country:
                raise ValueError("empty country identifier")
            text = cell(schema.year)
            try:
                year = int(text)
            except ValueError:
                raise ValueError(f"year is not an integer: {text!r}")
            if not -(2**63) <= year < 2**63:
                raise ValueError(f"year out of range: {text!r}")
            gini = number(schema.gini, gini_div)
            top10 = number(schema.top10, share_div)
            bottom10 = number(schema.bottom10, share_div)
            source = schema.default_source
            if source_col is not None:
                text = cell(source_col).upper()
                try:
                    source = Source(text)
                except ValueError:
                    raise ValueError(f"unknown source {text!r}")
            record = CountryYearRecord(country, year, gini, top10, bottom10, source)
            if record.key in seen:
                raise ValueError(f"duplicate record {record.key}")
        except ValueError as exc:
            diagnostics.append((reader.line_num, str(exc)))
            continue
        seen.add(record.key)
        kept.append(record)
    return tuple(kept), diagnostics, sorted({record.country for record in kept})


def csv_cell(text):
    """``text`` as csv.writer writes it in a row."""
    out = io.StringIO()
    csv.writer(out, lineterminator="").writerow([text])
    return out.getvalue()


SHARE_CELLS = (
    "0.3", " 0.25 ", "0.03", "0.0", "1", "1.3", "-0.01", "30", "2.5", "1e-320",
    "nan", "inf", "-inf", "1e400", "1_0", "abc", "", "+.5", " 0.2",
    "-", "1.2.3", "--1", "e", ".", "0.1234567890123456", "0.123456789012345",
    "9007199254740993", "-0.0", "5.", "00000000000000000001.5",
)
row_cells = st.tuples(
    st.sampled_from(["AAA", "BBB", " AAA ", "Korea, Rep.", 'Quote "Q"', "Multi\nLine", "", "ÄÖ"]),
    st.sampled_from([
        "2015", "2016", " 2015 ", "+2016", "1_0", "x", "", "99999999999999999999",
        "-", "1.2.3", "--1", "e", ".", "-0", "123456789012345678", "9223372036854775807",
        "9223372036854775808", "-9223372036854775808",
    ]),
    st.sampled_from(["WB", "wb", " oecd ", "OTHER", "XX", ""]),
    st.sampled_from(SHARE_CELLS),
    st.sampled_from(SHARE_CELLS),
    st.sampled_from(SHARE_CELLS),
).map(lambda cells: [csv_cell(c) for c in cells])
# Cells as they appear in the file, beyond what csv.writer writes: spaces
# outside quotes, stray and unterminated quotes, NUL, names longer than any
# cell width, non-Latin-1 text padded with Unicode spaces, Unicode digits and
# lone CRs inside quotes.
odd_country = st.sampled_from([
    '"AAA" ', ' "AAA"', 'A"B', '"AAA"B', "AAA\0", "\0", "X" * 70, '"' + "Y, " * 30 + '"',
    " Ωmega　", "\x85Ж", '"Multi\rLine"', '"Multi\r\nLine"', "ÄÖ",
])
odd_year = st.sampled_from(["２０１５", "٢٠١٥", " 2015 ", "2015\0", '"2015" ', "1" * 30])
odd_share = st.sampled_from(["٠.٣", " 0.3", "0.3\x85", "0.3\0", '"0.3" ', ' "0.3"', "0." + "3" * 40])
odd_source = st.sampled_from(["　WB", "wb\x85", '"OECD" '])
odd_row_cells = st.tuples(
    st.one_of(row_cells.map(lambda r: r[0]), odd_country),
    st.one_of(row_cells.map(lambda r: r[1]), odd_year),
    st.one_of(row_cells.map(lambda r: r[2]), odd_source),
    st.one_of(row_cells.map(lambda r: r[3]), odd_share),
    st.one_of(row_cells.map(lambda r: r[4]), odd_share),
    st.one_of(row_cells.map(lambda r: r[5]), odd_share),
)


def raw_lines(cells):
    """Rows of raw cells, each cut to 0-6 cells, or a blank or
    whitespace-only line."""
    return st.one_of(
        cells.map(list),
        st.tuples(cells, st.integers(0, 5)).map(lambda r: list(r[0][: r[1]])),
        st.sampled_from([None, " ", "\t", " 　 "]),
    )


@pytest.fixture
def csv_reads(monkeypatch):
    """The rows csv.reader reads while the test runs, in order."""
    read = []
    real = csv.reader

    class Reader:
        def __init__(self, lines):
            self.rows = real(lines)

        def __iter__(self):
            return self

        def __next__(self):
            read.append(next(self.rows))
            return read[-1]

        line_num = property(lambda self: self.rows.line_num)

    monkeypatch.setattr(panel_module.csv, "reader", Reader)
    return read


BENCH_HEADER = ["country", "year", "source", "gini", "top10", "bottom10"]
BENCH_NAMES = ("Korea, Rep.", "Greece", "Egypt, Arab Rep.", "Côte d'Ivoire", "United States")


def bench_shaped_panel(countries: int, seed: int, long_name: str | None = None) -> str:
    """CSV text shaped like the benchmark's panel: the rows of ``countries``
    countries x 10 years x {WB, OECD} in shuffled order, names with a
    four-digit suffix (some quoted for their commas), shares of four and
    five decimals, and 1% bad rows: an unparseable gini, a share out of
    range, misordered shares or a repeated key, in turn.  ``long_name``
    names the first country."""
    rng = np.random.default_rng(seed)
    names = [f"{BENCH_NAMES[i % len(BENCH_NAMES)]} {i:04d}" for i in range(countries)]
    if long_name is not None:
        names[0] = long_name
    rows = []
    for name in names:
        for year in range(1990, 2000):
            for source in ("WB", "OECD"):
                top = rng.uniform(0.22, 0.45)
                bottom = top / rng.uniform(1.5, 30.0)
                gini = rng.uniform(0.15, 0.75)
                rows.append([name, year, source, f"{gini:.4f}", f"{top:.4f}", f"{bottom:.5f}"])
    bad = [
        lambda row: row[:3] + ["n/a"] + row[4:],
        lambda row: row[:4] + ["1.5000"] + row[5:],
        lambda row: row[:4] + ["0.0500", "0.06000"],
        lambda row: row[:3] + ["0.5000", "0.3000", "0.01000"],
    ]
    rows += [bad[k % 4](rows[int(rng.integers(len(rows)))]) for k in range(len(rows) // 100)]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(BENCH_HEADER)
    writer.writerows(rows[i] for i in rng.permutation(len(rows)).tolist())
    return out.getvalue()


def width_rows(size: int) -> list[list[str]]:
    """Rows (country, year, source, gini, top10, bottom10) in which one
    column's cell, and then every column's cell, is ``size`` bytes long:
    at, or one byte past, a width numpy's reader may read it at."""
    cells = {
        "country": "Ж" * (size // 2) + "x" * (size % 2),
        "year": "2" + "0" * (size - 1),
        "source": "WB".rjust(size),
        "gini": "0." + "3" * (size - 2),
        "top10": "0." + "4" * (size - 2),
        "bottom10": "0." + "0" * (size - 3) + "1",
    }
    plain = dict(zip(cells, ["AAA", "2015", "WB", "0.3", "0.45", "0.01"]))
    rows = [{**plain, "country": f"C{k}", name: cell} for k, (name, cell) in enumerate(cells.items())]
    return [list(row.values()) for row in rows] + [list(cells.values())]


# The other arguments of a scalar-reference example: one LF-ended text with
# a source column, in decimal units.
PLAIN_TEXT = dict(line_ends=["\n"], unterminated=False, with_source=True, percent=False)


class TestRowRule:
    @settings(max_examples=500, deadline=None)
    @given(
        text=st.text(alphabet='a,"\n\r', max_size=40),
        cuts=st.lists(st.integers(1, 39), max_size=6),
    )
    @example(text='a"\n"b\n', cuts=[2])
    @example(text='"a""\n"\r\n', cuts=[4, 7])
    @example(text='"a"\r\n"b"', cuts=[4])
    @example(text='"a"b,\n', cuts=[3])
    @example(text='a"b,"x""\ny"\n', cuts=[])
    @example(text='a""b\nc\n', cuts=[2])
    @example(text='"a""b\n', cuts=[3])
    @example(text='a\n"b""c', cuts=[5, 6])
    def test_rows_end_where_csv_reader_ends_them(self, text, cuts):
        """Read in chunks cut anywhere, the blocks of _byte_blocks hold the
        lines universal newlines give, each block cut at a line end and
        yielded with its line count, and each row csv.reader reads, but a
        blank one, ends on the line its line_num names; the quotes of the
        chunks are plain, by _Rows, where those of the whole text are, and a
        field still open after a chunk is what csv.reader reads after the
        quote _Rows says opened it."""
        data = text.encode()
        bounds = [0, *sorted({c for c in cuts if c < len(data)}), len(data)]
        chunks = [data[lo:hi] for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
        rows, plain = panel_module._Rows(), True
        for k, chunk in enumerate(chunks):
            plain &= not len(rows.lines(chunk)[2])
            if rows.quoted:
                so_far = text[: bounds[k + 1]]
                field = so_far[rows.opened + 1 :].replace('""', '"').replace("\r\n", "\n").replace("\r", "\n")
                assert list(csv.reader(io.StringIO(so_far, newline=None)))[-1][-1] == field
        assert plain == (not len(panel_module._Rows().lines(data)[2]))
        lines, ended = [], []
        for block, _, count, ends in panel_module._byte_blocks(chunks):
            assert count == len(block.splitlines())
            ended += (len(lines) + ends + 1).tolist()
            lines += block.splitlines()
        assert lines == data.splitlines()
        reader = csv.reader(io.StringIO(text, newline=None))
        numbers = [reader.line_num for row in reader if row]
        assert ended == numbers


class TestColumnarParse:
    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.one_of(
            st.lists(row_cells, max_size=40),
            st.lists(raw_lines(row_cells), max_size=40),
            st.lists(raw_lines(odd_row_cells), max_size=40),
        ),
        line_ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1),
        unterminated=st.booleans(),
        with_source=st.booleans(),
        percent=st.booleans(),
        block_chars=st.sampled_from([1, 16, 40, 1 << 20]),
    )
    @example(rows=width_rows(8), block_chars=1 << 20, **PLAIN_TEXT)
    @example(rows=width_rows(9), block_chars=40, **PLAIN_TEXT)
    @example(rows=width_rows(16), block_chars=1 << 20, **PLAIN_TEXT)
    @example(rows=width_rows(17), block_chars=40, **PLAIN_TEXT)
    @example(rows=width_rows(32), block_chars=1 << 20, **PLAIN_TEXT)
    @example(rows=width_rows(33), block_chars=40, **PLAIN_TEXT)
    def test_matches_scalar_reference(
        self, rows, line_ends, unterminated, with_source, percent, block_chars
    ):
        columns = ["country", "year", "source", "gini", "top10", "bottom10"]
        if not with_source:
            columns.remove("source")
            rows = [r[:2] + r[3:] if isinstance(r, list) else r for r in rows]
        lines = [",".join(columns)]
        lines += [",".join(r) if isinstance(r, list) else r or "" for r in rows]
        text = "".join(
            line + line_ends[i % len(line_ends)] for i, line in enumerate(lines)
        )
        if unterminated:
            text += '"Open, 2015,WB,0.3,0.25,0.03'
        unit = "percent" if percent else "decimal"
        schema = SchemaConfig(gini_unit=unit, share_unit=unit, default_source=Source.WB)

        with mock.patch.object(panel_module, "_BLOCK_CHARS", block_chars):
            panel, diags = parse_panel(text, schema)
        kept, expected, names = reference_parse(text, schema)
        assert [(d.line, d.reason) for d in diags] == expected
        assert panel.records == kept
        assert list(panel.names) == names
        assert slice_panel(panel).records == tuple(sorted(kept, key=lambda r: r.key))

    def test_quoted_line_end_across_every_block_cut(self):
        text = (
            "country,year,gini,top10,bottom10\n"
            "AAA,2015,0.3,0.25,0.03\n"
            '"Multi\nLine, ""Q""",2015,0.3,0.25,0.03\n'
            '"Bad\nRow",2015,x,0.25,0.03\n'
            'Q"x,2015,0.3,0.25,"0.03\n"\n'
            "BBB,2015,0.3,0.25,0.03\n"
            'DDD,2015,0.3,0.25,"0.0\n3"\n'
            '"Two\n\nBreaks",2015,x,0.25,0.03\n'
            "N\0,2015,0.3,0.25,0.03\n"
            'CCC,2015,0.3,0.25,"0.03'
        )
        kept, expected, _ = reference_parse(text, SchemaConfig())
        assert (len(kept), len(expected)) == (6, 3)
        for block_chars in range(1, len(text) + 1):
            with mock.patch.object(panel_module, "_BLOCK_CHARS", block_chars):
                panel, diags = parse_panel(text)
            assert [(d.line, d.reason) for d in diags] == expected, block_chars
            assert panel.records == kept, block_chars

    def test_plain_ascii_blocks_take_the_c_reader(self, monkeypatch, csv_reads):
        """Rows read by numpy's reader never reach csv.reader, which reads
        only the header."""
        rows = [f'"Name, {i}",{2000 + i % 20},0.3,0.25,0.03' for i in range(200)]
        text = "country,year,gini,top10,bottom10\n" + "\n".join(rows) + "\n"
        monkeypatch.setattr(panel_module, "_BLOCK_CHARS", 1000)
        panel, diags = parse_panel(text)
        assert (len(panel), diags, csv_reads) == (200, [], [["country", "year", "gini", "top10", "bottom10"]])

    def test_a_quote_that_is_not_plain_sends_its_block_to_csv_reader(self, monkeypatch, csv_reads):
        """A stray quote (one inside an unquoted cell) sends the block that
        holds it, and no other, to csv.reader; the other blocks take numpy's
        reader, as the quote rule carries on past it."""
        rows = [f"C{i},{1990 + i % 20},0.3,0.25,0.03" for i in range(400)]
        rows[200] = 'Name"x,1990,0.3,0.25,0.03'
        text = "country,year,gini,top10,bottom10\n" + "\n".join(rows) + "\n"
        kept, expected, _ = reference_parse(text, SchemaConfig())
        csv_reads.clear()
        monkeypatch.setattr(panel_module, "_BLOCK_CHARS", 1000)
        panel, diags = parse_panel(text)
        assert (panel.records, [(d.line, d.reason) for d in diags]) == (kept, expected)
        assert ['Name"x', "1990", "0.3", "0.25", "0.03"] in csv_reads
        # the header, then the rows of the one block, of some 42, that holds the quote
        held = [block for block, *_ in panel_module._byte_blocks(panel_module._chunks(text)) if b'"' in block]
        assert len(held) == 1 and len(csv_reads) == 1 + held[0].count(b"\n") < 50

    @pytest.mark.parametrize(
        "long_name, blank",
        [(None, False), ("Ж" * 40, False), ("Ж" * 127 + "x", False), ("Ж" * 128, False),
         ("Multi\nLine", False), (None, True)],
        ids=["bench names", "80-byte name", "255-byte name", "256-byte name", "quoted line end", "blank lines"],
    )
    def test_bench_shaped_panel_takes_the_c_reader(self, monkeypatch, csv_reads, long_name, blank):
        """A panel shaped like the benchmark's, bad rows and all, never
        reaches csv.reader: a name too long for its cell widens the country
        column, and every block with the name, and each after, is read by
        numpy's reader again; names with a quoted line end and blank lines
        are read there too.  Only a cell of _WIDEST_CELL bytes or more sends
        its blocks to csv.reader, with the same results."""
        text = bench_shaped_panel(150, seed=3, long_name=long_name)
        if blank:  # after the header and after each of the first 300 rows
            text = text.replace("\n", "\n\n", 300)
        kept, expected, names = reference_parse(text, SchemaConfig())
        csv_reads.clear()
        monkeypatch.setattr(panel_module, "_BLOCK_CHARS", 4096)
        panel, diags = parse_panel(text)
        if long_name is not None and len(long_name.encode()) >= panel_module._WIDEST_CELL:
            assert [long_name] in (row[:1] for row in csv_reads)
        else:
            assert csv_reads == [BENCH_HEADER]
        assert [(d.line, d.reason) for d in diags] == expected
        assert len(expected) == 30 and {d.reason for d in diags} >= {"share ordering violated"}
        assert panel.records == kept
        assert list(panel.names) == names

    @pytest.mark.parametrize(
        "block, rows",
        [
            ("AAA,2015,0.3,0.25,0.03\n\nBBB,2015,0.3,0.25,0.03\n", 2),
            ("\nAAA,2015,0.3,0.25,0.03\n", 1),
            ('"Multi\nLine",2015,0.3,0.25,0.03\n', 1),
            ("\n\n", None),
        ],
        ids=["blank line", "leading blank line", "quoted line end", "blank lines only"],
    )
    def test_blank_lines_and_quoted_line_ends_take_the_c_reader(self, block, rows):
        """Numpy's reader skips a blank line and reads a quoted line end into
        its row, as csv.reader does.  A block of blank lines alone has no row
        for numpy's reader, and goes to csv.reader, with no warning."""
        cells = panel_module._byte_cells(block.encode(), block.count("\n"), [0, 1, 2, 3, 4], [32, 8, 16, 16, 16])
        assert (None if cells is None else len(cells[0])) == rows
        panel, diags = parse_panel("country,year,gini,top10,bottom10\n" + block)
        assert (len(panel), diags) == (block.count(",") // 4, [])

    @pytest.mark.parametrize("bad", ["-", "1.2.3", "--1", "e", ".", "99999999999999999999"])
    def test_bad_numeric_cell_leaves_its_block_cast(self, monkeypatch, bad):
        """A cell that fails the block's cast is checked alone: the good rows
        of its block are not checked one by one."""
        rows = [f"AAA,{1000 + i},0.3,0.25,0.03" for i in range(2000)]
        rows[700] = f"AAA,{bad},0.3,0.25,0.03"
        rows[1300] = f"AAA,2300,{bad},0.25,0.03"
        rows[1500] = "AAA,1234567890123456789,0.3,0.25,0.03"  # not a float's integer
        text = "country,year,gini,top10,bottom10\n" + "\n".join(rows) + "\n"
        read = []
        real = panel_module._text
        monkeypatch.setattr(panel_module, "_text", lambda cell: read.append(cell) or real(cell))
        panel, diags = parse_panel(text)
        assert [d.line for d in diags] == [702, 1302]
        assert len(panel) == 1998
        assert 1234567890123456789 in panel.year.tolist()
        # one lookup of the one country, then the one cell each row a cast
        # skips fails: a gini of 99999999999999999999 casts to 1e20, whose
        # row breaks only a range rule and is worded from its values
        checked = 1 if bad == "99999999999999999999" else 2
        assert len(read) == 1 + checked

    @pytest.mark.parametrize(
        "text",
        [
            "country,year,gini,top10,bottom10\nA\rB,2015,0.3,0.25,0.03\n",
            "country,year,gini,top10,bottom10\r\nA,2015,0.3,0.25,0.03\r\r\n\"B\rC\",x,0,0,0\r",
        ],
        ids=["lone CR", "CRLF and CR in quotes"],
    )
    def test_line_ends_read_as_universal_newlines(self, text):
        translated = io.StringIO(text, newline=None).read()
        panel, diags = parse_panel(text)
        assert (panel, diags) == parse_panel(translated)


# Cells at the edges of the exact kernel: digit counts around its limits of
# 15 (float) and 18 (int64) digits, an odd integer above 2**53, signed zero,
# a bare sign or point, leading zeros, the ends of the int64 range, and NULs
# that a byte cell holds but does not end with.
KERNEL_EDGE_CELLS = (
    "0.1234567890123456", "123456789012345", "9007199254740993", "-0.0", "+.5", "5.",
    ".", "-", "00000000000000000001.5", "9223372036854775807", "9223372036854775808",
    "-9223372036854775808", "1\x002", "\x005",
)
decimal_cells = st.one_of(
    st.from_regex(r"[+-]?[0-9]{0,20}(\.[0-9]{0,25})?", fullmatch=True),
    st.sampled_from(KERNEL_EDGE_CELLS),
)


def scalar_number(kind, cell: str):
    """``kind(cell)``, float() or int() as the one-row check reads a cell,
    or None where that fails or an int leaves int64."""
    try:
        value = kind(cell)
        if kind is int:
            np.int64(value)
    except (ValueError, OverflowError):
        return None
    return value


def arabic_indic(text: str) -> str:
    """``text`` with its ASCII digits written as Arabic-Indic digits."""
    return text.translate({ord("0") + d: 0x660 + d for d in range(10)})


def number_forms(value: float):
    """``value`` written as a file may hold it: as repr, to 4 or 16-19
    decimals, in exponent form, with a "_" or in Arabic-Indic digits."""
    fixed = f"{value:.4f}"
    return st.sampled_from([
        repr(value), fixed, f"{value:.16f}", f"{value:.19f}", f"{value:e}", f"{value:.3E}",
        f"{fixed[:4]}_{fixed[4:]}", arabic_indic(fixed),
    ])


def year_forms(year: int):
    """``year`` written as a file may hold it: plainly, signed, in 19
    digits, with a "_" or in Arabic-Indic digits."""
    return st.sampled_from([
        str(year), f"+{year}", f"{year:019d}", f"{year // 10}_{year % 10}", arabic_indic(str(year)),
    ])


odd_years = st.sampled_from([
    "1234567890123456789", "9999999999999999999", "-9223372036854775808", "2e3", "1990.0", "",
])
odd_numbers = st.sampled_from([
    "inf", "-inf", "nan", "NaN", "Infinity", "1e400", "1e-400", "1__0", "_1", "1_", "٠.٣", "",
])


@st.composite
def padded_rows(draw):
    """Rows of cells padded with spaces, tabs or NBSPs, the padding of one
    draw: a block with a tab goes to csv.reader, one with spaces alone to
    numpy's reader.  About one cell in ten is odd."""
    pad = st.text(alphabet=draw(st.sampled_from([" ", " \t", " \u00a0"])), max_size=2)

    def cell(forms, odd):
        return draw(odd if draw(st.integers(0, 9)) == 0 else forms)

    rows = []
    for _ in range(draw(st.integers(1, 25))):
        top = draw(st.floats(0.2, 0.5))
        values = [draw(st.floats(0.01, 0.99)), top, draw(st.floats(0.0, top))]
        cells = [draw(st.sampled_from(["AAA", "BBB", "Côte"]))]
        cells.append(cell(year_forms(draw(st.integers(1990, 2019))), odd_years))
        cells.append(cell(st.sampled_from(["WB", "wb", "OECD", "Oecd", "OTHER"]), st.sampled_from(["XX", ""])))
        cells += [cell(number_forms(v), odd_numbers) for v in values]
        rows.append([draw(pad) + c + draw(pad) for c in cells])
    return rows


class TestExactKernel:
    @settings(max_examples=300, deadline=None)
    @given(cells=st.lists(decimal_cells, min_size=1, max_size=30), pad=st.integers(0, 6))
    def test_cast_gives_the_bits_of_float_and_int(self, cells, pad):
        """The kernel reads each cell of at most 15 digits (18 for an int64,
        which has no point), and every cell cast, by the kernel or not,
        holds the bits float() or int() gives; the mask is that of the cells
        those accept."""
        width = max(1, *map(len, cells)) + pad
        # A column of a structured array, strided as numpy's reader gives it.
        table = np.zeros(len(cells), dtype=[("before", "S3"), ("cell", f"S{width}")])
        table["cell"] = [c.encode() for c in cells]
        column = table["cell"]
        for kind, dtype, most in (
            (float, np.float64, 15),
            (int, np.int64, 18),
        ):
            values, cast = panel_module._cast(column, dtype)
            expected = [scalar_number(kind, c) for c in cells]
            assert cast.tolist() == [e is not None for e in expected]
            want = np.array([0 if e is None else e for e in expected], dtype=dtype)
            assert values.view(np.int64).tolist() == want.view(np.int64).tolist()
            _, fast = panel_module._decimals(column, dtype)
            form = r"[+-]?[0-9]*\.?[0-9]*" if kind is float else r"[+-]?[0-9]*"
            assert fast.tolist() == [
                re.fullmatch(form, c) is not None and 0 < sum(map(str.isdigit, c)) <= most
                for c in cells
            ]

    def test_cells_that_miss_the_fast_path(self, monkeypatch):
        """A panel none of whose numeric cells the kernel reads (17-digit
        reprs, exponents, 19-digit years) parses as the reference does, and
        exact source spellings mix with looked-up ones in one block."""
        # Percents whose decimal share's repr has more than 15 digits
        long = [x for x in (k / 100 for k in range(100, 4500)) if len(repr(x / 100).lstrip("0.")) > 15]
        high, low = [x for x in long if x >= 20], [x for x in long if x < 5]
        percent = ["country,year,source,gini,top10,bottom10"]
        for i in range(60):
            percent.append(f"C{i % 20},{2000 + i // 20},WB,{high[7 * i]},{high[i]},{low[i]}")
        panel, diags = parse_panel("\n".join(percent) + "\n", PERCENT_SCHEMA)
        assert (len(panel), diags) == (60, [])
        # The reprs serialize_panel writes, with years of 19 digits and the
        # sources spelled in turn exactly, in lower case and padded.
        lines = serialize_panel(panel).splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert all(len(cell.lstrip("0.")) > 15 for row in rows for cell in row[3:])
        spellings = ["WB", "OECD", "OTHER", "wb", " Oecd "]
        for i, row in enumerate(rows):
            row[1] = f"{int(row[1]):019d}"
            row[2] = spellings[i % len(spellings)]
        rows += [
            ["C0", "0000000000000002000", "WB", "3e-1", "2.5E-1", "3e-2"],
            ["C1", "0000000000000002000", "OECD", "3e1", "0.25e0", "3e-2"],
            ["C2", "0000000000000002001", "wb", "4E-1", "0.3e0", "1e-1"],
            list(rows[0]),
        ]
        text = "\n".join([lines[0]] + [",".join(row) for row in rows]) + "\n"
        read = []
        real = panel_module._decimals

        def spy(cells, dtype):
            values, fast = real(cells, dtype)
            read.append(fast.any())
            return values, fast

        monkeypatch.setattr(panel_module, "_decimals", spy)
        panel, diags = parse_panel(text)
        kept, expected, _ = reference_parse(text, SchemaConfig())
        assert (read, [(d.line, d.reason) for d in diags]) == ([False] * 4, expected)
        assert panel.records == kept
        assert {r.source for r in kept} == set(Source)
        assert len(expected) == 3

    @settings(max_examples=100, deadline=None)
    @given(rows=padded_rows(), with_source=st.booleans(), percent=st.booleans())
    def test_padded_and_odd_cells_match_the_reference(self, rows, with_source, percent):
        """Cells the kernel declines, padded or not, are read as the
        reference reads them: the kept rows have its bits, and each skipped
        row its reason and line.  So the one-row check, which words the
        reason of every row a cast rejected, never sees a row it accepts."""
        text = panel_text(rows, ["\n"], False, with_source)
        unit = "percent" if percent else "decimal"
        schema = SchemaConfig(gini_unit=unit, share_unit=unit)
        panel, diags = parse_panel(text, schema)
        kept, expected, _ = reference_parse(text, schema)
        assert [(d.line, d.reason) for d in diags] == expected
        assert panel.records == kept
        shares = [[r.gini, r.top10, r.bottom10] for r in kept]
        bits = np.column_stack([panel.gini, panel.top10, panel.bottom10]).view(np.int64)
        assert bits.tolist() == np.array(shares, dtype=np.float64).reshape(-1, 3).view(np.int64).tolist()


def panel_text(rows, line_ends, unterminated, with_source):
    """A panel's CSV text from rows of raw cells, blank lines (None) and
    whitespace-only lines, the line ends taken in turn."""
    columns = ["country", "year", "source", "gini", "top10", "bottom10"]
    if not with_source:
        columns.remove("source")
        rows = [r[:2] + r[3:] if isinstance(r, list) else r for r in rows]
    lines = [",".join(columns)]
    lines += [",".join(r) if isinstance(r, list) else r or "" for r in rows]
    text = "".join(line + line_ends[i % len(line_ends)] for i, line in enumerate(lines))
    if unterminated:
        text += '"Open, 2015,WB,0.3,0.25,0.03'
    return text


def parsed(source, block_chars, schema=SchemaConfig()):
    with mock.patch.object(panel_module, "_BLOCK_CHARS", block_chars):
        panel, diags = parse_panel(source, schema)
    return panel, [(d.line, d.reason) for d in diags]


class TestStreamedInput:
    """A binary stream is read a block of bytes at a time; it parses as the
    text it decodes to."""

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.one_of(
            st.lists(raw_lines(row_cells), max_size=40),
            st.lists(raw_lines(odd_row_cells), max_size=40),
        ),
        line_ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1),
        unterminated=st.booleans(),
        with_source=st.booleans(),
        bom=st.booleans(),
        block_chars=st.sampled_from([1, 3, 16, 40, 1 << 18]),
    )
    def test_binary_stream_matches_scalar_reference(
        self, rows, line_ends, unterminated, with_source, bom, block_chars
    ):
        text = panel_text(rows, line_ends, unterminated, with_source)
        data = ("﻿" if bom else "").encode() + text.encode()
        schema = SchemaConfig(default_source=Source.WB)
        panel, diags = parsed(io.BytesIO(data), block_chars, schema)
        kept, expected, names = reference_parse(text, schema)
        assert diags == expected
        assert panel.records == kept
        assert list(panel.names) == names
        assert slice_panel(panel).records == tuple(sorted(kept, key=lambda r: r.key))

    @pytest.mark.parametrize(
        "text, counts",
        [
            (
                "country,year,gini,top10,bottom10\n"
                "AAA,2015,0.3,0.25,0.03\n"
                '"Multi\nLine, ""Q""",2015,0.3,0.25,0.03\n'
                '"Bad\nRow",2015,x,0.25,0.03\n'
                'Q"x,2015,0.3,0.25,"0.03\n"\n'
                "BBB,2015,0.3,0.25,0.03\n"
                'DDD,2015,0.3,0.25,"0.0\n3"\n'
                '"Two\n\nBreaks",2015,x,0.25,0.03\n'
                "N\0,2015,0.3,0.25,0.03\n"
                'CCC,2015,0.3,0.25,"0.03',
                (6, 3),
            ),
            (
                "country,year,gini,top10,bottom10\r\n"
                "AAA,2015,0.3,0.25,0.03\r"
                '"Multi\nLine, ""Q""",2015,0.3,0.25,0.03\r\n'
                '"Bad\r\nRow",2015,x,0.25,0.03\n'
                "Ärø Ωmega,2015,0.3,0.25,0.03\r"
                "Ärø Ωmega,2015,0.3,0.25,0.03\r\r"
                'DDD,2015,0.3,0.25,"0.0\r3"\n'
                "N\0,2015,0.3,0.25,0.03\r\n"
                "😀,2016,0.3,0.25,0.03\r"
                'CCC,2015,0.3,0.25,"0.03',
                (6, 3),
            ),
        ],
        ids=["quoted line ends", "CRLF, lone CR and multi-byte UTF-8"],
    )
    def test_binary_stream_at_every_block_cut(self, text, counts):
        kept, diags, _ = reference_parse(text, SchemaConfig())
        assert (len(kept), len(diags)) == counts
        data = text.encode()
        for block_chars in range(1, len(data) + 1):
            for source in (io.BytesIO(data), io.StringIO(text)):
                panel, streamed = parsed(source, block_chars)
                assert (panel.records, streamed) == (kept, diags), block_chars

    @pytest.mark.parametrize("block_chars", [1, 8, 16, 40, 1 << 18])
    def test_columns_changed_in_place_a_slice_at_a_time(self, block_chars):
        """Country codes, the kept rows and the key order are rewritten in
        place a slice of a block's bytes at a time (here 1, 1, 2, 5 and all
        rows), with the results of one pass."""
        rows = [f"C{i % 7},{2000 + i % 5},0.3,0.25,0.03" for i in range(60)]
        rows[3] = "C1,2001,x,0.25,0.03"
        rows[17] = "C2,2002,0.3,0.25,0.5"
        text = "country,year,gini,top10,bottom10\n" + "\n".join(rows) + "\n"
        kept, expected, names = reference_parse(text, SchemaConfig())
        assert (len(kept), len(expected)) == (35, 25)
        with mock.patch.object(panel_module, "_BLOCK_CHARS", block_chars):
            panel, diags = parse_panel(text)
        assert [(d.line, d.reason) for d in diags] == expected
        assert (panel.records, list(panel.names)) == (kept, names)
        assert slice_panel(panel).records == tuple(sorted(kept, key=lambda r: r.key))

    def test_reads_blocks_of_the_block_size(self, monkeypatch):
        """The input is read a block at a time, never whole."""
        sizes = []

        class Recording(io.BytesIO):
            def read(self, size=-1):
                sizes.append(size)
                return super().read(size)

        rows = "".join(f"C{i},{2000 + i % 20},0.3,0.25,0.03\n" for i in range(400))
        monkeypatch.setattr(panel_module, "_BLOCK_CHARS", 1000)
        panel, diags = parse_panel(Recording(("country,year,gini,top10,bottom10\n" + rows).encode()))
        assert (len(panel), diags) == (400, [])
        assert set(sizes) == {1000} and len(sizes) > 10

    @pytest.mark.parametrize("block_chars", [1, 2, 3, 4, 1 << 18])
    def test_byte_order_mark_only_at_the_start(self, block_chars):
        mark = "﻿"
        text = "country,year,gini,top10,bottom10\n" + mark + "AAA,2015,0.3,0.25,0.03\n"
        for source in (mark + text, io.BytesIO((mark + text).encode())):
            panel, diags = parsed(source, block_chars)
            assert (list(panel.names), diags) == ([mark + "AAA"], [])
        with pytest.raises(SchemaError, match="missing declared column"):
            parsed(io.BytesIO((mark + mark + text).encode()), block_chars)
        for empty in (mark, io.BytesIO(mark.encode()), io.BytesIO(b"")):
            with pytest.raises(SchemaError, match="no header row"):
                parsed(empty, block_chars)

    @pytest.mark.parametrize("bad", [b"\xff", b"\xe2\x82", b"\xed\xa0\x80", b"\xc3"])
    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
    @pytest.mark.parametrize("block_chars", [7, 64, 1 << 18])
    def test_invalid_utf8_in_a_late_block(self, bad, bom, block_chars):
        """The error is the one decoding the whole input as UTF-8 gives,
        its position counted after the byte-order mark."""
        rows = b"".join(b"AAA,%d,0.3,0.25,0.03\r\n" % year for year in range(1900, 1960))
        for data in (
            bom + b"country,year,gini,top10,bottom10\n" + rows + b"B" + bad + b"B,2015,0.3,0.25,0.03\n",
            bom + b"country,year,gini,top10,bottom10\n" + rows + b"B" + bad,
        ):
            with pytest.raises(UnicodeDecodeError) as whole:
                data.decode("utf-8-sig")
            with pytest.raises(ValueError) as streamed:
                parsed(io.BytesIO(data), block_chars)
            assert str(streamed.value) == str(whole.value)


class TestParseMemory:
    def test_peak_per_row(self):
        """The traced peak of a parse grows by at most 48 bytes a row: the
        37 bytes of the row's columns, its 8-byte sort key, a byte of repeat
        mask and a share of its name.  The growth from 25,000 to 50,000 rows
        leaves out the fixed base; blocks of 16 KB keep the block-sized
        part of that base small.  8-byte codes and a line column (56 bytes
        of columns a row) make it grow by about 64."""
        peaks = []
        for n in (25_000, 50_000):
            rows = "".join(f"C{i // 200:04d},{1900 + i % 200},0.{1 + i % 9973:04d},0.25,0.03{i % 7}\n" for i in range(n))
            stream = io.BytesIO((HEADER + "\n" + rows).encode())
            with mock.patch.object(panel_module, "_BLOCK_CHARS", 1 << 14):
                tracemalloc.start()
                try:
                    panel, diags = parse_panel(stream)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert (len(panel), diags) == (n, [])
        assert (peaks[1] - peaks[0]) / 25_000 <= 48

    def test_sliced_peak_per_row(self):
        """An unfiltered sliced parse grows by at most 40 bytes a row: its
        sorted packed key, in the year column's place, its 24 bytes of
        shares and the copy of one share column that gathers it into key
        order.  Sorting a separate 8-byte key, then gathering every column,
        makes it grow by about 54."""
        peaks = []
        for n in (25_000, 50_000):
            rows = "".join(f"C{i // 200:04d},{1900 + i % 200},0.{1 + i % 9973:04d},0.25,0.03{i % 7}\n" for i in range(n))
            stream = io.BytesIO((HEADER + "\n" + rows).encode())
            with mock.patch.object(panel_module, "_BLOCK_CHARS", 1 << 14):
                tracemalloc.start()
                try:
                    panel, diags = parse_panel(stream, sliced=True)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert (len(panel), diags) == (n, [])
        assert (peaks[1] - peaks[0]) / 25_000 <= 40

    def test_filtered_peak_per_row(self):
        """A parse filtered to 1% of the rows grows by at most 18 bytes a
        row: the 13 bytes of its key columns, which grow in place as the
        blocks are read, then its packed key and a byte of repeat mask, with
        the 24 bytes of shares of only the rows the filter keeps.  A sort of
        a separate key after a np.bincount copy of the country codes makes
        it grow by about 23, a parse that holds every row's shares by 46."""
        peaks = []
        for n in (25_000, 50_000):
            rows = "".join(f"C{i // 100:04d},{1900 + i % 100},0.{1 + i % 9973:04d},0.25,0.03{i % 7}\n" for i in range(n))
            stream = io.BytesIO((HEADER + "\n" + rows).encode())
            with mock.patch.object(panel_module, "_BLOCK_CHARS", 1 << 14):
                tracemalloc.start()
                try:
                    panel, diags = parse_panel(stream, year=1950)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert (len(panel), diags) == (n // 100, [])
        assert (peaks[1] - peaks[0]) / 25_000 <= 18


def parse_outcome(stream, parse=parse_panel):
    """``parse(stream)``, parse_panel by default: the panel's names, columns
    and key order, the diagnostics and the stream's position after the
    parse, or the type and message of the error."""
    try:
        panel, diags = parse(stream)
    except (ValueError, SchemaError) as exc:
        return type(exc), str(exc)
    assert all(type(d.line) is int for d in diags)
    columns = [getattr(panel, name).tolist() for name in panel_module._COLUMNS]
    order = np.asarray(panel._key_order()).tolist()
    return list(panel.names), columns, order, [(d.line, d.reason) for d in diags], stream.tell()


def split_parse(path, cpus, part_bytes=1 << 20, block_chars=1 << 18, skip_line=False, **filters):
    """parse_panel of the file ``path`` with ``filters`` on ``cpus`` usable
    CPUs, cut into parts of at least ``part_bytes`` bytes (one CPU: read
    whole, by this process alone), read ``block_chars`` bytes at a time,
    after its first line where ``skip_line`` says so.

    Returns its :func:`parse_outcome`; the number of parts read, one more
    than the processes forked; and the parts this process read: 1, or 2
    where it read part 0 and then, the split having failed, the whole
    input."""
    forked, reads = [], []
    real_fork, real_read = panel_module._fork_part, panel_module._read_part

    def fork(*args):
        forked.append(1)
        return real_fork(*args)

    def read_part(*args):
        reads.append(1)  # in a child, to the child's own copy
        return real_read(*args)

    with (
        mock.patch.object(panel_module, "_usable_cpus", lambda: cpus),
        mock.patch.object(panel_module, "_PART_BYTES", part_bytes),
        mock.patch.object(panel_module, "_BLOCK_CHARS", block_chars),
        mock.patch.object(panel_module, "_fork_part", fork),
        mock.patch.object(panel_module, "_read_part", read_part),
        open(path, "rb") as stream,
    ):
        if skip_line:
            stream.readline()
        return parse_outcome(stream, lambda stream: parse_panel(stream, **filters)), len(forked) + 1, len(reads)


def good_rows(count, name="C{}"):
    """``count`` valid rows (country, year, gini, top10, bottom10), each
    country named by ``name`` and its index, 20 years apiece."""
    return [f"{name.format(i // 20)},{1990 + i % 20},0.3,0.25,0.03" for i in range(count)]


HEADER = "country,year,gini,top10,bottom10"


class TestSplitParse:
    """A file of at least 2 * _PART_BYTES bytes, on more than one usable
    CPU, is parsed in parts, one per CPU, each by a process of its own.  It
    parses as the same file read whole by one process: the same panel,
    diagnostics, errors and stream position.  Here the parts are made small
    by patching _PART_BYTES and the usable-CPU count."""

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.one_of(
            st.lists(raw_lines(row_cells), min_size=4, max_size=40),
            st.lists(raw_lines(odd_row_cells), min_size=4, max_size=40),
        ),
        line_ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1),
        unterminated=st.booleans(),
        with_source=st.booleans(),
        bom=st.booleans(),
        cpus=st.integers(2, 4),
        block_chars=st.sampled_from([1, 2, 7, 64, 1 << 18]),
    )
    def test_matches_one_process(
        self, tmp_path_factory, rows, line_ends, unterminated, with_source, bom, cpus, block_chars
    ):
        text = panel_text(rows, line_ends, unterminated, with_source)
        path = tmp_path_factory.mktemp("split") / "panel.csv"
        path.write_bytes(("﻿" if bom else "").encode() + text.encode())
        part_bytes = max(path.stat().st_size // (cpus + 1), 1)
        whole, parts, _ = split_parse(path, 1)
        assert parts == 1
        split, parts, reads = split_parse(path, cpus, part_bytes, block_chars)
        event(f"read in {parts} part(s)" + " then whole" * (reads - 1))
        assert split == whole

    def cases(self, tmp_path, text, cpus=2, part_bytes=None, reads=1, **options):
        """The parse of ``text`` in parts, checked against the parse of the
        same file by one process, and the parts this process read (see
        :func:`split_parse`) checked against ``reads``; the number of parts
        read."""
        path = tmp_path / "panel.csv"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        part_bytes = part_bytes or path.stat().st_size // (cpus + 1)
        whole, _, _ = split_parse(path, 1, **options)
        split, parts, read = split_parse(path, cpus, part_bytes, **options)
        assert (split, read) == (whole, reads)
        return whole, parts

    def test_parts_per_cpu(self, tmp_path):
        rows = good_rows(400)
        rows[350] = "C17,1991,x,0.25,0.03"
        text = HEADER + "\n" + "\n".join(rows) + "\n"
        for cpus in (2, 3, 4):
            (_, columns, _, diags, position), parts = self.cases(tmp_path, text, cpus)
            assert parts == cpus
            assert (len(columns[0]), diags) == (399, [(352, "unparseable numeric in column 'gini': 'x'")])
            assert position == len(text)

    def test_blank_lines_at_a_cut(self, tmp_path):
        """The line numbers of a later part count the blank lines before it,
        not the line of the last row."""
        rows = good_rows(30) + [""] * 1000 + good_rows(30, "D{}")
        rows[-1] = "D1,2009,0.3,0.25,0.5"
        (_, _, _, diags, _), parts = self.cases(tmp_path, HEADER + "\n" + "\n".join(rows) + "\n")
        assert (parts, diags) == (2, [(1061, "share ordering violated")])

    def test_quoted_commas_on_both_sides_of_a_cut(self, tmp_path):
        rows = good_rows(300, '"Korea, Rep. {}"')
        whole, parts = self.cases(tmp_path, HEADER + "\n" + "\n".join(rows) + "\n")
        assert parts == 2 and whole[0][0] == "Korea, Rep. 0" and len(whole[0]) == 15

    def test_quoted_line_end_before_a_cut(self, tmp_path):
        rows = good_rows(300)
        rows[5] = '"Multi\nLine",2015,0.3,0.25,0.03'
        whole, parts = self.cases(tmp_path, HEADER + "\n" + "\n".join(rows) + "\n")
        assert parts == 2 and "Multi\nLine" in whole[0]

    def test_quoted_line_end_at_a_target_falls_back(self, tmp_path):
        """The line end past the cut's target is inside a quoted field, so
        part 0 ends inside it: this process reads part 0, then the whole
        input."""
        rows = good_rows(10) + ['"Multi' + "\n" * 2000 + 'Line",2015,0.3,0.25,0.03'] + good_rows(10, "D{}")
        whole, parts = self.cases(tmp_path, HEADER + "\n" + "\n".join(rows) + "\n", reads=2)
        assert parts == 2 and len(whole[1][0]) == 21

    @pytest.mark.parametrize("block_chars", [7, 1 << 18])
    def test_stray_quote_then_a_cut_in_a_quoted_field(self, tmp_path, block_chars):
        """A quote that ends an unquoted cell is a quote of that cell, so the
        quoted field of the next row is open at every cut: the cuts take no
        notice of quotes, part 0 ends inside that field, and this process
        reads the whole input."""
        multi = ",Multi" + "\n" * 2000 + "Line"
        rows = good_rows(10) + ['A",2015,0.3,0.25,0.03', f'"{multi}",2015,0.3,0.25,0.03']
        rows += good_rows(10, "D{}")
        text = HEADER + "\n" + "\n".join(rows) + "\n"
        whole, parts = self.cases(tmp_path, text, cpus=4, reads=2, block_chars=block_chars)
        assert parts == 4 and {'A"', multi} < set(whole[0])

    @pytest.mark.parametrize("block_chars", [1, 2, 7, 1 << 18])
    @pytest.mark.parametrize("line_end", ["\r\n", "\r"])
    def test_crlf_and_lone_cr(self, tmp_path, line_end, block_chars):
        rows = good_rows(300)
        rows[250] = "C12,1990,0.3,0.25,0.03"  # repeats row 240
        text = line_end.join([HEADER, *rows]) + line_end
        (_, _, _, diags, _), parts = self.cases(tmp_path, text, cpus=3, block_chars=block_chars)
        assert (parts, diags) == (3, [(252, "duplicate record ('C12', 1990, 'OTHER')")])

    @pytest.mark.parametrize("line_end", ["\r\n", "\r"])
    def test_cr_that_ends_a_cut_read(self, tmp_path, line_end):
        """The cut finder reads from the target to a "\\r" that ends its
        read: a "\\n" that starts the next read ends the same line, and the
        cut falls after both."""
        rows = good_rows(300)
        rows[250] = "C12,1990,0.3,0.25,0.03"  # repeats row 240
        text = line_end.join([HEADER, *rows]) + line_end
        target = int(len(text) * 0.9 / 1.9)  # of part 1 of 2
        cr = text.index("\r", target)
        block_chars = cr - target + 1
        path = tmp_path / "panel.csv"
        path.write_text(text, newline="")
        with (
            mock.patch.object(panel_module, "_usable_cpus", lambda: 2),
            mock.patch.object(panel_module, "_PART_BYTES", len(text) // 3),
            mock.patch.object(panel_module, "_BLOCK_CHARS", block_chars),
            open(path, "rb") as stream,
        ):
            assert panel_module._split_plan(stream)[1][0] == cr + len(line_end)
        (_, _, _, diags, _), parts = self.cases(tmp_path, text, block_chars=block_chars)
        assert (parts, diags) == (2, [(252, "duplicate record ('C12', 1990, 'OTHER')")])

    @pytest.mark.parametrize("end", ["\n", ""])
    def test_target_in_the_last_line(self, tmp_path, end):
        """No line ends past the last target but the file's end: 3 CPUs read
        2 parts."""
        rows = good_rows(200) + ["L" * 6000 + ",2015,0.3,0.25,0.5"]
        text = HEADER + "\n" + "\n".join(rows) + end
        (_, _, _, diags, _), parts = self.cases(tmp_path, text, cpus=3)
        assert (parts, diags) == (2, [(202, "share ordering violated")])

    def test_blank_lines_before_two_cuts(self, tmp_path):
        """Blank lines, which make no rows, before each of 2 cuts: each
        part's line numbers follow all the lines of the parts before it."""
        rows = [*good_rows(60), *[""] * 300, *good_rows(60, "D{}"), *[""] * 300, *good_rows(60, "E{}")]
        bad = [59, 360, 419, 720, 779]  # each first or last in a run of rows
        for j in bad:
            rows[j] = rows[j].replace("0.3,", "x,")
        text = HEADER + "\n" + "\n".join(rows) + "\n"
        cuts = [text.index("\n", len(text) * share // 29) + 1 for share in (9, 19)]
        assert all("\n\n\n" in text[lo:hi] for lo, hi in zip([0, *cuts], cuts))
        (_, _, _, diags, _), parts = self.cases(tmp_path, text, cpus=3)
        assert parts == 3
        assert diags == [(j + 2, "unparseable numeric in column 'gini': 'x'") for j in bad]

    def test_cut_in_a_quoted_field_of_a_later_part(self, tmp_path):
        """Part 1 of 3 ends inside a quoted field: its child exits 1, and
        this process reads the whole input after part 0."""
        rows = good_rows(130) + ['"Multi' + "\n" * 1500 + 'Line",2015,0.3,0.25,0.03'] + good_rows(60, "D{}")
        text = HEADER + "\n" + "\n".join(rows) + "\n"
        first, second = (len(text) * share // 29 for share in (9, 19))  # the cuts' targets
        assert '"' not in text[:first] and text.count('"', first, second) == 1
        whole, parts = self.cases(tmp_path, text, cpus=3, reads=2)
        assert parts == 3 and len(whole[1][0]) == 191

    def test_unclosed_quote_ends_the_last_part(self, tmp_path):
        """The last part ends inside a quoted field that no quote closes: no
        part starts after it, and it reads as one process reads it."""
        text = HEADER + "\n" + "\n".join(good_rows(300)) + '\n"Open,2015,0.3\n\nand on\n'
        (_, columns, _, diags, _), parts = self.cases(tmp_path, text)
        assert (parts, len(columns[0])) == (2, 300)
        assert diags == [(304, "row too short: no value for column 'year'")]

    def test_byte_order_mark(self, tmp_path):
        text = '﻿"country",year,gini,top10,bottom10\n' + "\n".join(good_rows(300)) + "\n"
        (names, _, _, _, position), parts = self.cases(tmp_path, text)
        assert (parts, names[0], position) == (2, "C0", len(text.encode()))

    @pytest.mark.parametrize("block_chars", [64, 1 << 18])
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_repeats_after_blank_lines_spanning_rows_and_skipped_rows(self, tmp_path, cpus, block_chars):
        """Each part has blank lines, a quoted row that spans two lines and
        a skipped row before repeats of its own rows and of part 0's: each
        repeat's line, read from its run of rows, is the one a parse by one
        process gives."""
        rows = []
        for name in "ABDEFG":
            section = good_rows(40, name + "{}")
            section[10:10] = ["", ""]
            section[15] = f'"{name}\nspan",1990,0.3,0.25,0.03'
            section[20] = section[20].replace(",0.3,", ",x,")
            rows += [*section, "", section[3], good_rows(1)[0]]
        text = HEADER + "\n" + "\n".join(rows) + "\n"
        _, expected, _ = reference_parse(text, SchemaConfig())
        (names, _, _, diags, _), parts = self.cases(tmp_path, text, cpus=cpus, block_chars=block_chars)
        assert (parts, diags) == (cpus, expected)
        assert sum("duplicate" in reason for _, reason in diags) == 11
        assert len(names) == 6 * 3 + 1

    def test_duplicate_key_in_another_part(self, tmp_path):
        rows = good_rows(300)
        rows.append(rows[0])
        (_, columns, _, diags, _), parts = self.cases(tmp_path, HEADER + "\n" + "\n".join(rows) + "\n", cpus=3)
        assert (parts, len(columns[0])) == (3, 300)
        assert diags == [(302, "duplicate record ('C0', 1990, 'OTHER')")]

    @pytest.mark.parametrize("block_chars", [64, 1 << 18])
    def test_part_of_skipped_rows_only(self, tmp_path, block_chars):
        """Part 1 of 3 holds only rows with no gini, so its child sends no
        rows; a repeat of a part-0 row follows them.  At 64 bytes a block,
        one process also reads blocks of skipped rows only."""
        bad = [row.replace(",0.3,", ",n/a,") for row in good_rows(200, "B{}")]
        good = good_rows(100)
        rows = [*good, *bad, good[5], *good_rows(99, "D{}")]
        text = HEADER + "\n" + "\n".join(rows) + "\n"
        path = tmp_path / "panel.csv"
        path.write_text(text)
        with (
            mock.patch.object(panel_module, "_usable_cpus", lambda: 3),
            mock.patch.object(panel_module, "_PART_BYTES", len(text) // 4),
            open(path, "rb") as stream,
        ):
            (_, (lo, hi), _) = panel_module._split_plan(stream)
        assert all(",n/a," in row for row in text[lo:hi].splitlines())
        whole, parts = self.cases(tmp_path, text, cpus=3, block_chars=block_chars)
        (_, columns, order, diags, position) = whole
        assert (parts, len(columns[0]), len(order), position) == (3, 199, 199, len(text))
        expected = [(j + 102, "unparseable numeric in column 'gini': 'n/a'") for j in range(200)]
        assert diags == [*expected, (302, "duplicate record ('C0', 1995, 'OTHER')")]

    def test_bad_row_first_in_a_part(self, tmp_path):
        rows = good_rows(300)
        text = HEADER + "\n" + "\n".join(rows) + "\n"
        path = tmp_path / "panel.csv"
        path.write_text(text)
        with (
            mock.patch.object(panel_module, "_usable_cpus", lambda: 2),
            mock.patch.object(panel_module, "_PART_BYTES", len(text) // 3),
            open(path, "rb") as stream,
        ):
            (_, (cut, _)) = panel_module._split_plan(stream)
        # The same bytes, the row that starts part 1 made bad.
        line = text.count("\n", 0, cut) + 1
        at = text.index("\n", cut) + 1
        text = text[:cut] + text[cut:at].replace("0.3,", "x.x,") + text[at:]
        (_, _, _, diags, _), parts = self.cases(tmp_path, text, part_bytes=len(text) // 3)
        assert parts == 2 and diags == [(line, "unparseable numeric in column 'gini': 'x.x'")]

    @pytest.mark.parametrize("where", [0.1, 0.9])
    def test_invalid_utf8(self, tmp_path, where):
        """A byte that is not UTF-8, in part 0 or in a later part, raises the
        error a read of the whole file raises."""
        rows = good_rows(300)
        rows[int(300 * where)] = "C\xff,2015,0.3,0.25,0.03"
        data = (HEADER + "\n" + "\n".join(rows) + "\n").encode("latin-1")
        # Small blocks: the header's block does not hold the byte.
        # A child that fails makes this process read the whole input.
        (error, message), parts = self.cases(tmp_path, data, reads=1 + (where > 0.5), block_chars=64)
        assert (parts, error) == (2, ValueError) and "can't decode byte 0xff" in message

    def test_missing_column(self, tmp_path):
        text = "country,year,gini,top10\n" + "\n".join(good_rows(300)) + "\n"
        whole, parts = self.cases(tmp_path, text, reads=0)  # refused before a part is read
        assert (parts, whole) == (1, (SchemaError, "missing declared column(s): bottom10"))

    def test_stream_not_at_the_start(self, tmp_path):
        text = "# a preamble\n" + HEADER + "\n" + "\n".join(good_rows(300)) + "\n"
        (_, columns, _, _, position), parts = self.cases(tmp_path, text, skip_line=True)
        assert (parts, len(columns[0]), position) == (2, 300, len(text))

    def test_text_stream_and_pipe_read_whole(self, tmp_path):
        text = HEADER + "\n" + "\n".join(good_rows(300)) + "\n"
        path = tmp_path / "panel.csv"
        path.write_text(text)
        read, write = os.pipe()
        os.write(write, text.encode())  # less than a pipe holds
        os.close(write)
        with (
            mock.patch.object(panel_module, "_usable_cpus", lambda: 4),
            mock.patch.object(panel_module, "_PART_BYTES", 16),
            mock.patch.object(panel_module, "_fork_part", side_effect=AssertionError("forked")),
            open(path, encoding="utf-8", newline="") as text_stream,
            open(read, "rb") as pipe,
        ):
            for stream in (text_stream, pipe, text):
                panel, diags = parse_panel(stream)
                assert (len(panel), diags) == (300, [])

    def test_one_cpu_reads_whole(self, tmp_path):
        text = HEADER + "\n" + "\n".join(good_rows(300)) + "\n"
        path = tmp_path / "panel.csv"
        path.write_text(text)
        assert split_parse(path, 1, 16)[1:] == (1, 1)

    def test_threads_or_ignored_children_read_whole(self, tmp_path):
        """A process that runs another thread, which a forked child would
        lack, or that lets the system reap its children, forks none."""
        text = HEADER + "\n" + "\n".join(good_rows(300)) + "\n"
        path = tmp_path / "panel.csv"
        path.write_text(text)
        whole = split_parse(path, 1)
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            assert split_parse(path, 2, 16) == whole
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            assert split_parse(path, 2, 16) == whole
        finally:
            signal.signal(signal.SIGCHLD, previous)

    def test_no_process_to_be_had_reads_whole(self, tmp_path):
        """Where no child process can be forked, the parse gives up the
        split before part 0 is read and reads the input whole, once, in this
        process, leaving no child behind."""
        rows = good_rows(300)
        rows[250] = "C12,1990,x,0.25,0.03"
        text = HEADER + "\n" + "\n".join(rows) + "\n"
        with mock.patch.object(os, "fork", side_effect=OSError(11, "Resource temporarily unavailable")):
            (_, columns, _, diags, position), parts = self.cases(tmp_path, text, cpus=3)
        assert parts == 3  # both later parts were tried
        assert (len(columns[0]), position) == (299, len(text))
        assert diags == [(252, "unparseable numeric in column 'gini': 'x'")]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_no_line_end_past_the_first_target_reads_whole(self, tmp_path):
        """A file whose last line starts before the first cut's target is
        not cut: one process reads it whole, once."""
        rows = good_rows(20)
        rows[5] = "C0,1995,0.3,0.02,0.03"
        rows.append("Long" + "g" * 3000 + ",2015,0.3,0.25,0.03")
        text = HEADER + "\n" + "\n".join(rows) + "\n"
        part_bytes = len(text) // 2
        path = tmp_path / "panel.csv"
        path.write_text(text)
        real, cut = panel_module._line_cut, []
        with (
            mock.patch.object(panel_module, "_usable_cpus", lambda: 2),
            mock.patch.object(panel_module, "_PART_BYTES", part_bytes),
            mock.patch.object(panel_module, "_line_cut", lambda *args: cut.append(real(*args)) or cut[-1]),
            open(path, "rb") as stream,
        ):
            assert panel_module._split_plan(stream) is None
        assert cut == [len(text)]  # the one target tried found no line end before the end
        (_, columns, _, diags, position), parts = self.cases(tmp_path, text, part_bytes=part_bytes)
        assert (parts, len(columns[0]), position) == (1, 20, len(text))
        assert diags == [(7, "share ordering violated")]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


# A good row's cells by declared column, and rows that each fail a check:
# the cells changed from a good row's, the reason, and the text of the one
# cell the wording decodes (None: a share rule's reason decodes none).
GOOD_CELLS = {"country": "AAA", "year": "2015", "gini": "0.3", "top10": "0.25", "bottom10": "0.03", "source": "WB"}
BAD_CELLS = {
    "empty country": ({"country": " "}, "empty country identifier", ""),
    "year not an integer": ({"year": "20x5"}, "year is not an integer: '20x5'", "20x5"),
    "year out of range": ({"year": "-9223372036854775809"}, "year out of range: '-9223372036854775809'",
                          "-9223372036854775809"),
    "unparseable share": ({"gini": "0..3"}, "unparseable numeric in column 'gini': '0..3'", "0..3"),
    "non-finite share": ({"bottom10": "-inf"}, "non-finite value in column 'bottom10': '-inf'", "-inf"),
    "unknown source": ({"source": "xx"}, "unknown source 'XX'", "xx"),
    "gini out of range": ({"gini": "1.5"}, "gini out of range: 1.5", None),
    "top10 out of range": ({"top10": "1.25"}, "top10 share out of range: 1.25", None),
    "bottom10 out of range": ({"bottom10": "-0.03"}, "bottom10 share out of range: -0.03", None),
    "share ordering": ({"top10": "0.02"}, "share ordering violated", None),
    "first of two cells": ({"year": "x", "gini": "y"}, "year is not an integer: 'x'", "x"),
    "a cell before a rule": ({"gini": "1.5", "source": "xx"}, "unknown source 'XX'", "xx"),
    "first of two rules": ({"gini": "1.5", "top10": "0.02"}, "gini out of range: 1.5", None),
}


def reason_cases():
    """The header, the bad row's cells, its reason and the text of the cell
    its wording decodes: one case per entry of BAD_CELLS, and a row one cell
    short at each declared column, which the header puts last."""
    columns = list(GOOD_CELLS)
    for name, (changed, reason, decoded) in BAD_CELLS.items():
        yield pytest.param(columns, [changed.get(c, GOOD_CELLS[c]) for c in columns], reason, decoded, id=name)
    for missing in columns:
        header = [c for c in columns if c != missing] + [missing]
        reason = f"row too short: no value for column '{missing}'"
        yield pytest.param(header, [GOOD_CELLS[c] for c in header[:-1]], reason, "", id=f"short at {missing}")


class TestSkipReasons:
    """A skipped row gets the reason of the first check it fails, in one
    process and in a split parse alike, and wording it decodes only the one
    cell whose check failed: a share rule's reason decodes no cell."""

    @pytest.mark.parametrize("header, bad, reason, decoded", list(reason_cases()))
    def test_reason_decodes_one_cell(self, tmp_path, monkeypatch, header, bad, reason, decoded):
        rows = [[str(1000 + i) if c == "year" else GOOD_CELLS[c] for c in header] for i in range(300)]
        at = 225  # in the second of two parts, below
        rows.insert(at, bad)
        text = ",".join(header) + "\n" + "\n".join(",".join(row) for row in rows) + "\n"
        read = []
        real = panel_module._text
        monkeypatch.setattr(panel_module, "_text", lambda cell: read.append(cell) or real(cell))
        panel, diags = parse_panel(text)
        monkeypatch.undo()
        kept, expected, _ = reference_parse(text, SchemaConfig())
        assert panel.records == kept
        assert [(d.line, d.reason) for d in diags] == expected == [(at + 2, reason)]
        # _lookup decodes each distinct country cell and each source cell
        # not spelled exactly once; a short row's missing cell reads "".
        cells = dict(zip(header, [*bad, ""]))
        lookups = 1 + (cells["country"] != "AAA") + (cells["source"] not in ("WB", "OECD", "OTHER"))
        if decoded is None:
            assert len(read) == lookups
        else:
            assert len(read) == lookups + 1 and real(read[-1]) == decoded

        path = tmp_path / "panel.csv"
        path.write_text(text)
        part_bytes = len(text) // 3
        with (
            mock.patch.object(panel_module, "_usable_cpus", lambda: 2),
            mock.patch.object(panel_module, "_PART_BYTES", part_bytes),
            open(path, "rb") as stream,
        ):
            (_, (cut, _)) = panel_module._split_plan(stream)
        assert text.index("\n" + ",".join(bad) + "\n") >= cut
        whole, _, _ = split_parse(path, 1)
        split, parts, reads = split_parse(path, 2, part_bytes)
        assert (parts, reads) == (2, 1)
        assert split == whole and split[3] == [(at + 2, reason)]


class TestSplitParseFailures:
    """Whatever a child process does, no process outlives the parse: a child
    that fails makes the parent parse the whole input itself, and a parent
    that raises kills and reaps every child first."""

    TEXT = HEADER + "\n" + "\n".join(good_rows(300)) + "\n"

    def parse(self, tmp_path, cpus=3):
        path = tmp_path / "panel.csv"
        path.write_text(self.TEXT)
        with (
            mock.patch.object(panel_module, "_usable_cpus", lambda: cpus),
            mock.patch.object(panel_module, "_PART_BYTES", len(self.TEXT) // (cpus + 1)),
            open(path, "rb") as stream,
        ):
            panel, diags = parse_panel(stream)
            return len(panel), diags, stream.tell()

    def test_parent_raising_kills_its_children(self, tmp_path):
        parent, real = os.getpid(), panel_module._read_part

        def read_part(*args):
            if os.getpid() == parent:
                raise RuntimeError("part 0 failed")
            time.sleep(60)  # a child still running
            return real(*args)

        start = time.monotonic()
        with mock.patch.object(panel_module, "_read_part", read_part):
            with pytest.raises(RuntimeError, match="part 0 failed"):
                self.parse(tmp_path)
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("fault", ["raise", "exit 7", "no pickle", "short"])
    def test_failed_child_falls_back(self, tmp_path, fault):
        """A child that raises, exits non-zero after sending its rows, sends
        no pickle or stops short: the parent parses the input again."""
        parent, real_read, real_dump, real_exit = os.getpid(), panel_module._read_part, pickle.dump, os._exit
        calls = []

        def read_part(*args):
            calls.append(os.getpid() == parent)
            if os.getpid() != parent and fault == "raise":
                raise RuntimeError("a child failed")
            return real_read(*args)

        def dump(obj, pipe):
            if fault == "no pickle":
                pipe.write(b"not a pickle")
                return
            real_dump(obj, pipe)
            if fault == "short":
                pipe.flush()
                real_exit(0)

        def exit(status):
            real_exit(7 if fault == "exit 7" else status)

        with (
            mock.patch.object(panel_module, "_read_part", read_part),
            mock.patch.object(panel_module.pickle, "dump", dump),
            mock.patch.object(os, "_exit", exit),
        ):
            assert self.parse(tmp_path) == (300, [], len(self.TEXT))
        # Part 0, then the whole input, in this process.
        assert calls == [True, True]


def whole_then_slice(path, sliced=False, **filters):
    """The :func:`parse_outcome` of the whole parse of the file ``path`` by
    this process alone, then slice_panel with ``filters``; ``sliced``, a
    flag of parse_panel alone, is not used."""

    def parse(stream):
        panel, diags = parse_panel(stream)
        return slice_panel(panel, **filters), diags

    with mock.patch.object(panel_module, "_usable_cpus", lambda: 1), open(path, "rb") as stream:
        return parse_outcome(stream, parse)


FILTERS = [
    {"year": 2015},
    {"year": 2015, "source": Source.WB},
    {"country": "AAA"},
    {"country": "Nowhere"},
    {"year": 1999},
    {"sliced": True},
]


class TestFilteredParse:
    """A parse given slice_panel's filters, or ``sliced`` and none, is the
    whole parse then slice_panel: the same names, columns, key order,
    diagnostics and stream position, or the same error, read by one process
    or in parts."""

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.one_of(
            st.lists(raw_lines(row_cells), min_size=4, max_size=40),
            st.lists(raw_lines(odd_row_cells), min_size=4, max_size=40),
        ),
        line_ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1),
        unterminated=st.booleans(),
        with_source=st.booleans(),
        filters=st.sampled_from(FILTERS),
        block_chars=st.sampled_from([1, 7, 64, 1 << 18]),
    )
    def test_matches_whole_then_slice(
        self, tmp_path_factory, rows, line_ends, unterminated, with_source, filters, block_chars
    ):
        path = tmp_path_factory.mktemp("filtered") / "panel.csv"
        path.write_bytes(panel_text(rows, line_ends, unterminated, with_source).encode())
        whole = whole_then_slice(path, **filters)
        for cpus in (1, 2, 3):
            part_bytes = max(path.stat().st_size // (cpus + 1), 1)
            split, parts, reads = split_parse(path, cpus, part_bytes, block_chars, **filters)
            event(f"read in {parts} part(s)" + " then whole" * (reads - 1))
            assert split == whole

    @settings(max_examples=20, deadline=None)
    @given(
        rows=st.lists(raw_lines(row_cells), max_size=30),
        line_ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1),
        unterminated=st.booleans(),
        with_source=st.booleans(),
        filters=st.sampled_from(FILTERS),
    )
    def test_wide_keys_match_whole_then_slice(
        self, tmp_path_factory, rows, line_ends, unterminated, with_source, filters
    ):
        """Two rows at int64's year ends, first in the file, make every key
        too wide to pack: each parse sorts its keys by one lexsort."""
        ends = [["ZZZ", str(year), "WB", "0.3", "0.25", "0.03"] for year in (INT64.min, INT64.max)]
        path = tmp_path_factory.mktemp("wide") / "panel.csv"
        path.write_bytes(panel_text(ends + rows, line_ends, unterminated, with_source).encode())
        with mock.patch.object(panel_module.np, "lexsort", wraps=np.lexsort) as lexsort:
            whole = whole_then_slice(path, **filters)
            for cpus in (1, 2, 3):
                lexsort.reset_mock()
                split, _, _ = split_parse(path, cpus, max(path.stat().st_size // (cpus + 1), 1), **filters)
                assert (split, lexsort.call_count) == (whole, 1)

    @pytest.mark.parametrize("filters", FILTERS)
    def test_repeats_inside_and_outside_the_filter(self, tmp_path, filters):
        """Repeated keys in the filter and out of it, one of them a later
        copy of a row the filter keeps that falls in the last part, are each
        diagnosed as the whole parse diagnoses them; a bad row in the filter
        keeps no key.  Read in 1, 2 and 3 parts, none read twice."""
        names = ["AAA"] + [f"C{k:02d}" for k in range(1, 30)]
        # One row of each (country, year, source) key but those written below.
        rows = [f"{names[i // 20]},{2000 + i % 20},{'WB' if i % 2 else 'OECD'},0.3,0.25,0.03" for i in range(600)]
        rows[40] = "AAA,2015,WB,0.4,0.25,0.03"  # a repeat in every filter but two, in part 0
        rows[320] = "C16,2000,OECD,x,0.25,0.03"  # a bad row
        rows[500] = "C03,2001,WB,0.3,0.25,0.03"  # a repeat out of every filter
        rows[590] = "C01,2015,WB,0.5,0.3,0.02"  # a later copy of a row the year filter keeps
        rows[595] = "AAA,2012,OECD,0.3,0.25,0.03"  # a repeat of the country filter's, not the year's
        path = tmp_path / "panel.csv"
        path.write_text("country,year,source,gini,top10,bottom10\n" + "\n".join(rows) + "\n")
        whole = whole_then_slice(path, **filters)
        assert [line for line, _ in whole[3]] == [42, 322, 502, 592, 597]
        assert (whole[0], whole[4]) == (names, path.stat().st_size)
        for cpus in (1, 2, 3):
            split = split_parse(path, cpus, path.stat().st_size // (cpus + 1), **filters)
            assert split == (whole, cpus, 1)

