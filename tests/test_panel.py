"""Panel ingestion: parsing, diagnostics, units, slicing, serialization."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

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

    def test_no_header(self):
        with pytest.raises(SchemaError):
            parse_panel("")


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

    def test_idempotent(self):
        once = slice_panel(_mixed_panel(), year=2015, source=Source.WB)
        twice = slice_panel(once, year=2015, source=Source.WB)
        assert once == twice


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
