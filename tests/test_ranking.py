"""Ranking: competition ranks, comparisons, and per-country series."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ineqkit import (
    CountryYearRecord,
    DomainError,
    EmptyInputError,
    Indicator,
    JoinError,
    NotFoundError,
    Panel,
    Source,
    calibrate_alpha,
    compare_rankings,
    composite,
    rank,
    rank_values,
    replicate_table,
    round_half_away,
    series,
)
from ineqkit.ranking import indicator_value


def _panel(rows, year=2015, source=Source.WB):
    records = tuple(
        CountryYearRecord(c, year, gini=g, top10=t, bottom10=b, source=source)
        for c, g, t, b in rows
    )
    return Panel(records)


class TestRoundHalfAway:
    def test_half_goes_up(self):
        assert round_half_away(0.3025) == 0.303
        assert round_half_away(0.2585) == 0.259

    def test_plain_rounding(self):
        assert round_half_away(0.30249) == 0.302
        assert round_half_away(13.789) == 13.789

    def test_infinite_passthrough(self):
        assert round_half_away(float("inf")) == float("inf")

    @pytest.mark.parametrize("value", [2.0**52, -(2.0**52), 1e26, 3e299, -1.7976931348623157e308])
    def test_integral_floats_are_kept(self, value):
        """A float of magnitude 2**52 or more is an integer: it rounds to
        itself, past the digits a decimal quantize holds."""
        assert round_half_away(value) == value
        assert round_half_away(2.0**52 - 0.5) == 2.0**52 - 0.5


class TestRank:
    def test_tie_pattern(self):
        panel = _panel(
            [
                ("AAA", 0.254, 0.25, 0.05),
                ("BBB", 0.255, 0.25, 0.05),
                ("CCC", 0.255, 0.25, 0.05),
            ]
        )
        table = rank(panel, Indicator.GINI)
        assert [(e.rank, e.country) for e in table.entries] == [
            (1, "AAA"),
            (2, "BBB"),
            (2, "CCC"),
        ]

    def test_competition_rank_skips(self):
        values = {"a": 0.1, "b": 0.2, "c": 0.2, "d": 0.3}
        table = rank_values(values, Indicator.GINI)
        assert [e.rank for e in table.entries] == [1, 2, 2, 4]

    def test_wb_reference_ranks(self, wb_panel):
        table = rank(wb_panel, Indicator.GINI)
        assert table.rank_of("Slovenia") == 1
        assert table.rank_of("Namibia") == 75
        assert table.rank_of("Slovak Republic") == 5
        assert table.rank_of("Kosovo") == 5

    def test_oecd_reference_ranks(self, oecd_panel):
        table = rank(oecd_panel, Indicator.GINI)
        assert table.rank_of("United Kingdom") == 28
        assert table.rank_of("Israel") == 28

    def test_empty_panel(self):
        with pytest.raises(EmptyInputError):
            rank(Panel(()), Indicator.GINI)

    def test_mixed_panel_rejected(self):
        records = (
            CountryYearRecord("AAA", 2014, gini=0.3, top10=0.25, bottom10=0.03),
            CountryYearRecord("AAA", 2015, gini=0.3, top10=0.25, bottom10=0.03),
        )
        with pytest.raises(DomainError):
            rank(Panel(records), Indicator.GINI)

    def test_permutation_invariance(self, wb_rows):
        rows = [(r["country"], r["gini"], r["t_over_b"] / 100.0, 0.01) for r in wb_rows]
        shuffled = rows[:]
        random.Random(7).shuffle(shuffled)
        assert rank(_panel(rows), Indicator.INDEX_I) == rank(
            _panel(shuffled), Indicator.INDEX_I
        )

    def test_nan_rejected_with_its_country(self):
        with pytest.raises(DomainError, match="'a'"):
            rank_values({"a": math.nan, "b": 0.5, "c": 0.2}, Indicator.INDEX_I)

    def test_nothing_to_rank(self):
        with pytest.raises(EmptyInputError) as exc:
            rank_values({}, Indicator.GINI)
        assert str(exc.value) == "nothing to rank"

    def test_rank_of_an_unknown_country(self):
        table = rank_values({"a": 0.3, "b": 0.2}, Indicator.GINI)
        assert (table.rank_of("a"), table.rank_of("b")) == (2, 1)
        with pytest.raises(NotFoundError) as exc:
            table.rank_of("c")
        assert exc.value.args == ("c",)

    def test_infinite_ranks_last(self):
        table = rank_values({"a": math.inf, "b": 0.5, "c": 0.2}, Indicator.RATIO_TB)
        assert [(e.rank, e.country) for e in table.entries] == [(1, "c"), (2, "b"), (3, "a")]

    @given(
        st.dictionaries(
            keys=st.text(alphabet="abcdefgh", min_size=1, max_size=3),
            values=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=20,
        )
    )
    def test_competition_rank_law(self, values):
        table = rank_values(values, Indicator.GINI)
        for entry in table.entries:
            strictly_better = sum(1 for e in table.entries if e.value < entry.value)
            assert entry.rank == strictly_better + 1


class TestIndicatorValue:
    def test_unknown_indicator(self):
        panel = _panel([("AAA", 0.3, 0.25, 0.03)])
        with pytest.raises(DomainError, match="unknown indicator 'gini'"):
            indicator_value(panel, "gini")


class TestCompare:
    def test_identical_tables(self, wb_panel):
        table = rank(wb_panel, Indicator.GINI)
        cmp = compare_rankings(table, table)
        assert cmp.changed == 0
        assert cmp.unchanged == len(wb_panel)

    def test_symmetry(self, wb_panel):
        a = rank(wb_panel, Indicator.GINI)
        b = rank(wb_panel, Indicator.INDEX_I)
        assert compare_rankings(a, b).changed == compare_rankings(b, a).changed

    def test_mismatched_sets(self):
        a = rank_values({"x": 0.1, "y": 0.2}, Indicator.GINI)
        b = rank_values({"x": 0.1, "z": 0.2}, Indicator.GINI)
        with pytest.raises(JoinError, match="y"):
            compare_rankings(a, b)

    def test_invariant_changed_plus_unchanged(self, oecd_panel):
        a = rank(oecd_panel, Indicator.GINI)
        b = rank(oecd_panel, Indicator.INDEX_I)
        cmp = compare_rankings(a, b)
        assert cmp.changed + cmp.unchanged == len(oecd_panel)

    def test_monotone_consistency(self, wb_panel):
        # dominated on both inputs implies no worse index rank, for all pairs
        table = rank(wb_panel, Indicator.INDEX_I)
        ranks = {e.country: e.rank for e in table.entries}
        records = list(wb_panel.records)
        for a in records:
            for b in records:
                if a.gini < b.gini and (
                    a.top10 / a.bottom10 < b.top10 / b.bottom10
                ):
                    assert ranks[a.country] <= ranks[b.country], (
                        a.country,
                        b.country,
                    )


class TestSeries:
    def test_single_year(self):
        panel = _panel([("AAA", 0.3, 0.25, 0.05)])
        (point,) = series(panel, "AAA")
        assert point.year == 2015
        assert point.t_over_b == 5.0
        assert point.index_i == composite(0.3, 0.2).index_i

    def test_year_ordering(self):
        records = tuple(
            CountryYearRecord("AAA", y, gini=0.3, top10=0.25, bottom10=0.05)
            for y in (2014, 2010, 2012)
        )
        points = series(Panel(records), "AAA")
        assert [p.year for p in points] == [2010, 2012, 2014]

    def test_unknown_country(self):
        panel = _panel([("AAA", 0.3, 0.25, 0.05)])
        with pytest.raises(NotFoundError):
            series(panel, "ZZZ")


class TestReplicateTable:
    def test_matches_a_row_loop(self, wb_rows):
        rows = [(r["country"], r["gini"], r["t_over_b"], r["h"], r["index_i"]) for r in wb_rows]
        table = replicate_table(rows, 0.3)
        index = {c: composite(g, 1.0 / t, 0.3).index_i for c, g, t, _, _ in rows}
        dh = [abs(composite(g, 1.0 / t, 0.3).h - h) for _, g, t, h, _ in rows]
        di = [abs(index[c] - i) for c, _, _, _, i in rows]
        assert table.worst_h == (max(dh), rows[dh.index(max(dh))][0])
        assert table.worst_i == (max(di), rows[di.index(max(di))][0])
        assert table.rank_changes() == compare_rankings(
            rank_values({c: g for c, g, *_ in rows}, Indicator.GINI),
            rank_values(index, Indicator.INDEX_I),
        )
        n = len(rows)
        assert table.alpha() == calibrate_alpha(
            sum(g for _, g, *_ in rows) / n, sum(1.0 / t for _, _, t, *_ in rows) / n
        )

    def test_one_composite_call_per_table(self, wb_rows, monkeypatch):
        import ineqkit.ranking as ranking_module

        calls = []
        real = ranking_module.composite
        monkeypatch.setattr(ranking_module, "composite", lambda *a: calls.append(a) or real(*a))
        rows = [(r["country"], r["gini"], r["t_over_b"], r["h"], r["index_i"]) for r in wb_rows]
        replicate_table(rows)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "bad, message",
        [
            ((0.3, 0.5), "top-over-bottom ratio 0.5 must be >= 1"),
            ((0.3, math.nan), "top-over-bottom ratio nan must be >= 1"),
            ((1.5, 4.0), "gini 1.5 outside [0, 1]"),
        ],
    )
    def test_a_bad_value_is_named(self, bad, message):
        rows = [("A", 0.3, 4.0, 0.0, 0.0), ("B", *bad, 0.0, 0.0), ("C", 0.2, 2.0, 0.0, 0.0)]
        with pytest.raises(DomainError) as err:
            replicate_table(rows)
        assert str(err.value) == message

    def test_empty_table(self):
        assert replicate_table([]).rows == ()

    def test_empty_table_has_no_alpha(self):
        with pytest.raises(EmptyInputError, match="no rows to calibrate on"):
            replicate_table([]).alpha()

    def test_first_row_with_the_worst_deviation(self):
        table = replicate_table([("B", 0.3, 10.0, 0.0, 0.0), ("A", 0.3, 10.0, 0.0, 0.0)])
        assert (table.worst_h[1], table.worst_i[1]) == ("B", "B")
