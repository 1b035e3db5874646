"""CLI contract: subcommand outputs, diagnostics, and exit codes."""

import csv
import gzip
import io
import math
import urllib.request
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ineqkit import IneqError, cli
from ineqkit.cli import main

from conftest import DYNAMICS_PANEL, OECD_TABLE, WB_TABLE

PANEL_HEADER = "country,year,gini,top10,bottom10\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def metric_map(text):
    return {row["metric"]: row["value"] for row in parse_csv(text)}


class TestCompute:
    def test_small_panel(self, capsys, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text(PANEL_HEADER + "GRC,2015,0.360,0.262,0.019\n")
        code, out, err = run(capsys, "compute", "--input", str(path))
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert rows[0]["country"] == "GRC"
        assert float(rows[0]["index_i"]) == pytest.approx(0.425, abs=1e-3)
        assert float(rows[0]["h"]) == pytest.approx(0.481, abs=1e-3)
        assert float(rows[0]["t_over_b"]) == pytest.approx(13.79, abs=0.01)

    def test_empty_panel_header_only(self, capsys, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text(PANEL_HEADER)
        code, out, err = run(capsys, "compute", "--input", str(path))
        assert code == 0
        assert out == "country,year,gini,t_over_b,h,index_i,alt_index\n"

    def test_malformed_row_skipped(self, capsys, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text(
            PANEL_HEADER + "AAA,2015,0.30,0.25,0.03\nBBB,2015,oops,0.25,0.03\n"
        )
        code, out, err = run(capsys, "compute", "--input", str(path))
        assert code == 0
        assert len(parse_csv(out)) == 1
        assert "skipped row" in err

    @pytest.mark.parametrize("command", ["compute", "calibrate", "rank", "compare", "series"])
    def test_malformed_row_strict(self, capsys, tmp_path, command):
        path = tmp_path / "panel.csv"
        path.write_text(
            PANEL_HEADER + "AAA,2015,0.30,0.25,0.03\nBBB,2015,oops,0.25,0.03\n"
        )
        extra = ["--country", "AAA"] if command == "series" else []
        code, out, err = run(capsys, command, "--input", str(path), "--strict", *extra)
        assert code == 2
        assert out == ""
        assert err == (
            f"{path}:3: skipped row: unparseable numeric in column 'gini': 'oops'\n"
            "error: 1 bad row(s) with --strict\n"
        )

    def test_schema_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("country,year\nAAA,2015\n")
        code, _, err = run(capsys, "compute", "--input", str(path))
        assert code == 2
        assert "error" in err

    def test_deterministic_output(self, capsys, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text(
            PANEL_HEADER
            + "BBB,2015,0.40,0.30,0.02\nAAA,2016,0.30,0.25,0.03\nAAA,2015,0.31,0.26,0.03\n"
        )
        code, out1, _ = run(capsys, "compute", "--input", str(path))
        code, out2, _ = run(capsys, "compute", "--input", str(path))
        assert out1 == out2
        countries = [(r["country"], r["year"]) for r in parse_csv(out1)]
        assert countries == [("AAA", "2015"), ("AAA", "2016"), ("BBB", "2015")]

    def test_full_reference_panel(self, capsys, tmp_path, wb_rows):
        # every row's recomputed H and index must sit within 0.001 of the
        # published columns when fed through the compute pipeline
        path = tmp_path / "wb_panel.csv"
        lines = [PANEL_HEADER.rstrip()]
        for r in wb_rows:
            top10 = r["t_over_b"] / 100.0
            name = f'"{r["country"]}"' if "," in r["country"] else r["country"]
            lines.append(f"{name},2015,{r['gini']},{top10},0.01")
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "compute", "--input", str(path))
        assert code == 0
        rows = {r["country"]: r for r in parse_csv(out)}
        assert len(rows) == 75
        for r in wb_rows:
            got = rows[r["country"]]
            assert float(got["h"]) == pytest.approx(r["h"], abs=1e-3)
            assert float(got["index_i"]) == pytest.approx(r["index_i"], abs=1e-3)

    @pytest.mark.parametrize("via_stdin", [False, True])
    def test_byte_order_mark(self, capsys, tmp_path, monkeypatch, via_stdin):
        # spreadsheet exports start with U+FEFF, which is not part of the header
        text = "\ufeff" + PANEL_HEADER + "GRC,2015,0.360,0.262,0.019\n"
        path = tmp_path / "panel.csv"
        path.write_text(text, encoding="utf-8")
        if via_stdin:
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, "compute", "--input", "-" if via_stdin else str(path))
        assert (code, err) == (0, "")
        assert [r["country"] for r in parse_csv(out)] == ["GRC"]

    def test_percent_units_and_schema_mapping(self, capsys, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("Land,Jahr,Gini,Top,Bottom\nGRC,2015,36.0,26.2,1.9\n")
        code, out, _ = run(
            capsys,
            "compute",
            "--input",
            str(path),
            "--schema",
            "country=Land,year=Jahr,gini=Gini,top10=Top,bottom10=Bottom",
            "--gini-unit",
            "percent",
            "--share-unit",
            "percent",
        )
        assert code == 0
        assert float(parse_csv(out)[0]["gini"]) == pytest.approx(0.36, abs=1e-12)


class TestMicro:
    def write(self, tmp_path, values):
        path = tmp_path / "values.txt"
        path.write_text("".join(f"{v}\n" for v in values))
        return str(path)

    def test_equal_values(self, capsys, tmp_path):
        path = self.write(tmp_path, [5] * 10)
        code, out, _ = run(capsys, "micro", "--input", path)
        assert code == 0
        metrics = metric_map(out)
        assert float(metrics["gini"]) == pytest.approx(0.0, abs=1e-9)
        assert float(metrics["t_over_b_10"]) == pytest.approx(1.0, abs=1e-9)
        assert float(metrics["index_i"]) == pytest.approx(0.0, abs=1e-9)
        assert float(metrics["palma"]) == pytest.approx(0.25, abs=1e-9)

    def test_one_to_ten(self, capsys, tmp_path):
        path = self.write(tmp_path, range(1, 11))
        code, out, _ = run(capsys, "micro", "--input", path)
        assert code == 0
        metrics = metric_map(out)
        # brute-force pairwise sum: 330 / (2 * 100 * 5.5)
        assert float(metrics["gini"]) == pytest.approx(0.30, abs=1e-9)
        assert float(metrics["palma"]) == pytest.approx(1.0, abs=1e-9)

    def test_zero_one(self, capsys, tmp_path):
        path = self.write(tmp_path, [0, 1])
        code, out, _ = run(capsys, "micro", "--input", path)
        assert code == 0
        metrics = metric_map(out)
        assert float(metrics["gini"]) == pytest.approx(0.5, abs=1e-9)
        assert metrics["t_over_b_10"] == "inf"
        assert float(metrics["h"]) == 1.0
        assert float(metrics["index_i"]) == pytest.approx(0.790569, abs=1e-6)
        assert metrics["palma"] == "inf"
        assert metrics["mld"] == "nan"
        assert float(metrics["atkinson"]) == 1.0  # default epsilon 1 with a zero

    def test_all_zero_exit_2(self, capsys, tmp_path):
        path = self.write(tmp_path, [0, 0, 0])
        code, _, err = run(capsys, "micro", "--input", path)
        assert code == 2

    def test_empty_exit_2(self, capsys, tmp_path):
        path = self.write(tmp_path, [])
        code, _, err = run(capsys, "micro", "--input", path)
        assert code == 2

    def test_unparseable_exit_2(self, capsys, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("1\n\nbanana\n")
        code, _, err = run(capsys, "micro", "--input", str(path))
        assert code == 2
        assert err == f"error: {path}:3: could not convert string to float: 'banana'\n"

    def test_byte_order_mark(self, capsys, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("\ufeff1\n2\n3\n", encoding="utf-8")
        code, out, _ = run(capsys, "micro", "--input", str(path))
        assert code == 0
        assert metric_map(out)["n"] == "3"

    @pytest.mark.parametrize(
        "text, line",
        [("1\nnan\n3\n", 2), ("1\n\n\n-inf\n", 4), ("1\r\n2\r\n1e999\r\n", 3)],
    )
    @pytest.mark.parametrize("via_stdin", [False, True])
    def test_non_finite_value_reports_its_line(
        self, capsys, tmp_path, monkeypatch, text, line, via_stdin
    ):
        path = tmp_path / "values.txt"
        path.write_bytes(text.encode())
        if via_stdin:
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
        name = "-" if via_stdin else str(path)
        code, out, err = run(capsys, "micro", "--input", name)
        assert (code, out) == (2, "")
        assert err == f"error: {name}:{line}: sample values must be finite\n"

    def test_plain_file_takes_the_numpy_reader(self, capsys, tmp_path, monkeypatch):
        def refuse(path, lines):
            raise AssertionError("per-line parse used")

        monkeypatch.setattr(cli, "_parse_lines", refuse)
        path = self.write(tmp_path, [3, 1.5, "2e3", 0])
        code, out, _ = run(capsys, "micro", "--input", path)
        assert code == 0
        assert metric_map(out)["n"] == "4"

    def test_paths_numpy_must_not_open(self, capsys, tmp_path, monkeypatch):
        # numpy's reader decompresses by suffix and fetches URLs: a
        # compressed-suffix name, stdin, a missing path and a directory all
        # keep the per-line read and its messages
        def refuse(*args, **kwargs):
            raise AssertionError("numpy reader used")

        monkeypatch.setattr(np, "loadtxt", refuse)
        named_gz = tmp_path / "values.gz"
        named_gz.write_text("1\n2\n3\n")
        code, out, _ = run(capsys, "micro", "--input", str(named_gz))
        assert (code, metric_map(out)["n"]) == (0, "3")

        real_gz = tmp_path / "real.gz"
        real_gz.write_bytes(gzip.compress(b"1\n2\n3\n"))
        code, out, err = run(capsys, "micro", "--input", str(real_gz))
        assert (code, out) == (2, "")
        assert err == "error: 'utf-8' codec can't decode byte 0x8b in position 1: invalid start byte\n"

        missing = tmp_path / "missing.txt"
        code, _, err = run(capsys, "micro", "--input", str(missing))
        assert (code, err) == (2, f"error: [Errno 2] No such file or directory: '{missing}'\n")
        code, _, err = run(capsys, "micro", "--input", str(tmp_path))
        assert (code, err) == (2, f"error: [Errno 21] Is a directory: '{tmp_path}'\n")

        # "-" is stdin even beside a file of that name
        monkeypatch.chdir(tmp_path)
        (tmp_path / "-").write_text("1\n")
        monkeypatch.setattr("sys.stdin", io.StringIO("1\n2\n3\n"))
        code, out, _ = run(capsys, "micro", "--input", "-")
        assert (code, metric_map(out)["n"]) == (0, "3")

    def test_url_like_name_is_a_local_file(self, capsys, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("URL opened")

        monkeypatch.setattr(urllib.request, "urlopen", refuse)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "http:" / "host").mkdir(parents=True)
        (tmp_path / "http:" / "host" / "values.txt").write_text("1\n2\n")
        code, out, _ = run(capsys, "micro", "--input", "http://host/values.txt")
        assert (code, metric_map(out)["n"]) == (0, "2")

    def test_dot_dot_after_a_symlink(self, capsys, tmp_path, monkeypatch):
        # "link/.." is the parent of the link's target, as the OS resolves it
        (tmp_path / "b" / "c").mkdir(parents=True)
        (tmp_path / "link").symlink_to(tmp_path / "b" / "c")
        (tmp_path / "b" / "values.txt").write_text("1\n2\n3\n")
        (tmp_path / "values.txt").write_text("1\n")
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "micro", "--input", "link/../values.txt")
        assert (code, metric_map(out)["n"]) == (0, "3")

    def test_gzip_content_under_a_plain_name(self, capsys, tmp_path):
        path = tmp_path / "real.txt"
        path.write_bytes(gzip.compress(b"1\n2\n3\n"))
        code, out, err = run(capsys, "micro", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == "error: 'utf-8' codec can't decode byte 0x8b in position 1: invalid start byte\n"

    def test_one_lorenz_curve_per_sample(self, capsys, tmp_path, monkeypatch):
        import ineqkit.micro

        calls = []
        build = ineqkit.micro.lorenz_curve

        def counted(sample):
            calls.append(sample)
            return build(sample)

        monkeypatch.setattr(ineqkit.micro, "lorenz_curve", counted)
        path = self.write(tmp_path, range(1, 11))
        code, _, _ = run(capsys, "micro", "--input", path)
        assert code == 0
        assert len(calls) == 1

    def test_flags_steer_parameters(self, capsys, tmp_path):
        path = self.write(tmp_path, [1, 3])
        code, out, _ = run(
            capsys, "micro", "--input", path, "--epsilon", "2", "--alpha", "0.5"
        )
        metrics = metric_map(out)
        assert float(metrics["atkinson"]) == pytest.approx(0.25, abs=1e-9)
        assert float(metrics["ge"]) == pytest.approx(0.136297, abs=1e-6)


class TestCalibrate:
    def test_whole_panel(self, capsys, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text(
            PANEL_HEADER + "AAA,2015,0.36,0.262,0.019\nBBB,2015,0.40,0.30,0.02\n"
        )
        code, out, _ = run(capsys, "calibrate", "--input", str(path))
        assert code == 0
        row = parse_csv(out)[0]
        avg_gini = (0.36 + 0.40) / 2
        avg_ratio = (0.019 / 0.262 + 0.02 / 0.30) / 2
        expected = math.log(1 - avg_gini) / math.log(avg_ratio)
        assert float(row["alpha"]) == pytest.approx(expected, abs=1e-6)

    def test_by_sample_mean_row(self, capsys, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text(
            "country,year,source,gini,top10,bottom10\n"
            "AAA,2014,WB,0.36,0.262,0.019\n"
            "AAA,2015,WB,0.37,0.270,0.020\n"
            "AAA,2015,OECD,0.30,0.240,0.050\n"
        )
        code, out, _ = run(capsys, "calibrate", "--input", str(path), "--by-sample")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 4  # three samples plus the mean row
        assert rows[-1]["source"] == "mean"
        alphas = [float(r["alpha"]) for r in rows[:-1]]
        assert float(rows[-1]["alpha"]) == pytest.approx(sum(alphas) / 3, abs=1e-6)

    def test_empty_exit_2(self, capsys, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text(PANEL_HEADER)
        code, _, _ = run(capsys, "calibrate", "--input", str(path))
        assert code == 2


class TestRankCompareSeries:
    def test_rank_output(self, capsys, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text(
            PANEL_HEADER
            + "AAA,2015,0.30,0.25,0.05\nBBB,2015,0.25,0.25,0.05\nCCC,2015,0.40,0.25,0.01\n"
        )
        code, out, _ = run(
            capsys, "rank", "--input", str(path), "--indicator", "gini"
        )
        assert code == 0
        rows = parse_csv(out)
        assert [r["country"] for r in rows] == ["BBB", "AAA", "CCC"]
        assert [r["rank"] for r in rows] == ["1", "2", "3"]

    def test_compare_summary(self, capsys, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text(
            PANEL_HEADER + "AAA,2015,0.30,0.25,0.05\nBBB,2015,0.31,0.25,0.05\n"
        )
        code, out, err = run(
            capsys, "compare", "--input", str(path), "--summary-only"
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert int(row["changed"]) + int(row["unchanged"]) == 2

    def test_compare_per_country(self, capsys, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text(
            PANEL_HEADER + "AAA,2015,0.30,0.25,0.05\nBBB,2015,0.31,0.25,0.05\n"
        )
        code, out, err = run(capsys, "compare", "--input", str(path))
        assert code == 0
        rows = parse_csv(out)
        assert {r["country"] for r in rows} == {"AAA", "BBB"}
        assert "changed=" in err

    def test_series_dynamics(self, capsys):
        code, out, _ = run(
            capsys,
            "series",
            "--input",
            str(DYNAMICS_PANEL),
            "--country",
            "Mexico",
        )
        assert code == 0
        rows = parse_csv(out)
        assert [r["year"] for r in rows] == ["2008", "2014"]
        assert float(rows[0]["index_i"]) == pytest.approx(0.480, abs=1e-3)
        assert float(rows[1]["index_i"]) == pytest.approx(0.489, abs=1e-3)

    def test_series_unknown_country(self, capsys):
        code, _, err = run(
            capsys,
            "series",
            "--input",
            str(DYNAMICS_PANEL),
            "--country",
            "Atlantis",
        )
        assert code == 2

    def test_source_filter(self, capsys):
        code, out, _ = run(
            capsys,
            "rank",
            "--input",
            str(DYNAMICS_PANEL),
            "--source",
            "OECD",
            "--year",
            "2014",
            "--indicator",
            "gini",
        )
        assert code == 0
        assert [r["country"] for r in parse_csv(out)] == ["Italy"]


class TestReplicate:
    def test_wb_table(self, capsys):
        code, out, err = run(
            capsys,
            "replicate",
            "--input",
            str(WB_TABLE),
            "--expect-changed",
            "62",
            "--expect-unchanged",
            "13",
            "--count-tolerance",
            "2",
        )
        assert code == 0
        assert len(parse_csv(out)) == 75
        assert "changed=" in err

    def test_oecd_table(self, capsys):
        code, out, err = run(
            capsys,
            "replicate",
            "--input",
            str(OECD_TABLE),
            "--tol-h",
            "0.003",
            "--tol-i",
            "0.003",
            "--expect-changed",
            "21",
            "--expect-unchanged",
            "14",
        )
        assert code == 0
        assert len(parse_csv(out)) == 35

    def test_corrupted_row_fails_with_country(self, capsys, tmp_path):
        rows = WB_TABLE.read_text(encoding="utf-8").splitlines()
        # push Greece's expected index far outside tolerance
        corrupted = [
            row.replace("41,Greece,0.360,0.425", "41,Greece,0.360,0.520")
            for row in rows
        ]
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(corrupted) + "\n")
        code, _, err = run(capsys, "replicate", "--input", str(path))
        assert code == 1
        assert "Greece" in err

    def test_country_set_mismatch(self, capsys, tmp_path):
        lines = WB_TABLE.read_text(encoding="utf-8").splitlines()
        path = tmp_path / "short.csv"
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop Namibia
        code, _, err = run(
            capsys,
            "replicate",
            "--input",
            str(path),
            "--expected",
            str(WB_TABLE),
        )
        assert code == 2
        assert "Namibia" in err

    def test_two_file_mode(self, capsys, tmp_path):
        inputs = tmp_path / "inputs.csv"
        inputs.write_text("country,gini,t_over_b\nGRC,0.360,13.79\n")
        expected = tmp_path / "expected.csv"
        expected.write_text("country,h,index_i\nGRC,0.481,0.425\n")
        code, out, _ = run(
            capsys,
            "replicate",
            "--input",
            str(inputs),
            "--expected",
            str(expected),
        )
        assert code == 0


class TestWeightFlag:
    def test_weight_changes_index(self, capsys, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text(PANEL_HEADER + "AAA,2015,0.36,0.262,0.019\n")
        _, out_default, _ = run(capsys, "compute", "--input", str(path))
        _, out_custom, _ = run(
            capsys, "compute", "--input", str(path), "--weight", "0.239"
        )
        default_i = float(parse_csv(out_default)[0]["index_i"])
        custom_i = float(parse_csv(out_custom)[0]["index_i"])
        assert default_i != custom_i

    def test_bad_weight_exit_2(self, capsys, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text(PANEL_HEADER + "AAA,2015,0.36,0.262,0.019\n")
        code, _, _ = run(capsys, "compute", "--input", str(path), "--weight", "1.5")
        assert code == 2


# Lines of a values file: a value with optional padding and a line ending.
# Beside numbers they hold what ``float()`` takes and numpy's reader may not
# (underscores, Unicode digits, whitespace-only lines, Unicode spaces, every
# line break ``str.splitlines`` knows), non-finite spellings, commas, a
# misplaced byte-order mark and bad values.
_NUMBERS = st.one_of(
    st.sampled_from(
        ["0", "1", "2.5", "-3", "+4", "1e3", ".5", "5.", "007", "1e999", "1e-400"]
        + ["nan", "NaN", "-nan", "inf", "-inf", "infinity", "-Infinity"]
    ),
    st.floats().map(repr),
    st.integers(-(10**20), 10**20).map(str),
)
_ODD_VALUES = st.sampled_from(
    ["", "1_0", "1__0", "\u0661\u0662", "\uff11\uff12", "\u0663.\u0665"]
    + ["banana", "0x10", "1d5", "#1", ",", "1,2", "1,", "1 2", "\ufeff1"]
)
_PADDING = st.sampled_from(
    ["", "", "", " ", "\t", "\x0b", "\x0c", "\xa0", "\u3000", "\x1c", "\x85", "\u2028"]
)
_LINE_ENDINGS = st.sampled_from(
    ["\n", "\n", "\n", "\r\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85"]
)
_LINES = st.tuples(
    _PADDING, st.one_of(_NUMBERS, _NUMBERS, _NUMBERS, _ODD_VALUES), _PADDING, _LINE_ENDINGS
).map("".join)


def _read_outcome(name):
    """Values read by ``ineq micro`` from ``name``, or the error it reports."""
    try:
        values = cli._read_values(name)
    except (ValueError, IneqError) as exc:
        return "error", str(exc).replace(f"{name}:", "<input>:", 1)
    return "values", values.dtype, values.shape, values.tobytes()


@settings(max_examples=300)
@given(
    bom=st.booleans(),
    lines=st.lists(_LINES, max_size=12),
    final_newline=st.booleans(),
    suffix=st.sampled_from([".txt", ".gz", ""]),
)
@example(bom=True, lines=["1\r\n", "\r\n", "2\r\n"], final_newline=False, suffix=".txt")
@example(bom=False, lines=[], final_newline=False, suffix=".txt")
@example(bom=False, lines=["1_0\n", "2\n"], final_newline=True, suffix=".txt")
@example(bom=False, lines=["1\n", " \n", "2\n"], final_newline=True, suffix=".txt")
@example(bom=False, lines=["1\n", "nan\n", "3\n"], final_newline=True, suffix=".txt")
@example(bom=False, lines=["1,2\n", "3,4\n"], final_newline=True, suffix=".txt")
def test_file_and_stdin_reads_agree(tmp_path_factory, bom, lines, final_newline, suffix):
    """A file, read by numpy's C reader where it can, and the same text on
    stdin, always read per line, give identical values or an identical error."""
    text = "\ufeff" * bom + "".join(lines)
    if lines and not final_newline:
        text = text.rstrip("\r\n\x0b\x0c\x1c\x85")
    raw = text.encode("utf-8")
    path = tmp_path_factory.mktemp("values") / f"values{suffix}"
    path.write_bytes(raw)
    by_file = _read_outcome(str(path))
    # stdin as the interpreter opens it: UTF-8 with universal newlines
    stdin = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")
    with mock.patch("sys.stdin", stdin):
        by_stdin = _read_outcome("-")
    assert by_file == by_stdin
