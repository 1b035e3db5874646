"""CLI contract: subcommand outputs, diagnostics, and exit codes."""

import contextlib
import csv
import gzip
import io
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
import urllib.request
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ineqkit import IneqError, _compute_format, cli, micro
from ineqkit.cli import main
from ineqkit.ranking import Indicator, indicator_value

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

    @pytest.mark.parametrize("command", ["calibrate", "rank", "compare", "series"])
    def test_strict_counts_rows_out_of_the_filter(self, capsys, tmp_path, command):
        """A filtered command still checks every row: a repeat in its filter
        and a bad row and a repeat out of it are each reported, and each
        fails --strict."""
        path = tmp_path / "panel.csv"
        path.write_text(
            PANEL_HEADER + "AAA,2015,0.30,0.25,0.03\nBBB,2014,oops,0.25,0.03\nCCC,2014,0.3,0.25,0.03\n"
            "AAA,2015,0.31,0.25,0.03\nCCC,2014,0.3,0.25,0.03\n"
        )
        where = ["--country", "AAA"] if command == "series" else ["--year", "2015"]
        skipped = (
            f"{path}:3: skipped row: unparseable numeric in column 'gini': 'oops'\n"
            f"{path}:5: skipped row: duplicate record ('AAA', 2015, 'OTHER')\n"
            f"{path}:6: skipped row: duplicate record ('CCC', 2014, 'OTHER')\n"
        )
        code, out, err = run(capsys, command, "--input", str(path), *where)
        assert code == 0 and out and err.startswith(skipped)
        code, out, err = run(capsys, command, "--input", str(path), "--strict", *where)
        assert (code, out, err) == (2, "", skipped + "error: 3 bad row(s) with --strict\n")

    def test_cell_past_the_csv_field_limit_exit_2(self, capsys, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text(PANEL_HEADER + "AAA,2015,0.3,0.25,0.03\n" + "X" * 140_000 + ",2015,0.3,0.25,0.03\n")
        code, out, err = run(capsys, "compute", "--input", str(path))
        message = f"{path}:3: field larger than field limit ({csv.field_size_limit()})"
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_schema_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("country,year\nAAA,2015\n")
        code, _, err = run(capsys, "compute", "--input", str(path))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "schema, message",
        [
            ("country", "bad --schema entry 'country', expected key=column"),
            ("gini=Gini,nation=Country", "unknown --schema key 'nation'"),
            ("year= ", "empty column name for --schema key 'year'"),
        ],
    )
    def test_bad_schema_flag_exit_2(self, capsys, tmp_path, schema, message):
        path = tmp_path / "panel.csv"
        path.write_text(PANEL_HEADER + "GRC,2015,0.360,0.262,0.019\n")
        code, out, err = run(capsys, "compute", "--input", str(path), "--schema", schema)
        assert (code, out, err) == (2, "", f"error: {message}\n")

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

    @pytest.mark.parametrize("command", ["compute", "rank"])
    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
    @pytest.mark.parametrize("via_stdin", [False, True])
    def test_invalid_utf8(self, capsys, tmp_path, monkeypatch, command, bom, via_stdin):
        """Bytes that are not UTF-8 stop the run before any output, with the
        message of decoding the whole file, on stdin's bytes as on a file."""
        rows = "".join(f"C{i},2015,0.3,0.25,0.03\n" for i in range(3000))
        data = bom + (PANEL_HEADER + rows).encode() + b"B\xffB,2015,0.3,0.25,0.03\n"
        path = tmp_path / "panel.csv"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as whole:
            path.read_text(encoding="utf-8-sig")
        if via_stdin:
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        code, out, err = run(capsys, command, "--input", "-" if via_stdin else str(path))
        assert (code, out, err) == (2, "", f"error: {whole.value}\n")

    @pytest.mark.parametrize("via_stdin", [False, True])
    def test_input_is_read_as_a_binary_stream(self, capsys, tmp_path, monkeypatch, via_stdin):
        """The panel reaches the parser as a stream of bytes, never as one
        text of the whole input."""
        data = (PANEL_HEADER + "GRC,2015,0.360,0.262,0.019\n").encode()
        path = tmp_path / "panel.csv"
        path.write_bytes(data)
        if via_stdin:
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        sources = []
        real = cli.parse_panel
        monkeypatch.setattr(cli, "parse_panel", lambda data, *a, **k: sources.append(data) or real(data, *a, **k))
        code, out, _ = run(capsys, "compute", "--input", "-" if via_stdin else str(path))
        assert code == 0 and len(parse_csv(out)) == 1
        assert len(sources) == 1 and isinstance(sources[0], io.BufferedIOBase)

    def test_alt_index_reads_the_printed_t_over_b(self, capsys, tmp_path, monkeypatch):
        """`compute`'s alt_index is `rank --indicator alt`'s value, bit for
        bit: its T/B is top10 / bottom10, not 1 / (B/T)."""
        rng = np.random.default_rng(3)
        top10 = rng.uniform(0.2, 0.45, 2000)
        bottom10 = top10 / rng.uniform(1.5, 30.0, 2000)
        lines = [f"C{i},2015,0.35,{t!r},{b!r}" for i, (t, b) in enumerate(zip(top10.tolist(), bottom10.tolist()))]
        path = tmp_path / "panel.csv"
        path.write_text(PANEL_HEADER + "\n".join(lines) + "\n")
        fields = []
        real_rows = _compute_format._compute_rows
        monkeypatch.setattr(_compute_format, "_compute_rows", lambda *a: fields.append(a[3]) or real_rows(*a))
        code, _, _ = run(capsys, "compute", "--input", str(path))
        monkeypatch.undo()
        assert code == 0
        panel = cli.slice_panel(cli.parse_panel(path.read_text())[0])
        alt = indicator_value(panel, Indicator.ALT)
        assert np.concatenate([f[4] for f in fields]).tobytes() == alt.tobytes()
        # the two T/B differ in the last bit on some of these rows
        assert not np.array_equal(1.0 / (bottom10 / top10), top10 / bottom10)

    def test_holds_one_panel(self, tmp_path, monkeypatch):
        """After the parse, `compute` holds the parsed panel and little more:
        no key-ordered copy of it and no full-length result column."""
        n = 100_000
        rng = np.random.default_rng(5)
        top = rng.uniform(0.25, 0.45, n)
        bottom = top / rng.uniform(2.0, 30.0, n)
        gini = rng.uniform(0.2, 0.6, n)
        path = tmp_path / "panel.csv"
        with open(path, "w") as fh:
            fh.write(PANEL_HEADER)
            for i in rng.permutation(n).tolist():  # file order is not key order
                fh.write(f"Country {i // 50},{1900 + i % 50},{gini[i]:.4f},{top[i]:.4f},{bottom[i]:.5f}\n")
        parse_peak = []
        real = cli.parse_panel

        def parse(*args, **kwargs):
            result = real(*args, **kwargs)
            parse_peak.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            return result

        monkeypatch.setattr(cli, "parse_panel", parse)
        tracemalloc.start()
        try:
            code = main(["compute", "--input", str(path), "--output", str(tmp_path / "out.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        column_bytes = n * 6 * 8
        assert code == 0 and len(parse_peak) == 1
        assert peak - parse_peak[0] < column_bytes / 10

    def test_lone_cr_line_ends(self, capsys, tmp_path):
        text = PANEL_HEADER + 'AAA,2015,0.3,0.25,0.03\n"B\nC",2015,x,0.25,0.03\nBBB,2016,0.4,0.3,0.02\n'
        outputs = []
        for name, line_end in (("lf.csv", "\n"), ("cr.csv", "\r")):
            path = tmp_path / name
            path.write_bytes(text.replace("\n", line_end).encode())
            code, out, err = run(capsys, "compute", "--input", str(path))
            outputs.append((code, out, err.replace(str(path), "<input>")))
        assert outputs[0] == outputs[1]
        assert outputs[0][2] == "<input>:4: skipped row: unparseable numeric in column 'gini': 'x'\n"

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


def _forked_panel(path, rows=400):
    """A panel of ``rows`` rows, read as the benchmark's are: quoted names,
    a skipped row and rows printed by f-string (a zero bottom share)."""
    lines = [f'"N, {i // 20}",{1990 + i % 20},0.3,0.25,{0.0 if i % 37 == 5 else 0.03}' for i in range(rows)]
    lines[7] = "Bad,2015,x,0.25,0.03"
    path.write_text(PANEL_HEADER + "\n".join(lines) + "\n")
    return path


def compute_forked(path, chunk_rows, cpus, *argv, fork_chunks=1):
    """The exit code, stdout and stderr of `ineq compute` on ``path`` in
    chunks of ``chunk_rows`` rows on ``cpus`` usable CPUs, at least
    ``fork_chunks`` to a process; and the number of children forked."""
    started = []

    class Counted(cli.Children):
        def start(self, run):
            started.append(run)
            return super().start(run)

    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch.object(cli, "_CHUNK_ROWS", chunk_rows),
        mock.patch.object(cli, "_usable_cpus", lambda: cpus),
        mock.patch.object(cli, "_FORK_CHUNKS", fork_chunks),
        mock.patch.object(cli, "Children", Counted),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        code = main(["compute", "--input", str(path), *argv])
    return (code, out.getvalue(), err.getvalue()), len(started)


class TestComputeForked:
    """`compute` deals its chunks round-robin to a process per usable CPU,
    this one first, and writes them in order.  Its output is that of one
    process, whatever a child does, and no child outlives it.  The path is
    forced here on a small panel by patching _CHUNK_ROWS and the CPU count."""

    @settings(max_examples=25, deadline=None)
    @given(chunk_rows=st.integers(1, 60), cpus=st.integers(2, 4))
    def test_matches_one_process(self, tmp_path_factory, chunk_rows, cpus):
        path = _forked_panel(tmp_path_factory.mktemp("forked") / "panel.csv")
        one, forks = compute_forked(path, 1 << 12, 1)
        assert forks == 0 and one[0] == 0 and len(one[1].splitlines()) == 400
        assert compute_forked(path, chunk_rows, cpus) == (one, cpus - 1)

    def test_each_worker_makes_fork_chunks(self, tmp_path):
        """A process makes at least _FORK_CHUNKS chunks: fewer than twice as
        many stay in this process, and twice as many fork one child, however
        many CPUs are usable."""
        path = _forked_panel(tmp_path / "panel.csv")
        one, _ = compute_forked(path, 1 << 12, 1)
        fewest = cli._FORK_CHUNKS
        assert compute_forked(path, -(-400 // (2 * fewest - 1)), 4, fork_chunks=fewest) == (one, 0)
        assert compute_forked(path, 400 // (2 * fewest), 4, fork_chunks=fewest) == (one, 1)

    @pytest.mark.parametrize("fault", ["raise", "exit 7", "short", "no fork"])
    def test_failed_child_leaves_its_chunks_to_the_parent(self, tmp_path, monkeypatch, fault):
        """A child that raises on its second chunk, exits 7 after its last,
        sends its last record cut short, or cannot be forked: this process
        makes the chunks it did not send."""
        path = _forked_panel(tmp_path / "panel.csv")
        one, _ = compute_forked(path, 1 << 12, 1)
        parent, real_rows, real_dump, real_exit = os.getpid(), _compute_format._compute_rows, pickle.dump, os._exit
        calls = []

        def compute_rows(*args):
            if os.getpid() != parent:
                calls.append(args)
                if fault == "raise" and len(calls) == 2:
                    raise RuntimeError("a child failed")
            return real_rows(*args)

        def dump(text, pipe):
            if fault == "short" and len(calls) == 10:
                pipe.write(pickle.dumps(text)[:-5])
            else:
                real_dump(text, pipe)

        def fork():
            raise OSError("no process to be had")

        monkeypatch.setattr(_compute_format, "_compute_rows", compute_rows)
        monkeypatch.setattr(cli.pickle, "dump", dump)
        monkeypatch.setattr(os, "_exit", lambda status: real_exit(7 if fault == "exit 7" else status))
        if fault == "no fork":
            monkeypatch.setattr(os, "fork", fork)
        # 20 chunks of 20 rows: the child makes 10 of them
        assert compute_forked(path, 20, 2) == (one, 1)

    def test_output_and_strict(self, tmp_path):
        path = _forked_panel(tmp_path / "panel.csv")
        (code, out, err), _ = compute_forked(path, 1 << 12, 1)
        target = tmp_path / "out.csv"
        assert compute_forked(path, 20, 3, "--output", str(target)) == ((code, "", err), 2)
        assert target.read_text() == out
        missing = tmp_path / "no" / "out.csv"
        (code, out, err), _ = compute_forked(path, 20, 3, "--output", str(missing))
        assert (code, out) == (2, "") and err.endswith(f"error: [Errno 2] No such file or directory: '{missing}'\n")
        (code, out, err), forks = compute_forked(path, 20, 3, "--strict")
        assert (code, out, forks) == (2, "", 0) and err.endswith("error: 1 bad row(s) with --strict\n")

    def test_broken_stdout_pipe(self, tmp_path, monkeypatch):
        """A reader that closed stdout stops the run with exit 2, as in one
        process, and no child is left (the autouse fixture checks)."""
        path = _forked_panel(tmp_path / "panel.csv")
        read, write = os.pipe()
        os.close(read)
        stdout = open(write, "w")
        monkeypatch.setattr(sys, "stdout", stdout)
        err = io.StringIO()
        try:
            for chunk_rows, cpus in ((1 << 12, 1), (20, 2)):
                with (
                    mock.patch.object(cli, "_CHUNK_ROWS", chunk_rows),
                    mock.patch.object(cli, "_usable_cpus", lambda: cpus),
                    mock.patch.object(cli, "_FORK_CHUNKS", 1),
                    contextlib.redirect_stderr(err),
                ):
                    assert main(["compute", "--input", str(path)]) == 2
        finally:
            with contextlib.suppress(BrokenPipeError):
                stdout.close()
        assert err.getvalue().splitlines()[1::2] == ["error: [Errno 32] Broken pipe"] * 2


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
        assert metrics["mld"] == "inf"
        assert float(metrics["atkinson"]) == 1.0  # default epsilon 1 with a zero

    @pytest.mark.parametrize(
        "values, scale",
        [([1.0, 1.5, 1.0], 2.0**1023), ([1.0] * 99 + [1000.0], 2.0**1012)],
        ids=["three-times-2**1023", "hundred-times-2**1012"],
    )
    def test_total_past_the_float_range(self, capsys, tmp_path, values, scale):
        """The values are finite, their total is not: every row but the mean
        is that of the unscaled sample, and no warning is raised."""
        code, plain, _ = run(capsys, "micro", "--input", self.write(tmp_path, values))
        assert code == 0
        code, out, _ = run(capsys, "micro", "--input", self.write(tmp_path, [v * scale for v in values]))
        assert code == 0
        plain, scaled = metric_map(plain), metric_map(out)
        mean = math.fsum(values) / len(values) * scale
        assert float(scaled.pop("mean")) == pytest.approx(mean, rel=1e-15)
        plain.pop("mean")
        assert scaled == plain

    def test_ratios_past_the_float_range(self, capsys, tmp_path):
        """A value 1e-320 beside 1: T/B and Palma are past the float range and
        read inf; the mean log deviation is a number, not inf.  No numpy
        warning leaks."""
        path = tmp_path / "values.txt"
        path.write_text("1e-320\n1\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, _ = run(capsys, "micro", "--input", str(path))
        assert (code, [str(w.message) for w in caught]) == (0, [])
        metrics = metric_map(out)
        # ln(0.5 / 1e-320) and ln(0.5), averaged
        assert metrics["mld"] == "367.720473"
        assert (metrics["t_over_b_10"], metrics["palma"], metrics["atkinson"]) == ("inf", "inf", "1.000000")

    @pytest.mark.parametrize(
        "text, argv, row, value",
        [
            # the scale rule's 2**-8 sets 5e-324 to 0; ln(mean / 5e-324) is read unscaled
            ("5e-324\n1e308\n", (), "mld", "726.124993"),
            # just outside the window of epsilon = 1; GE(-2e-9) of the sample is 690.08
            ("1e-300\n1e300\n", ("--epsilon", "1.000000002"), "atkinson", "1.000000"),
        ],
    )
    def test_values_at_the_ends_of_the_float_range(self, capsys, tmp_path, text, argv, row, value):
        path = tmp_path / "values.txt"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, _ = run(capsys, "micro", "--input", str(path), *argv)
        assert (code, [str(w.message) for w in caught]) == (0, [])
        assert metric_map(out)[row] == value

    def test_order_past_the_float_range_of_a_mean_that_rounds_to_zero(self, capsys, tmp_path):
        code, out, err = run(capsys, "micro", "--input", self.write(tmp_path, [0, 5e-324]), "--alpha", "1e5")
        assert (code, out, err) == (2, "", "error: GE(100000.0) of this sample exceeds the float range\n")

    def test_values_checked_once(self, capsys, tmp_path):
        """The sample's invariants are checked once, and the order that
        micro's own sort made is not checked again."""
        real, calls = cli.micro._checked, []

        def checked(values, ordered):
            calls.append(ordered)
            return real(values, ordered)

        with mock.patch.object(cli.micro, "_checked", checked):
            code, out, _ = run(capsys, "micro", "--input", self.write(tmp_path, [3, 1, 2]))
        assert (code, calls, metric_map(out)["n"]) == (0, [True], "3")

    @pytest.mark.parametrize(
        "flag, value, error",
        [
            ("--alpha", "1e155", "error: GE(1e+155) of this sample exceeds the float range"),
            ("--epsilon", "nan", "error: aversion parameter must be finite"),
            ("--epsilon", "inf", "error: aversion parameter must be finite"),
        ],
    )
    def test_parameter_past_the_float_range_exit_2(self, capsys, tmp_path, flag, value, error):
        """No index prints as nan, or as a 0 that stands for an overflow."""
        code, out, err = run(capsys, "micro", "--input", self.write(tmp_path, [1, 2, 3]), flag, value)
        assert (code, out, err.splitlines()) == (2, "", [error])

    def test_all_zero_exit_2(self, capsys, tmp_path):
        path = self.write(tmp_path, [0, 0, 0])
        code, _, err = run(capsys, "micro", "--input", path)
        assert code == 2

    def test_empty_exit_2(self, capsys, tmp_path):
        path = self.write(tmp_path, [])
        code, _, err = run(capsys, "micro", "--input", path)
        assert code == 2

    @pytest.mark.parametrize(
        "text, error",
        [("", "sample must contain at least one value"),
         ("\n\n", "sample must contain at least one value"),
         (" \n\t\r\n\x0c\r", "sample must contain at least one value"),
         ("0\n0\n0\n", "sample total must be positive"),
         ("0\r\n\r\n-0.0", "sample total must be positive")],
    )
    @pytest.mark.parametrize("via_stdin", [False, True])
    def test_no_values_or_no_total_exit_2(self, capsys, tmp_path, monkeypatch, text, error, via_stdin):
        path = tmp_path / "values.txt"
        path.write_bytes(text.encode())
        if via_stdin:
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, "micro", "--input", "-" if via_stdin else str(path))
        assert (code, out, err) == (2, "", f"error: {error}\n")

    def test_unparseable_exit_2(self, capsys, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("1\n\nbanana\n")
        code, _, err = run(capsys, "micro", "--input", str(path))
        assert code == 2
        assert err == f"error: {path}:3: could not convert string to float: 'banana'\n"

    def test_bytes_that_are_not_utf8_exit_2(self, capsys, tmp_path):
        """The decoder's message, as it was when the error was not an
        :class:`IneqError`; a ``.gz`` name takes the per-line parse."""
        path = tmp_path / "values.txt.gz"
        path.write_bytes(b"1\n2\n\xff3\n")
        code, out, err = run(capsys, "micro", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == "error: 'utf-8' codec can't decode byte 0xff in position 4: invalid start byte\n"

    def test_byte_order_mark(self, capsys, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("\ufeff1\n2\n3\n", encoding="utf-8")
        code, out, _ = run(capsys, "micro", "--input", str(path))
        assert code == 0
        assert metric_map(out)["n"] == "3"

    # Lines end at "\n", "\r\n" and a lone "\r" only: a form feed or a
    # vertical tab is line content, which strip() then drops.
    @pytest.mark.parametrize(
        "text, line",
        [("1\nnan\n3\n", 2), ("1\n\n\n-inf\n", 4), ("1\r\n2\r\n1e999\r\n", 3),
         ("1\n2\x0c\ninf\n", 3), ("1\n2\n\x0b\ninf\n", 4), ("1\x0b\r2\x0c\rnan", 3),
         # a non-finite value is reported before a negative one on an earlier line
         ("3\n-1\nnan\n", 3)],
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

    @pytest.mark.parametrize(
        "text, line",
        [("3\n-1\n2\n", 2), ("1\n \n-2\n", 3), ("1_0\n\n-1e-300\n-5\n", 3), ("1\r-0.0\r-1", 3)],
    )
    @pytest.mark.parametrize("via_stdin", [False, True])
    def test_negative_value_reports_its_line(self, capsys, tmp_path, monkeypatch, text, line, via_stdin):
        path = tmp_path / "values.txt"
        path.write_bytes(text.encode())
        if via_stdin:
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
        name = "-" if via_stdin else str(path)
        code, out, err = run(capsys, "micro", "--input", name)
        assert (code, out) == (2, "")
        assert err == f"error: {name}:{line}: sample values must be non-negative\n"

    @pytest.mark.parametrize(
        "text, line, value",
        [("1\n2\x0c3\n", 2, "2\x0c3"), ("1\n2\x0c\nx\n", 3, "x"), ("1\n2\x1e5\n7\n", 2, "2\x1e5")],
    )
    @pytest.mark.parametrize("via_stdin", [False, True])
    def test_bad_value_reports_its_line(self, capsys, tmp_path, monkeypatch, text, line, value, via_stdin):
        path = tmp_path / "values.txt"
        path.write_bytes(text.encode())
        if via_stdin:
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
        name = "-" if via_stdin else str(path)
        code, out, err = run(capsys, "micro", "--input", name)
        assert (code, out) == (2, "")
        assert err == f"error: {name}:{line}: could not convert string to float: {value!r}\n"

    def test_plain_file_takes_the_numpy_reader(self, capsys, tmp_path, monkeypatch):
        def refuse(path, text):
            raise AssertionError("per-line parse used")

        monkeypatch.setattr(micro, "_parse_lines", refuse)
        path = self.write(tmp_path, [3, 1.5, "2e3", 0])
        code, out, _ = run(capsys, "micro", "--input", path)
        assert code == 0
        assert metric_map(out)["n"] == "4"

    def test_paths_numpy_must_not_open(self, capsys, tmp_path, monkeypatch):
        # numpy's reader decompresses by suffix and fetches URLs: a
        # compressed-suffix name, a missing path and a directory all keep
        # the per-line read and its messages
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

    def test_stdin_takes_the_numpy_reader(self, capsys, tmp_path, monkeypatch):
        """Stdin's bytes reach numpy's reader as one stream, with no list of
        lines and no per-value floats; "-" is stdin even beside a file of
        that name."""

        def refuse(path, text):
            raise AssertionError("per-line parse used")

        sources = []
        real = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda source, **kw: sources.append(source) or real(source, **kw))
        monkeypatch.setattr(micro, "_parse_lines", refuse)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "-").write_text("1\n")
        monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff1\n2\n3e2\n"))
        code, out, _ = run(capsys, "micro", "--input", "-")
        assert (code, metric_map(out)["n"], metric_map(out)["mean"]) == (0, "3", "101.000000")
        assert len(sources) == 1 and not isinstance(sources[0], (str, list))

    def test_sample_keeps_the_array_read(self, capsys, tmp_path, monkeypatch):
        """`ineq micro` sorts the array numpy read in place and hands it to the
        sample: no second copy of the values is made."""
        read, samples = [], []
        real_read, real_curve = np.loadtxt, micro.lorenz_curve
        monkeypatch.setattr(np, "loadtxt", lambda source, **kw: read.append(real_read(source, **kw)) or read[-1])
        monkeypatch.setattr(micro, "lorenz_curve", lambda s: samples.append(s) or real_curve(s))
        path = tmp_path / "values.txt"
        path.write_text("3\n1\n2\n")
        code, out, _ = run(capsys, "micro", "--input", str(path))
        assert (code, metric_map(out)["n"]) == (0, "3")
        assert samples[0].values is read[0]
        assert read[0].tolist() == [1.0, 2.0, 3.0] and not read[0].flags.writeable

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


def _near_ties():
    """Exact binary ties of the sixth decimal, and the floats next to
    (k + 0.5) / 1e6 on either side."""
    exact = st.integers(0, 2**40).map(lambda k: k / 2**20)
    halves = st.integers(0, 10**12).map(lambda k: (k + 0.5) / 1e6)
    return st.one_of(
        exact,
        halves,
        halves.map(lambda x: math.nextafter(x, -math.inf)),
        halves.map(lambda x: math.nextafter(x, math.inf)),
    )


_FIELD_VALUES = st.one_of(
    st.floats(0.0, 1e4),
    st.floats(allow_nan=True, allow_infinity=True),
    _near_ties(),
    st.sampled_from(
        [
            0.0078125, -0.0, 0.0, 5e-324, 2.2250738585072014e-308, math.inf, -math.inf,
            math.nan, 1e300, 0.5e-6, 2.5e-6,
            2**52 / 1e6, math.nextafter(2**52 / 1e6, 0), math.nextafter(2**52 / 1e6, math.inf),
        ]
    ),
)
_YEARS = st.one_of(
    st.integers(0, 3000),
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([-1, 10**18, 2**63 - 1, -(2**63), 999999999999999999]),
)


class TestComputeRows:
    @settings(max_examples=300, deadline=None)
    @given(
        names=st.lists(
            st.one_of(
                st.sampled_from(["A", "Korea, Rep.", 'Quote "Q"', "Multi\nLine", "ÄÖ", "A\0"]),
                st.text(min_size=1),
            ),
            min_size=1,
            max_size=5,
        ),
        rows=st.lists(
            st.tuples(
                st.integers(0, 4),
                _YEARS,
                st.one_of(
                    st.lists(st.floats(0.0, 1e4), min_size=5, max_size=5),
                    st.lists(st.one_of(st.floats(0.0, 1e4), _FIELD_VALUES), min_size=5, max_size=5),
                ),
            ),
            max_size=30,
        ),
    )
    @example(names=["A"], rows=[(0, 2015, [0.0078125, 2.5e-6, -0.0, math.inf, 1e300])])
    @example(names=["A"], rows=[(0, 2015, [0.3, -0.0, 0.3, 0.3, 0.3]), (0, 1, [0.3] * 5)])
    @example(names=["A"], rows=[(0, -2015, [0.3] * 5), (0, 2**63 - 1, [0.3] * 5)])
    @example(  # more rows than the formatter moves at a time, one of them an f-string's
        names=["A", "Korea, Rep."],
        rows=[(i, 1990 + i % 30, [0.3, 2.5 + i, -0.0 if i == 700 else 0.25, 1e3 / (i + 1), 0.5]) for i in range(1100)],
    )
    def test_matches_f_strings(self, names, rows):
        """Each row is byte for byte the f-string `ineq compute` printed."""
        quoted = [cli._csv_field(name) for name in names]
        country = np.array([c % len(names) for c, _, _ in rows], dtype=np.intp)
        year = np.array([y for _, y, _ in rows], dtype=np.int64)
        fields = [np.array([f[k] for _, _, f in rows], dtype=np.float64) for k in range(5)]
        expected = "".join(
            f"{quoted[c]},{y},{g:.6f},{tb:.6f},{h:.6f},{i:.6f},{a:.6f}\n"
            for c, y, g, tb, h, i, a in zip(
                country.tolist(), year.tolist(), *(f.tolist() for f in fields)
            )
        )
        table = _compute_format._name_table(quoted)
        assert _compute_format._compute_rows(quoted, country, year, fields, table) == expected


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

    @pytest.mark.parametrize("indicator", ["ratio", "alt"])
    def test_rank_of_a_ratio_past_decimal_precision(self, capsys, tmp_path, indicator):
        """A bottom share of 1e-300 gives a T/B of 3e299, an integer too
        long for a decimal quantize: it is ranked, unrounded, and last."""
        path = tmp_path / "panel.csv"
        path.write_text(
            "country,year,source,gini,top10,bottom10\n"
            "A,2015,WB,0.3,0.3,1e-300\nB,2015,WB,0.3,0.3,0.03\n"
        )
        code, out, err = run(capsys, "rank", "--input", str(path), "--indicator", indicator)
        assert (code, err) == (0, "")
        assert [(r["rank"], r["country"]) for r in parse_csv(out)] == [("1", "B"), ("2", "A")]

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
        assert (code, err) == (2, "error: 'Atlantis' not found\n")

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

    @pytest.mark.parametrize("table", [WB_TABLE, OECD_TABLE])
    def test_stdin_matches_path(self, capsys, monkeypatch, table):
        """The table on stdin is read once, for both its column checks, and
        gives the run by path."""
        by_path = run(capsys, "replicate", "--input", str(table))
        stdin = io.TextIOWrapper(io.BytesIO(table.read_bytes()), encoding="utf-8", errors="surrogateescape")
        monkeypatch.setattr("sys.stdin", stdin)
        assert run(capsys, "replicate", "--input", "-") == by_path
        stdin.seek(0)
        assert run(capsys, "replicate", "--input", "-", "--expected", "-") == by_path
        assert by_path[0] == 0

    def test_input_columns_are_checked_first(self, capsys, tmp_path):
        # a table missing both gini and h reports only the input's column
        path = tmp_path / "table.csv"
        path.write_text("country,t_over_b,index_i\nGRC,13.79,0.425\n")
        code, out, err = run(capsys, "replicate", "--input", str(path))
        assert (code, out, err) == (2, "", f"error: {path}: missing column(s): gini\n")

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("GRC,0.36,13.79,0.481,0.425\n ,0.3,10,0.4,0.4\n", "row with empty country"),
            ("GRC,0.36,13.79,0.481,0.425\nGRC,0.3,10,0.4,0.4\n", "duplicate country 'GRC'"),
            ("GRC,0.36,n/a,0.481,0.425\n", "unparseable numeric for 'GRC'"),
            ("GRC,0.36\n", "unparseable numeric for 'GRC'"),
        ],
    )
    def test_bad_table_row_exit_2(self, capsys, tmp_path, rows, message):
        path = tmp_path / "table.csv"
        path.write_text("country,gini,t_over_b,h,index_i\n" + rows)
        code, out, err = run(capsys, "replicate", "--input", str(path))
        assert (code, out, err) == (2, "", f"error: {path}: {message}\n")

    def test_cell_past_the_csv_field_limit_exit_2(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text(
            "country,gini,t_over_b,h,index_i\nGRC,0.36,13.79,0.481,0.425\n" + "X" * 140_000 + ",0.3,10,0.4,0.4\n"
        )
        code, out, err = run(capsys, "replicate", "--input", str(path))
        message = f"{path}:3: field larger than field limit ({csv.field_size_limit()})"
        assert (code, out, err) == (2, "", f"error: {message}\n")

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

    @pytest.mark.parametrize("weight", ["0", "2", "nan"])
    def test_bad_weight_prints_nothing(self, capsys, tmp_path, weight):
        """`compute` checks the weight before its header: a bad weight
        prints no row and creates no output file."""
        path = tmp_path / "panel.csv"
        path.write_text(PANEL_HEADER + "AAA,2015,0.36,0.262,0.019\n")
        code, out, err = run(capsys, "compute", "--input", str(path), "--weight", weight)
        assert (code, out) == (2, "") and err.startswith("error: weight ")
        output = tmp_path / "out.csv"
        code, _, _ = run(capsys, "compute", "--input", str(path), "--weight", weight, "--output", str(output))
        assert code == 2 and not output.exists()

    def test_bad_weight_unused_by_an_empty_slice(self, capsys, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text(PANEL_HEADER + "AAA,2015,0.36,0.262,0.019\n")
        code, out, _ = run(capsys, "compute", "--input", str(path), "--year", "1990", "--weight", "2")
        assert (code, out) == (0, "country,year,gini,t_over_b,h,index_i,alt_index\n")


# Lines of a values file: a value with optional padding and a line ending.
# Beside numbers they hold what ``float()`` takes and numpy's reader may not
# (underscores, Unicode digits, whitespace-only lines, Unicode spaces),
# non-finite spellings, commas, a misplaced byte-order mark and bad values.
# Lines end at "\n", "\r\n" and a lone "\r" only: the other breaks
# ``str.splitlines`` knows ("\x0b", "\x0c", "\x1c", "\x85", "\u2028") are
# line content, as padding or, in _LINE_ENDINGS, joining two lines' values.
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
# Bytes that are not UTF-8, as the surrogates "surrogateescape" reads them as.
_UNDECODABLE = st.sampled_from(["\udcff", "\udcc3", "1\udcff", "\udcc32"])
_PADDING = st.sampled_from(
    ["", "", "", " ", "\t", "\x0b", "\x0c", "\xa0", "\u3000", "\x1c", "\x85", "\u2028"]
)
_LINE_ENDINGS = st.sampled_from(
    ["\n", "\n", "\n", "\r\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85"]
)
_LINES = st.tuples(
    _PADDING, st.one_of(_NUMBERS, _NUMBERS, _NUMBERS, _ODD_VALUES, _UNDECODABLE), _PADDING, _LINE_ENDINGS
).map("".join)


def _read_outcome(name):
    """What ``ineq micro`` reads from ``name``: each array parsed, by numpy's
    reader or the per-line parse, as it was in read order, then the sample's
    values or the error it reports."""
    parsed = []

    def spy(real):
        def read(*args):
            values = real(*args)
            if values is not None:  # numpy's reader declined: the per-line parse follows
                parsed.append((values.dtype, values.shape, values.tobytes()))
            return values

        return read

    with mock.patch.object(micro, "_load_values", spy(micro._load_values)), \
            mock.patch.object(micro, "_parse_lines", spy(micro._parse_lines)):
        try:
            values = micro.read_sample(name).values
        except (ValueError, IneqError) as exc:
            return parsed, "error", str(exc).replace(f"{name}:", "<input>:", 1)
    return parsed, "values", values.dtype, values.shape, values.tobytes()


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
@example(bom=False, lines=["1\n", "\udcff\n", "2\n"], final_newline=True, suffix=".txt")
@example(bom=True, lines=["1\n", "\udcc3"], final_newline=False, suffix=".txt")
def test_file_and_stdin_reads_agree(tmp_path_factory, bom, lines, final_newline, suffix):
    """A file, read by numpy's C reader where it can, and the same bytes on
    stdin give identical values or an identical error, also where the bytes
    are not UTF-8."""
    text = "\ufeff" * bom + "".join(lines)
    if lines and not final_newline:
        text = text.rstrip("\r\n\x0b\x0c\x1c\x85")
    raw = text.encode("utf-8", "surrogateescape")
    path = tmp_path_factory.mktemp("values") / f"values{suffix}"
    path.write_bytes(raw)
    by_file = _read_outcome(str(path))
    # stdin as the interpreter opens it in UTF-8 mode
    stdin = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="surrogateescape")
    with mock.patch("sys.stdin", stdin):
        by_stdin = _read_outcome("-")
    assert by_file == by_stdin


def _python(*argv, buffered=False, **kwargs) -> subprocess.CompletedProcess:
    """A run of this interpreter on ``argv`` from the repository's root, with
    the package's source first on its path; stdout and stderr are captured
    unless given.  ``buffered`` drops ``PYTHONUNBUFFERED``, so that stdout is
    block-buffered, as where that variable is not set."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join(filter(None, [os.path.join(root, "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    options = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs}
    return subprocess.run([sys.executable, *argv], cwd=root, env=env, **options)


@pytest.mark.parametrize(
    "argv, data",
    [
        (["micro"], b"1.5\n" * 3 + b"\xff2\n"),
        (["replicate"], WB_TABLE.read_bytes()),
    ],
    ids=["micro-not-utf8", "replicate"],
)
def test_piped_stdin_matches_the_file(tmp_path, argv, data):
    """Bytes through a real pipe to `--input -` give the stdout, stderr and
    exit code of the same bytes read from a file."""
    path = tmp_path / "input.csv"
    path.write_bytes(data)
    by_file = _python("-m", "ineqkit", *argv, "--input", str(path))
    by_pipe = _python("-m", "ineqkit", *argv, "--input", "-", input=data)
    assert (by_pipe.returncode, by_pipe.stdout, by_pipe.stderr) == (
        by_file.returncode,
        by_file.stdout,
        by_file.stderr,
    )


def test_panel_commands_leave_numpy_ma_and_char_unloaded():
    """`rank`, `compare`, `series`, `calibrate` and `compute` import neither
    numpy.ma nor numpy.char, each tens of milliseconds of start-up."""
    script = """
import os, sys
from ineqkit.cli import main
panel = ["--input", "tests/data/golden_panel.csv", "--output", os.devnull]
one = [*panel, "--year", "2015", "--source", "wb"]
for argv in (["rank", *one], ["compare", *one], ["series", *panel, "--country", "Alpha"],
             ["calibrate", *panel], ["calibrate", *panel, "--by-sample"], ["compute", *panel]):
    assert main(argv) == 0, argv
print(sorted(m for m in ("numpy.ma", "numpy.char") if m in sys.modules))
"""
    assert _python("-c", script, text=True, check=True).stdout == "[]\n"


GOLDEN_MICRO = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden_micro.txt")


def _stdout_lost(error: str) -> bytes:
    """The interpreter's report of a stdout it could not flush at exit."""
    return f"Exception ignored in: <_io.TextIOWrapper name='<stdout>' mode='w' encoding='utf-8'>\n{error}\n".encode()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_stdout_exits_as_the_interpreter_does():
    """A stdout that cannot take the table is reported once, by the
    interpreter, with its exit status 120 and no traceback."""
    with open("/dev/full", "wb") as full:
        done = _python("-m", "ineqkit", "micro", "--input", GOLDEN_MICRO, stdout=full, buffered=True)
    assert (done.returncode, done.stderr) == (120, _stdout_lost("OSError: [Errno 28] No space left on device"))


def test_closed_stdout_pipe_exits_as_the_interpreter_does():
    read, write = os.pipe()
    os.close(read)
    try:
        done = _python("-m", "ineqkit", "micro", "--input", GOLDEN_MICRO, stdout=write, buffered=True)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (120, _stdout_lost("BrokenPipeError: [Errno 32] Broken pipe"))


def test_a_run_ends_with_what_main_wrote(capsys, tmp_path):
    """`python -m ineqkit`, which skips the interpreter's teardown, writes
    what `main` does in process: stdout or the whole ``--output`` file, and
    stderr.  `compute` on 40,000 rows (10 chunks) forks a child on 2 CPUs."""
    panel = _forked_panel(tmp_path / "panel.csv", rows=40_000)
    target = tmp_path / "out.csv"
    for argv in (["micro", "--input", GOLDEN_MICRO], ["compute", "--input", str(panel)]):
        expected = run(capsys, *argv)
        assert expected[0] == 0 and expected[1]
        done = _python("-m", "ineqkit", *argv, buffered=True, text=True)
        assert (done.returncode, done.stdout, done.stderr) == expected
        done = _python("-m", "ineqkit", *argv, "--output", str(target), buffered=True, text=True)
        assert (done.returncode, done.stdout, done.stderr) == (0, "", expected[2])
        assert target.read_text() == expected[1]
    done = _python("-m", "ineqkit", "micro", buffered=True, text=True)
    assert done.returncode == 2
    assert done.stderr.endswith("ineq micro: error: the following arguments are required: --input\n")


def test_micro_loads_no_panel_code():
    """`micro` leaves the panel and ranking modules unloaded, and `rank`
    loads them; ``ineqkit.composite`` stays the function throughout."""
    script = f"""
import os, sys
import ineqkit
from ineqkit import cli
function = ineqkit.composite
assert cli.main(["micro", "--input", {GOLDEN_MICRO!r}, "--output", os.devnull]) == 0
print(sorted(m for m in ("ineqkit.panel", "ineqkit.ranking") if m in sys.modules))
panel = ["--input", "tests/data/golden_panel.csv", "--output", os.devnull]
one = [*panel, "--year", "2015", "--source", "wb"]
for argv in (["rank", *one], ["compare", *one], ["series", *panel, "--country", "Alpha"],
             ["calibrate", *panel], ["compute", *panel],
             ["replicate", "--input", "data/wb_2015_indicators.csv", "--output", os.devnull]):
    assert cli.main(argv) == 0, argv
    assert ineqkit.composite is function, argv
    if argv[0] == "rank":
        print(sorted(m for m in ("ineqkit.panel", "ineqkit.ranking") if m in sys.modules))
"""
    done = _python("-c", script, text=True)
    assert (done.returncode, done.stdout) == (0, "[]\n['ineqkit.panel', 'ineqkit.ranking']\n"), done.stderr


def test_package_names_resolve_to_their_modules():
    import importlib

    import ineqkit

    for name in ineqkit.__all__:
        if name == "__version__":
            continue
        module = importlib.import_module(f"ineqkit.{ineqkit._MODULE_OF[name]}")
        value = getattr(ineqkit, name)
        assert value is getattr(module, name), name
        # the table names the module that defines each class and function
        assert getattr(value, "__module__", module.__name__) == module.__name__, name
    star = {}
    exec("from ineqkit import *", star)
    assert sorted(star.keys() - {"__builtins__"}) == sorted(ineqkit.__all__)
    from ineqkit import cli as cli_module, micro as micro_module, panel as panel_module

    assert (cli_module.__name__, micro_module.__name__, panel_module.__name__) == (
        "ineqkit.cli",
        "ineqkit.micro",
        "ineqkit.panel",
    )
    assert callable(ineqkit.composite)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        ineqkit.no_such_name


@pytest.mark.parametrize(
    "module, name",
    [("panel", "parse_panel"), ("panel", "slice_panel"), ("ranking", "rank"),
     ("ranking", "compare_rankings"), ("ranking", "series")],
)
def test_deferred_names_forward_their_arguments(monkeypatch, module, name):
    """Each panel-side name `cli` defers calls its module's function, looked
    up at the call, with the caller's positional and keyword arguments."""
    import importlib

    calls = []
    monkeypatch.setattr(importlib.import_module(f"ineqkit.{module}"), name, lambda *a, **k: calls.append((a, k)) or calls)
    assert getattr(cli, name)(1, "two", three=3) is calls
    assert calls == [((1, "two"), {"three": 3})]


def test_indicator_choices_are_the_indicators():
    assert cli._INDICATORS == tuple(sorted(i.value for i in Indicator))
