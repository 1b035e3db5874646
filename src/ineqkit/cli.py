"""Command-line interface.

Subcommands: compute, micro, calibrate, rank, compare, series, replicate.
All reports are CSV on standard output (or ``--output``); diagnostics and
summaries go to standard error.  Exit codes: 0 success, 1 tolerance or
acceptance failure, 2 input or schema error.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import io
import math
import os
import pickle
import sys

import numpy as np

from . import micro
from ._fork import Children, _may_fork, _usable_cpus
from .composite import (
    DEFAULT_WEIGHT,
    _alt_index,
    _check_weight,
    calibrate_alpha,
    composite,
    mean_alpha,
)
from .errors import (
    DivisionByZeroShareError,
    IneqError,
    JoinError,
    SchemaError,
    ZeroIncomeError,
)
from .micro import _open, _read_bytes
from .welfare import atkinson, ge_index, ge_zero, theil


def _deferred(module: str, name: str):
    """A stand-in for ``module.name`` that imports the module at its first
    call, so that `ineq micro` loads no panel code.  It is a name of this
    module, which code that traces or fakes the call may replace."""

    def call(*args, **kwargs):
        return getattr(importlib.import_module(module, __package__), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


parse_panel = _deferred(".panel", "parse_panel")
slice_panel = _deferred(".panel", "slice_panel")
rank = _deferred(".ranking", "rank")
compare_rankings = _deferred(".ranking", "compare_rankings")
series = _deferred(".ranking", "series")

# The values of `ranking.Indicator`, sorted.
_INDICATORS = ("alt", "gini", "index", "ratio")
# Percent cuts of the tail-share rows of `ineq micro`.
_TAIL_CUTS = (10, 20, 30, 40, 50)
# Rows composited and formatted at a time by `ineq compute`.
_CHUNK_ROWS = 1 << 12
# `ineq compute` deals its chunks out to at most a process per usable CPU, each making at least
# this many.  On 2 CPUs, in process, medians of 21 (one process, dealt out): 6 chunks 79.0 and
# 76.9 ms, 8 chunks 107.1 and 102.5 ms, 12 chunks 145.2 and 136.3 ms.
_FORK_CHUNKS = 4
# Skipped-row diagnostics per write to stderr.
_DIAGNOSTIC_ROWS = 1 << 10


def _fmt(value: float, decimals: int = 6) -> str:
    return f"{value:.{decimals}f}"


def _emit(chunks, output: str) -> None:
    """Write the text pieces ``chunks`` to ``output``, or to stdout for "-"."""
    if output == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def _schema_from_args(args, source: Source | None) -> SchemaConfig:
    from .panel import SchemaConfig, Source

    columns = {}
    if args.schema:
        for item in args.schema.split(","):
            if "=" not in item:
                raise SchemaError(f"bad --schema entry {item!r}, expected key=column")
            key, _, column = item.partition("=")
            key = key.strip()
            column = column.strip()
            if key not in ("country", "year", "gini", "top10", "bottom10", "source"):
                raise SchemaError(f"unknown --schema key {key!r}")
            if not column:
                raise SchemaError(f"empty column name for --schema key {key!r}")
            columns[key] = column
    return SchemaConfig(
        **columns,
        gini_unit=args.gini_unit,
        share_unit=args.share_unit,
        default_source=source or Source.OTHER,
    )


def _load_panel(args, country: str | None = None) -> Panel:
    """Parse, report diagnostics, and keep only the rows of the --year and
    --source filters and of ``country``, when given, in key order.  The
    parse applies the filters, so it holds the shares of those rows alone.

    Raises when a row was skipped under --strict.
    """
    from .panel import Source

    source = Source(args.source.upper()) if args.source else None
    with _open(args.input) as stream:
        schema = _schema_from_args(args, source)
        try:
            panel, diagnostics = parse_panel(
                stream, schema, label=args.input, year=args.year, source=source, country=country, sliced=True
            )
        except ValueError as exc:  # "line N: ...": a cell past csv's field limit
            if not str(exc).startswith("line "):
                raise
            raise ValueError(f"{args.input}:{str(exc).removeprefix('line ')}") from None
    # stderr is line-buffered, so a print per row is a write per row; a write
    # per batch also bounds the string built (one string for all of a large
    # panel's rows outlives its use as a hole in the heap).
    for start in range(0, len(diagnostics), _DIAGNOSTIC_ROWS):
        batch = diagnostics[start : start + _DIAGNOSTIC_ROWS]
        sys.stderr.write("".join(f"{args.input}:{d.line}: skipped row: {d.reason}\n" for d in batch))
    if diagnostics and args.strict:
        raise IneqError(f"{len(diagnostics)} bad row(s) with --strict")
    # The parse's panel is already sliced: slicing it again copies nothing.
    return slice_panel(panel)


def _csv_text(header, rows) -> list[str]:
    """A small CSV table as the one text chunk `_emit` writes."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return [out.getvalue()]


def _csv_field(value: str) -> str:
    """``value`` as csv.writer writes it in a row, quoted where needed."""
    return _csv_text([value], [])[0][:-1]


def cmd_compute(args) -> int:
    from ._compute_format import _compute_rows, _name_table
    from .panel import ratio_of, t_over_b_of

    panel = _load_panel(args)
    # Checked before any output, and only when some row uses it.
    if len(panel):
        _check_weight(args.weight)
    names = [_csv_field(name) for name in panel.names]
    table = _name_table(names)

    def make(i: int) -> str:
        rows = panel.take(slice(i * _CHUNK_ROWS, (i + 1) * _CHUNK_ROWS))
        t_over_b = t_over_b_of(rows)
        res = composite(rows.gini, ratio_of(rows), args.weight)
        # `rank --indicator alt`'s value, from the printed T/B the parse checked.
        fields = [rows.gini, t_over_b, res.h, res.index_i, _alt_index(rows.gini, t_over_b)]
        return _compute_rows(names, rows.country, rows.year, fields, table)

    # Chunk i is made by worker i % workers: worker 0 is this process, and
    # each other a child that sends its chunks, each pickled as one record.
    count = -(-len(panel) // _CHUNK_ROWS)
    workers = max(1, min(_usable_cpus(), count // _FORK_CHUNKS)) if _may_fork() else 1

    def send(pipe, worker: int) -> None:
        for i in range(worker, count, workers):
            pickle.dump(make(i), pipe)

    def chunks():
        yield "country,year,gini,t_over_b,h,index_i,alt_index\n"
        for i in range(count):
            try:
                text = pickle.load(pipes[i % workers]) if pipes[i % workers] else None
            except (EOFError, pickle.UnpicklingError):  # a child that failed leaves the rest here
                text = pipes[i % workers] = None
            yield make(i) if text is None else text

    with Children() as children:
        pipes = [None, *(children.start(lambda pipe, w=w: send(pipe, w)) for w in range(1, workers))]
        _emit(chunks(), args.output)
    return 0


def cmd_micro(args) -> int:
    sample = micro.read_sample(args.input)
    # Every Lorenz-based row reads this one curve.  It is looked up on the
    # module so that code patching ``ineqkit.micro.lorenz_curve`` sees it.
    curve = micro.lorenz_curve(sample)
    gini = curve.gini()
    # One lookup of the curve reads the deciles, the tails and the Palma cuts.
    points, (bottom, top, b_over_t) = curve.profile(np.arange(11) / 10.0, _TAIL_CUTS)
    deciles = np.diff(points)

    rows: list[tuple[str, str]] = [
        ("n", str(sample.n)),
        ("mean", _fmt(sample.mean)),
        ("gini", _fmt(gini)),
    ]
    rows += [(f"decile_share_{k}", _fmt(d)) for k, d in enumerate(deciles, 1)]
    rows += [(f"bottom_share_{x}", _fmt(b)) for x, b in zip(_TAIL_CUTS, bottom)]
    rows += [(f"top_share_{x}", _fmt(t)) for x, t in zip(_TAIL_CUTS, top)]
    for x, ratio in zip(_TAIL_CUTS, b_over_t):
        # A float quotient past the range is inf, with no numpy warning.
        t_over_b = math.inf if ratio == 0.0 else 1.0 / float(ratio)
        rows.append((f"t_over_b_{x}", _fmt(t_over_b)))
    try:
        palma = micro.palma_of(bottom[_TAIL_CUTS.index(40)], top[_TAIL_CUTS.index(10)])
    except DivisionByZeroShareError:
        palma = math.inf
    rows.append(("palma", _fmt(palma)))
    rows.append(("epsilon", _fmt(args.epsilon)))
    rows.append(("atkinson", _fmt(atkinson(sample, args.epsilon))))
    rows.append(("alpha", _fmt(args.alpha)))
    rows.append(("ge", _fmt(ge_index(sample, args.alpha))))
    rows.append(("theil", _fmt(theil(sample))))
    try:
        mld = ge_zero(sample)
    except ZeroIncomeError:
        # ln(mean / 0) is +inf, so the mean of the log deviations is too.
        mld = math.inf
    rows.append(("mld", _fmt(mld)))
    res = composite(gini, b_over_t[0], args.weight)
    rows.append(("weight", _fmt(args.weight)))
    rows.append(("h", _fmt(res.h)))
    rows.append(("index_i", _fmt(res.index_i)))
    rows.append(("alt_index", _fmt(res.alt_index)))

    _emit(_csv_text(["metric", "value"], rows), args.output)
    return 0


def cmd_calibrate(args) -> int:
    from .panel import SOURCES, ratio_of

    panel = _load_panel(args)
    if not len(panel):
        print("error: no records to calibrate on", file=sys.stderr)
        return 2
    ratio = ratio_of(panel)

    def sample_alpha(rows):
        # Python's sum, in panel order, gives the same bits as a row loop.
        avg_gini = sum(panel.gini[rows].tolist()) / rows.size
        avg_ratio = sum(ratio[rows].tolist()) / rows.size
        return avg_gini, avg_ratio, calibrate_alpha(avg_gini, avg_ratio)

    header = ["source", "year", "n", "avg_gini", "avg_ratio", "alpha"]
    rows = []
    if args.by_sample:
        alphas = []
        # One stable sort groups the rows by (source, year), each sample's
        # rows still in panel order.
        order = np.lexsort((panel.year, panel.source))
        source, year = panel.source[order], panel.year[order]
        starts = np.flatnonzero((source[1:] != source[:-1]) | (year[1:] != year[:-1])) + 1
        for first, sample in zip(np.r_[0, starts].tolist(), np.split(order, starts)):
            avg_gini, avg_ratio, alpha = sample_alpha(sample)
            alphas.append(alpha)
            stats = [_fmt(avg_gini), _fmt(avg_ratio), _fmt(alpha)]
            rows.append([SOURCES[source[first]].value, year[first].item(), sample.size, *stats])
        rows.append(["mean", "", len(panel), "", "", _fmt(mean_alpha(alphas))])
    else:
        avg_gini, avg_ratio, alpha = sample_alpha(np.arange(len(panel)))
        rows.append(["all", "", len(panel), _fmt(avg_gini), _fmt(avg_ratio), _fmt(alpha)])
    _emit(_csv_text(header, rows), args.output)
    return 0


def cmd_rank(args) -> int:
    from .ranking import Indicator

    panel = _load_panel(args)
    table = rank(panel, Indicator(args.indicator), args.weight)
    rows = [[e.rank, e.country, _fmt(e.value, 3)] for e in table.entries]
    _emit(_csv_text(["rank", "country", "value"], rows), args.output)
    return 0


def cmd_compare(args) -> int:
    from .ranking import Indicator

    panel = _load_panel(args)
    table_a = rank(panel, Indicator(args.indicator_a), args.weight)
    table_b = rank(panel, Indicator(args.indicator_b), args.weight)
    cmp = compare_rankings(table_a, table_b)
    if args.summary_only:
        _emit(_csv_text(["changed", "unchanged"], [[cmp.changed, cmp.unchanged]]), args.output)
    else:
        rows = [
            [country, ra, rb, int(ra != rb)]
            for country, (ra, rb) in cmp.per_country.items()
        ]
        _emit(_csv_text(["country", "rank_a", "rank_b", "changed"], rows), args.output)
        print(f"changed={cmp.changed} unchanged={cmp.unchanged}", file=sys.stderr)
    return 0


def cmd_series(args) -> int:
    panel = _load_panel(args, args.country)
    points = series(panel, args.country, args.weight)
    rows = [
        [p.year, _fmt(p.gini), _fmt(p.t_over_b), _fmt(p.index_i)]
        for p in points
    ]
    _emit(_csv_text(["year", "gini", "t_over_b", "index_i"], rows), args.output)
    return 0


def _read_table(path: str, text: str, needed: tuple[str, ...]) -> dict[str, dict[str, float]]:
    """The reference table ``text``, read from ``path``, keyed by country;
    checks the needed columns."""
    reader = csv.DictReader(io.StringIO(text, newline=None))
    table: dict[str, dict[str, float]] = {}
    try:
        fields = reader.fieldnames or []
        missing = [c for c in ("country",) + needed if c not in fields]
        if missing:
            raise SchemaError(f"{path}: missing column(s): {', '.join(missing)}")
        for row in reader:
            country = (row["country"] or "").strip()
            if not country:
                raise SchemaError(f"{path}: row with empty country")
            if country in table:
                raise SchemaError(f"{path}: duplicate country {country!r}")
            try:
                table[country] = {c: float(row[c]) for c in needed}
            except (TypeError, ValueError):
                raise SchemaError(f"{path}: unparseable numeric for {country!r}")
    except csv.Error as exc:
        raise SchemaError(f"{path}:{reader.reader.line_num}: {exc}") from None
    return table


def cmd_replicate(args) -> int:
    from .ranking import replicate_table, round_half_away

    # Each input is read and decoded once: stdin cannot be read twice.
    text = _read_bytes(args.input).decode()
    inputs = _read_table(args.input, text, ("gini", "t_over_b"))
    if args.expected and args.expected != args.input:
        text = _read_bytes(args.expected).decode()
    expected = _read_table(args.expected or args.input, text, ("h", "index_i"))
    if set(inputs) != set(expected):
        only_in = sorted(set(inputs) - set(expected))
        only_exp = sorted(set(expected) - set(inputs))
        raise JoinError(
            f"country sets differ: only in input {only_in}, only in expected {only_exp}"
        )

    table = replicate_table(
        (
            (c, inputs[c]["gini"], inputs[c]["t_over_b"], expected[c]["h"], expected[c]["index_i"])
            for c in sorted(inputs)
        ),
        args.weight,
    )
    rows = [
        [
            r.country,
            _fmt(expected[r.country]["h"], 3),
            _fmt(round_half_away(r.h), 3),
            _fmt(r.dh),
            _fmt(expected[r.country]["index_i"], 3),
            _fmt(round_half_away(r.index_i), 3),
            _fmt(r.di),
        ]
        for r in table.rows
    ]
    header = [
        "country",
        "h_expected",
        "h_computed",
        "abs_dh",
        "i_expected",
        "i_computed",
        "abs_di",
    ]
    _emit(_csv_text(header, rows), args.output)

    cmp = table.rank_changes()
    worst_h, worst_i = table.worst_h, table.worst_i
    print(
        f"max|dH|={worst_h[0]:.6f} ({worst_h[1]}) tol={args.tol_h:.6f}; "
        f"max|dI|={worst_i[0]:.6f} ({worst_i[1]}) tol={args.tol_i:.6f}; "
        f"changed={cmp.changed} unchanged={cmp.unchanged}",
        file=sys.stderr,
    )

    ok = worst_h[0] <= args.tol_h and worst_i[0] <= args.tol_i
    if args.expect_changed is not None:
        ok = ok and abs(cmp.changed - args.expect_changed) <= args.count_tolerance
    if args.expect_unchanged is not None:
        ok = ok and abs(cmp.unchanged - args.expect_unchanged) <= args.count_tolerance
    if not ok:
        print(
            f"replication failed: worst H at {worst_h[1]!r}, worst I at {worst_i[1]!r}",
            file=sys.stderr,
        )
        return 1
    return 0


def _add_panel_flags(sub) -> None:
    sub.add_argument("--input", required=True, help="panel CSV path, or - for stdin")
    sub.add_argument("--weight", type=float, default=DEFAULT_WEIGHT)
    sub.add_argument(
        "--schema",
        default="",
        help="column mapping, e.g. country=Country,year=Year,gini=Gini",
    )
    sub.add_argument("--gini-unit", choices=("decimal", "percent"), default="decimal")
    sub.add_argument("--share-unit", choices=("decimal", "percent"), default="decimal")
    sub.add_argument(
        "--source",
        choices=("WB", "OECD", "OTHER", "wb", "oecd", "other"),
        help="source label for unlabeled files; also filters the panel",
    )
    sub.add_argument("--year", type=int, help="keep only this year")
    sub.add_argument("--strict", action="store_true", help="fail on any bad row")
    sub.add_argument("--output", default="-", help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ineq",
        description="Inequality measures over published panels and micro-data.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sub = subs.add_parser("compute", help="per-record gini, T/B, H, index, alt index")
    _add_panel_flags(sub)
    sub.set_defaults(func=cmd_compute)

    sub = subs.add_parser("micro", help="measures from one-number-per-line micro-data")
    sub.add_argument("--input", required=True, help="values file, or - for stdin")
    sub.add_argument("--weight", type=float, default=DEFAULT_WEIGHT)
    sub.add_argument("--epsilon", type=float, default=1.0, help="Atkinson aversion")
    sub.add_argument("--alpha", type=float, default=2.0, help="GE entropy order")
    sub.add_argument("--output", default="-")
    sub.set_defaults(func=cmd_micro)

    sub = subs.add_parser("calibrate", help="solve the tail exponent from panel averages")
    _add_panel_flags(sub)
    sub.add_argument(
        "--by-sample",
        action="store_true",
        help="one exponent per (source, year) sample plus their mean",
    )
    sub.set_defaults(func=cmd_calibrate)

    sub = subs.add_parser("rank", help="competition-rank countries under an indicator")
    _add_panel_flags(sub)
    sub.add_argument("--indicator", choices=_INDICATORS, default="index")
    sub.set_defaults(func=cmd_rank)

    sub = subs.add_parser("compare", help="rank-change counts between two indicators")
    _add_panel_flags(sub)
    sub.add_argument("--indicator-a", choices=_INDICATORS, default="gini")
    sub.add_argument("--indicator-b", choices=_INDICATORS, default="index")
    sub.add_argument("--summary-only", action="store_true")
    sub.set_defaults(func=cmd_compare)

    sub = subs.add_parser("series", help="per-country time series of gini, T/B, index")
    _add_panel_flags(sub)
    sub.add_argument("--country", required=True)
    sub.set_defaults(func=cmd_series)

    sub = subs.add_parser(
        "replicate",
        help="recompute H and index from a reference table and diff against expected values",
    )
    sub.add_argument("--input", required=True, help="CSV with country,gini,t_over_b, or - for stdin")
    sub.add_argument(
        "--expected",
        default=None,
        help="CSV with country,h,index_i, or - for stdin (defaults to the input)",
    )
    sub.add_argument("--weight", type=float, default=DEFAULT_WEIGHT)
    sub.add_argument("--tol-h", type=float, default=0.001)
    sub.add_argument("--tol-i", type=float, default=0.001)
    sub.add_argument("--expect-changed", type=int, default=None)
    sub.add_argument("--expect-unchanged", type=int, default=None)
    sub.add_argument("--count-tolerance", type=int, default=0)
    sub.add_argument("--output", default="-")
    sub.set_defaults(func=cmd_replicate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (IneqError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """`ineq`'s entry point: :func:`main`, then an exit that skips the
    interpreter's teardown once stdout and stderr are flushed.  A flush that
    fails leaves the exit to the interpreter, which reports it as usual."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        raise SystemExit(code) from None
    os._exit(code)


if __name__ == "__main__":
    run()
