"""Command-line interface.

Subcommands: compute, micro, calibrate, rank, compare, series, replicate.
All reports are CSV on standard output (or ``--output``); diagnostics and
summaries go to standard error.  Exit codes: 0 success, 1 tolerance or
acceptance failure, 2 input or schema error.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from pathlib import Path

import numpy as np

from . import micro
from .composite import (
    DEFAULT_WEIGHT,
    b_over_t_from_t_over_b,
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
from .panel import (
    SOURCES,
    Panel,
    SchemaConfig,
    Source,
    parse_panel,
    ratio_of,
    slice_panel,
    t_over_b_of,
)
from .ranking import (
    Indicator,
    compare_rankings,
    rank,
    rank_values,
    round_half_away,
    series,
)
from .welfare import atkinson, ge_index, ge_zero, theil

_INDICATORS = {i.value: i for i in Indicator}
# Percent cuts of the tail-share rows of `ineq micro`.
_TAIL_CUTS = (10, 20, 30, 40, 50)
# Rows formatted per write of `ineq compute`.
_CHUNK_ROWS = 1 << 14


def _fmt(value: float, decimals: int = 6) -> str:
    return f"{value:.{decimals}f}"


def _read_text(path: str) -> str:
    """The text of a file, or of stdin for "-", without a leading byte-order
    mark (spreadsheet exports often start with one)."""
    if path == "-":
        return sys.stdin.read().removeprefix("\ufeff")
    return Path(path).read_text(encoding="utf-8-sig")


def _emit(chunks, output: str) -> None:
    """Write the text pieces ``chunks`` to ``output``, or to stdout for "-"."""
    if output == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def _schema_from_args(args) -> SchemaConfig:
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
    default_source = Source(args.source.upper()) if args.source else Source.OTHER
    return SchemaConfig(
        country=columns.get("country", "country"),
        year=columns.get("year", "year"),
        gini=columns.get("gini", "gini"),
        top10=columns.get("top10", "top10"),
        bottom10=columns.get("bottom10", "bottom10"),
        source=columns.get("source"),
        gini_unit=args.gini_unit,
        share_unit=args.share_unit,
        default_source=default_source,
    )


def _load_panel(args) -> Panel:
    """Parse, report diagnostics, apply --year/--source filters.

    Raises when a row was skipped under --strict.
    """
    text = _read_text(args.input)
    schema = _schema_from_args(args)
    panel, diagnostics = parse_panel(text, schema, label=args.input)
    for diag in diagnostics:
        print(f"{args.input}:{diag.line}: skipped row: {diag.reason}", file=sys.stderr)
    if diagnostics and args.strict:
        raise IneqError(f"{len(diagnostics)} bad row(s) with --strict")
    source = Source(args.source.upper()) if args.source else None
    return slice_panel(panel, year=args.year, source=source)


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
    panel = _load_panel(args)
    columns = [panel.country, panel.year, panel.gini, t_over_b_of(panel)]
    # The weight is checked only when some row uses it.
    if len(panel):
        res = composite(panel.gini, ratio_of(panel), args.weight)
        columns += [res.h, res.index_i, res.alt_index]
    country = [_csv_field(name) for name in panel.names]

    def lines():
        yield "country,year,gini,t_over_b,h,index_i,alt_index\n"
        for start in range(0, len(panel), _CHUNK_ROWS):
            rows = zip(*(col[start : start + _CHUNK_ROWS].tolist() for col in columns))
            yield "".join(
                f"{country[c]},{y},{g:.6f},{tb:.6f},{h:.6f},{i:.6f},{a:.6f}\n"
                for c, y, g, tb, h, i, a in rows
            )

    _emit(lines(), args.output)
    return 0


def _read_values(path: str) -> list[float]:
    """The numbers of a one-value-per-line input, blank lines skipped; a bad
    value is reported with its 1-based line number."""
    lines = _read_text(path).splitlines()
    try:
        return [float(line) for line in map(str.strip, lines) if line]
    except ValueError as exc:
        # Only an input that fails pays for finding its first bad line.
        for number, line in enumerate(lines, 1):
            try:
                float(line.strip() or 0)
            except ValueError:
                raise ValueError(f"{path}:{number}: {exc}") from None
        raise


def cmd_micro(args) -> int:
    sample = micro.IncomeSample.from_values(_read_values(args.input))
    # Every Lorenz-based row reads this one curve.  It is looked up on the
    # module so that code patching ``ineqkit.micro.lorenz_curve`` sees it.
    curve = micro.lorenz_curve(sample)
    gini = curve.gini()
    deciles = np.diff(curve.value_at(np.arange(11) / 10.0))
    bottom, top, b_over_t = curve.tail_shares(_TAIL_CUTS)

    rows: list[tuple[str, str]] = [
        ("n", str(sample.n)),
        ("mean", _fmt(sample.mean)),
        ("gini", _fmt(gini)),
    ]
    rows += [(f"decile_share_{k}", _fmt(d)) for k, d in enumerate(deciles, 1)]
    rows += [(f"bottom_share_{x}", _fmt(b)) for x, b in zip(_TAIL_CUTS, bottom)]
    rows += [(f"top_share_{x}", _fmt(t)) for x, t in zip(_TAIL_CUTS, top)]
    for x, ratio in zip(_TAIL_CUTS, b_over_t):
        t_over_b = math.inf if ratio == 0.0 else 1.0 / ratio
        rows.append((f"t_over_b_{x}", _fmt(t_over_b)))
    try:
        palma = curve.palma()
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
        mld = math.nan
    rows.append(("mld", _fmt(mld)))
    res = composite(gini, b_over_t[0], args.weight)
    rows.append(("weight", _fmt(args.weight)))
    rows.append(("h", _fmt(res.h)))
    rows.append(("index_i", _fmt(res.index_i)))
    rows.append(("alt_index", _fmt(res.alt_index)))

    _emit(_csv_text(["metric", "value"], rows), args.output)
    return 0


def cmd_calibrate(args) -> int:
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
        for source, year in sorted(set(zip(panel.source.tolist(), panel.year.tolist()))):
            sample = np.flatnonzero((panel.source == source) & (panel.year == year))
            avg_gini, avg_ratio, alpha = sample_alpha(sample)
            alphas.append(alpha)
            stats = [_fmt(avg_gini), _fmt(avg_ratio), _fmt(alpha)]
            rows.append([SOURCES[source].value, year, sample.size, *stats])
        rows.append(["mean", "", len(panel), "", "", _fmt(mean_alpha(alphas))])
    else:
        avg_gini, avg_ratio, alpha = sample_alpha(np.arange(len(panel)))
        rows.append(["all", "", len(panel), _fmt(avg_gini), _fmt(avg_ratio), _fmt(alpha)])
    _emit(_csv_text(header, rows), args.output)
    return 0


def cmd_rank(args) -> int:
    panel = _load_panel(args)
    table = rank(panel, _INDICATORS[args.indicator], args.weight)
    rows = [[e.rank, e.country, _fmt(e.value, 3)] for e in table.entries]
    _emit(_csv_text(["rank", "country", "value"], rows), args.output)
    return 0


def cmd_compare(args) -> int:
    panel = _load_panel(args)
    table_a = rank(panel, _INDICATORS[args.indicator_a], args.weight)
    table_b = rank(panel, _INDICATORS[args.indicator_b], args.weight)
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
    panel = _load_panel(args)
    points = series(panel, args.country, args.weight)
    rows = [
        [p.year, _fmt(p.gini), _fmt(p.t_over_b), _fmt(p.index_i)]
        for p in points
    ]
    _emit(_csv_text(["year", "gini", "t_over_b", "index_i"], rows), args.output)
    return 0


def _read_table(path: str, needed: tuple[str, ...]) -> dict[str, dict[str, float]]:
    """Read a reference table keyed by country; checks the needed columns."""
    text = _read_text(path)
    reader = csv.DictReader(io.StringIO(text))
    fields = reader.fieldnames or []
    missing = [c for c in ("country",) + needed if c not in fields]
    if missing:
        raise SchemaError(f"{path}: missing column(s): {', '.join(missing)}")
    table: dict[str, dict[str, float]] = {}
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
    return table


def cmd_replicate(args) -> int:
    inputs = _read_table(args.input, ("gini", "t_over_b"))
    expected_path = args.expected or args.input
    expected = _read_table(expected_path, ("h", "index_i"))
    if set(inputs) != set(expected):
        only_in = sorted(set(inputs) - set(expected))
        only_exp = sorted(set(expected) - set(inputs))
        raise JoinError(
            f"country sets differ: only in input {only_in}, only in expected {only_exp}"
        )

    rows = []
    worst_h = (0.0, "")
    worst_i = (0.0, "")
    gini_values = {}
    index_values = {}
    for country in sorted(inputs):
        gini_value = inputs[country]["gini"]
        ratio = b_over_t_from_t_over_b(inputs[country]["t_over_b"])
        res = composite(gini_value, ratio, args.weight)
        dh = abs(res.h - expected[country]["h"])
        di = abs(res.index_i - expected[country]["index_i"])
        if dh > worst_h[0]:
            worst_h = (dh, country)
        if di > worst_i[0]:
            worst_i = (di, country)
        gini_values[country] = gini_value
        index_values[country] = res.index_i
        rows.append(
            [
                country,
                _fmt(expected[country]["h"], 3),
                _fmt(round_half_away(res.h), 3),
                _fmt(dh),
                _fmt(expected[country]["index_i"], 3),
                _fmt(round_half_away(res.index_i), 3),
                _fmt(di),
            ]
        )
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

    cmp = compare_rankings(
        rank_values(gini_values, Indicator.GINI),
        rank_values(index_values, Indicator.INDEX_I),
    )
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
    sub.add_argument("--indicator", choices=sorted(_INDICATORS), default="index")
    sub.set_defaults(func=cmd_rank)

    sub = subs.add_parser("compare", help="rank-change counts between two indicators")
    _add_panel_flags(sub)
    sub.add_argument("--indicator-a", choices=sorted(_INDICATORS), default="gini")
    sub.add_argument("--indicator-b", choices=sorted(_INDICATORS), default="index")
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
    sub.add_argument("--input", required=True, help="CSV with country,gini,t_over_b")
    sub.add_argument(
        "--expected",
        default=None,
        help="CSV with country,h,index_i (defaults to the input file)",
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
    except IneqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
