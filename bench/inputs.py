"""Seeded input generation for the benchmark workloads.

Every input is a pure function of the seed and the scale: the same seed gives
byte-identical files.  The program under test only ever sees the files
written here; the in-memory records returned alongside them feed the oracles
in ``oracle.py``.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SOURCES = ("WB", "OECD")
TABLES = {"WB": "wb_2015_indicators.csv", "OECD": "oecd_2015_indicators.csv"}
PANEL_COLUMNS = ("country", "year", "source", "gini", "top10", "bottom10")
FIRST_YEAR = 1921
PANEL_YEARS = 100
PANEL_COUNTRIES = 1000
BAD_SHARE = 0.01
# One injected bad row per diagnostic reason, in rotation; each keyword is a
# fragment of the reason `ineq` prints for that kind of row.
BAD_KINDS = (
    ("unparseable", "unparseable numeric"),
    ("range", "out of range"),
    ("ordering", "share ordering violated"),
    ("duplicate", "duplicate record"),
)

MICRO_N = 1_000_000
MICRO_LADDER = (1_000_000, 2_000_000, 4_000_000)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class PanelInput:
    """A generated panel file plus what the oracles need to know about it.

    ``valid`` holds one (country, year, source, gini, top10, bottom10) tuple
    per row that `ineq` must keep, with the numbers exactly as written.
    ``bad_lines`` maps the 1-based line number of every injected bad row to
    the reason keyword `ineq` must report for it.
    """

    path: Path
    digest: str
    rows_in: int
    countries: list[str]
    years: list[int]
    valid: list[tuple]
    bad_lines: dict[int, str]


@dataclass
class MicroInput:
    """A generated one-value-per-line file and its values in integer cents."""

    path: Path
    digest: str
    cents: np.ndarray

    @property
    def n(self) -> int:
        return int(self.cents.size)


def _bundled_rows(data_dir: Path, source: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    with open(data_dir / TABLES[source], newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    names = [r["country"] for r in rows]
    gini = np.array([float(r["gini"]) for r in rows])
    t_over_b = np.array([float(r["t_over_b"]) for r in rows])
    return names, gini, t_over_b


def make_panel(data_dir: Path, seed: int, scale: float, path: Path) -> PanelInput:
    """Write a countries x years x {WB, OECD} panel with ~1% injected bad rows.

    Each valid row resamples a bundled 2015 row of its source with jitter on
    the Gini and the T/B ratio; the top-10% share is drawn and the bottom-10%
    share follows from the ratio.  Country names reuse the bundled names
    (some contain commas, so the CSV quoting path is exercised) with a
    numeric suffix that makes them unique.
    """
    rng = np.random.default_rng([seed, 1])
    n_countries = max(8, round(PANEL_COUNTRIES * scale))
    years = list(range(FIRST_YEAR, FIRST_YEAR + PANEL_YEARS))
    tables = {s: _bundled_rows(data_dir, s) for s in SOURCES}
    all_names = tables["WB"][0] + tables["OECD"][0]
    picks = rng.integers(len(all_names), size=n_countries)
    countries = [f"{all_names[p]} {i:04d}" for i, p in enumerate(picks)]

    valid = []
    for source in SOURCES:
        _, gini_ref, tb_ref = tables[source]
        size = n_countries * len(years)
        idx = rng.integers(gini_ref.size, size=size)
        gini = np.clip(gini_ref[idx] * (1.0 + rng.normal(0.0, 0.03, size)), 0.15, 0.75)
        t_over_b = np.maximum(tb_ref[idx] * (1.0 + rng.normal(0.0, 0.05, size)), 1.5)
        top10 = rng.uniform(0.22, 0.45, size)
        for k, (g, t, tb) in enumerate(zip(gini.tolist(), top10.tolist(), t_over_b.tolist())):
            top_text = f"{t:.4f}"
            valid.append(
                (
                    countries[k // len(years)],
                    years[k % len(years)],
                    source,
                    f"{g:.4f}",
                    top_text,
                    f"{float(top_text) / tb:.5f}",
                )
            )

    n_bad = max(len(BAD_KINDS), round(BAD_SHARE * len(valid)))
    n_bad -= n_bad % len(BAD_KINDS)
    # Row order is a sort on random keys; a duplicate's key is drawn above
    # that of the row it copies, so the copy always comes later in the file.
    order_keys = rng.random(len(valid)).tolist()
    rows = list(valid)
    kinds = []
    for b in range(n_bad):
        kind = BAD_KINDS[b % len(BAD_KINDS)][0]
        target = int(rng.integers(len(valid)))
        country, year, source, gini_text, top_text, bottom_text = valid[target]
        key = float(rng.random())
        if kind == "unparseable":
            row = (country, year, source, "n/a", top_text, bottom_text)
        elif kind == "range":
            row = [
                (country, year, source, "1.2500", top_text, bottom_text),
                (country, year, source, gini_text, "1.5000", bottom_text),
                (country, year, source, gini_text, top_text, "-0.01000"),
            ][b % 3]
        elif kind == "ordering":
            row = (country, year, source, gini_text, "0.0500", "0.06000")
        else:
            row = (country, year, source, "0.5000", "0.3000", "0.01000")
            key = order_keys[target] + (1.0 - order_keys[target]) * key
        rows.append(row)
        kinds.append(kind)
        order_keys.append(key)

    order = np.argsort(np.array(order_keys), kind="stable")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(PANEL_COLUMNS)
    writer.writerows(rows[i] for i in order.tolist())
    path.write_text(out.getvalue(), encoding="utf-8")

    bad_lines = {}
    keywords = dict(BAD_KINDS)
    for line, i in enumerate(order.tolist(), start=2):
        if i >= len(valid):
            bad_lines[line] = keywords[kinds[i - len(valid)]]
    return PanelInput(
        path=path,
        digest=sha256_file(path),
        rows_in=len(rows),
        countries=countries,
        years=years,
        valid=valid,
        bad_lines=bad_lines,
    )


def micro_cents(seed: int, n: int) -> np.ndarray:
    """Strictly positive incomes in cents: a lognormal bulk with a Pareto top
    tail, rounded to cents so that ties occur.

    Zeros are left out on purpose: a zero sends Atkinson (eps = 1) and the
    mean log deviation to early exits, and those code paths would go
    unmeasured.
    """
    rng = np.random.default_rng([seed, 2, n])
    n_tail = n // 10
    bulk = rng.lognormal(mean=10.0, sigma=0.7, size=n - n_tail)
    # The tail starts near the bulk's 90th percentile.
    tail = np.exp(10.0 + 0.7 * 1.2816) * (1.0 + rng.pareto(2.0, size=n_tail))
    values = np.concatenate((bulk, tail))
    rng.shuffle(values)
    return np.maximum(np.rint(values * 100.0), 1).astype(np.int64)


def make_micro(seed: int, n: int, path: Path) -> MicroInput:
    cents = micro_cents(seed, n)
    path.write_text("\n".join(map("{:.2f}".format, (cents / 100.0).tolist())) + "\n")
    return MicroInput(path=path, digest=sha256_file(path), cents=cents)
