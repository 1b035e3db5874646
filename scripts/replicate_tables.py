#!/usr/bin/env python3
"""Recompute the bundled 2015 reference tables and report the deviations.

For each table: per-row H and composite-index deviations against the
published values, the gini-vs-index rank-change counts, and the calibrated
tail exponent from the column averages.  Exits non-zero if any table misses
its tolerance.
"""

import argparse
import csv
import sys
from pathlib import Path

from ineqkit import mean_alpha, replicate_table

DATA_DIR = Path(__file__).resolve().parents[1] / "data"

TABLES = [
    ("World Bank 2015 (75 countries)", DATA_DIR / "wb_2015_indicators.csv", 0.001),
    ("OECD 2015 (35 countries)", DATA_DIR / "oecd_2015_indicators.csv", 0.003),
]


def load(path):
    """The (country, gini, t_over_b, h, index_i) rows of a table, in file order."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [
            (r["country"], float(r["gini"]), float(r["t_over_b"]), float(r["h"]), float(r["index_i"]))
            for r in csv.DictReader(fh)
        ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--weight", type=float, default=0.25)
    args = parser.parse_args()

    failed = False
    alphas = []
    for label, path, tol in TABLES:
        rows = load(path)
        table = replicate_table(rows, args.weight)
        (worst_h, _), (worst_i, worst_country) = table.worst_h, table.worst_i
        cmp = table.rank_changes()
        alpha = table.alpha()
        alphas.append(alpha)

        ok = worst_h <= tol and worst_i <= tol
        failed = failed or not ok
        print(label)
        print(f"  rows: {len(rows)}  tolerance: {tol}")
        print(f"  max |dH| = {worst_h:.6f}   max |dI| = {worst_i:.6f} ({worst_country})")
        print(f"  rank changes gini vs index: changed={cmp.changed} unchanged={cmp.unchanged}")
        print(f"  calibrated alpha from column averages: {alpha:.6f}")
        print(f"  status: {'OK' if ok else 'TOLERANCE EXCEEDED'}")
        print()

    print(f"mean of the two calibrated exponents: {mean_alpha(alphas):.6f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
