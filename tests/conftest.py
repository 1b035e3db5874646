"""Shared fixtures: bundled reference tables and panels built from them."""

import csv
import os
from pathlib import Path

import pytest

from ineqkit import Panel, CountryYearRecord, Source

DATA_DIR = Path(__file__).resolve().parents[1] / "data"

WB_TABLE = DATA_DIR / "wb_2015_indicators.csv"
OECD_TABLE = DATA_DIR / "oecd_2015_indicators.csv"
DYNAMICS_PANEL = DATA_DIR / "dynamics_panel.csv"


def load_table(path):
    """Reference table rows with numeric fields converted."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            rows.append(
                {
                    "rank": int(row["rank"]),
                    "country": row["country"],
                    "gini": float(row["gini"]),
                    "index_i": float(row["index_i"]),
                    "t_over_b": float(row["t_over_b"]),
                    "h": float(row["h"]),
                }
            )
    return rows


def table_panel(rows, year, source):
    """Panel whose share ratio reproduces each row's printed T/B exactly.

    The reference tables publish the ratio, not the underlying shares, so a
    synthetic bottom share of 0.01 pins top10 = t_over_b / 100.
    """
    records = tuple(
        CountryYearRecord(
            country=r["country"],
            year=year,
            gini=r["gini"],
            top10=r["t_over_b"] / 100.0,
            bottom10=0.01,
            source=source,
        )
        for r in rows
    )
    return Panel(records, label=f"{source.value}-{year}")


@pytest.fixture(scope="session")
def wb_rows():
    return load_table(WB_TABLE)


@pytest.fixture(scope="session")
def oecd_rows():
    return load_table(OECD_TABLE)


@pytest.fixture(scope="session")
def wb_panel(wb_rows):
    return table_panel(wb_rows, 2015, Source.WB)


@pytest.fixture(scope="session")
def oecd_panel(oecd_rows):
    return table_panel(oecd_rows, 2015, Source.OECD)


@pytest.fixture(scope="session")
def dynamics_text():
    return DYNAMICS_PANEL.read_text(encoding="utf-8")


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process unreaped, running or not (a
    split panel parse forks one per part), as a leaked ResourceWarning fails
    the test that leaks a file."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"child process {pid} left unreaped" if pid else "a child process left running")
