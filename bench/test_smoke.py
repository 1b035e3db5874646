"""Smoke test of the benchmark at tiny input sizes.

    python3 -m pytest -q bench/test_smoke.py

Runs every workload untraced and traced at 1% scale, checks the result line
against BENCHMARK.json, and checks that the oracles reject wrong output.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
from inputs import make_micro, make_panel

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path("bench") / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_is_correct_and_complete(workload, trace):
    done = bench(
        "--workload", workload, "--seed", "5", "--seconds", "1",
        "--trace", str(trace), "--scale", "0.01",
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in section]
    for m in section:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
    if trace and workload == "micro-sample":
        assert line["metrics"]["micro.lorenz_calls"]["value"] == 4


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(
        "--workload", "micro-sample", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_same_seed_same_inputs(tmp_path):
    a = make_panel(ROOT / "data", 9, 0.01, tmp_path / "a.csv")
    b = make_panel(ROOT / "data", 9, 0.01, tmp_path / "b.csv")
    c = make_panel(ROOT / "data", 10, 0.01, tmp_path / "c.csv")
    assert a.digest == b.digest != c.digest
    reasons = set(a.bad_lines.values())
    assert reasons == {"unparseable numeric", "out of range", "share ordering violated", "duplicate record"}
    assert make_micro(9, 5000, tmp_path / "m1").digest == make_micro(9, 5000, tmp_path / "m2").digest


def test_oracles_reject_wrong_output(tmp_path):
    panel = make_panel(ROOT / "data", 9, 0.01, tmp_path / "p.csv")
    first = sorted(panel.valid, key=lambda r: r[:3])[0]
    rows = ["country,year,gini,t_over_b,h,index_i,alt_index"]
    for country, year, _, gini, top10, bottom10 in sorted(panel.valid, key=lambda r: r[:3]):
        g, t, b = float(gini), float(top10), float(bottom10)
        h, index_i, alt = oracle.composite_values(g, t, b)
        rows.append(f"{country},{year},{g:.6f},{t / b:.6f},{h:.6f},{index_i:.6f},{alt:.6f}")
    good = "\n".join(rows) + "\n"
    assert oracle.check_compute(panel, 1, good) == []
    assert oracle.check_compute(panel, 1, "\n".join(rows[:-1]) + "\n")
    assert oracle.check_compute(panel, 1, good.replace(f"{first[0]},", "X,", 1))
    assert oracle.check_skipped(panel, "p", "")
    assert oracle.competition_ranks([0.3, 0.1, 0.3, 0.2]) == [3, 1, 3, 2]

    micro = make_micro(9, 2000, tmp_path / "m.txt")
    exp = oracle.micro_expected(micro.cents)
    text = f"metric,value\nn,{exp['n']}\nmean,{exp['mean']:.6f}\ngini,{exp['gini']:.6f}\n"
    text += f"theil,{exp['theil']:.6f}\nmld,{exp['mld']:.6f}\n"
    assert oracle.check_micro(micro, text) == []
    assert oracle.check_micro(micro, text.replace(f"gini,{exp['gini']:.6f}", "gini,0.1"))
