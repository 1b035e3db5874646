"""The example scripts run to completion on the bundled data."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["replicate_tables.py", "trend_dynamics.py"])
def test_script_exits_0(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout


def load_bench_pairs():
    """scripts/bench_pairs.py as a module."""
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_medians_and_wins(tmp_path, capsys, monkeypatch):
    """Each pair runs both checkouts, the first side alternating, on seed
    SEED + k, and its values are printed after that seed; the medians and
    quartiles of each side and the pairs the change wins are printed, a tie
    counting for neither side, for a "lower" and a "higher" metric alike.  So is the relative change of the medians
    beside the metric's bound, unresolved where the base's IQR, relative to
    its median, is wider than the bound; a metric with no bound gets no
    such line.  Each metric ends with its verdict."""
    bench_pairs = load_bench_pairs()
    base, change = tmp_path / "base", tmp_path / "change"
    base.mkdir()
    change.mkdir()
    spec = {
        "end_to_end": [
            {"name": "wall_s", "better": "lower", "bound": 0.25},
            {"name": "items_per_s", "better": "higher", "bound": 1.5},
            {"name": "peak_rss_mb", "better": "lower"},
        ]
    }
    (change / "BENCHMARK.json").write_text(json.dumps(spec))
    values = {  # by side, the values of pairs 0 to 3: a win, a tie, a loss, a win
        base: {"wall_s": [1.0, 2.0, 3.0, 4.0], "items_per_s": [10, 20, 30, 40], "peak_rss_mb": [5, 5, 5, 5]},
        change: {"wall_s": [0.5, 2.0, 3.5, 3.0], "items_per_s": [11, 20, 29, 41], "peak_rss_mb": [6, 6, 6, 6]},
    }
    calls = []

    def bench_run(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed, seconds))
        k = seed - 10
        metrics = {name: {"value": side[k]} for name, side in values[checkout].items()}
        return {"correct": True, "failed": k == 3, "attempted": 10, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "bench_run", bench_run)
    argv = [str(base), str(change), "--workload", "w", "--pairs", "4", "--seed", "10", "--seconds", "2"]
    assert bench_pairs.main(argv) == 0
    sides = [name for name, *_ in calls]
    assert sides == ["base", "change", "change", "base", "base", "change", "change", "base"]
    assert [seed for _, _, seed, _ in calls] == [10, 10, 11, 11, 12, 12, 13, 13]
    assert {(workload, seconds) for _, workload, _, seconds in calls} == {("w", 2.0)}
    assert capsys.readouterr().out.splitlines() == [
        "w base: correct=True failed=1 of 40",
        "w change: correct=True failed=1 of 40",
        "w wall_s pairs (base, change): seed 10 (1, 0.5), seed 11 (2, 2), seed 12 (3, 3.5), seed 13 (4, 3)",
        "w wall_s: base 2.5 [1.25, 3.75]  change 2.5 [0.875, 3.375]  change better in 2 of 4 pairs (lower is better)",
        "w wall_s: median change +0.0%, bound 25.0%, base IQR 100.0% of its median",
        "w wall_s: verdict unresolved",
        "w items_per_s pairs (base, change): seed 10 (10, 11), seed 11 (20, 20), seed 12 (30, 29), seed 13 (40, 41)",
        "w items_per_s: base 25 [12.5, 37.5]  change 24.5 [13.25, 38]  change better in 2 of 4 pairs"
        " (higher is better)",
        "w items_per_s: median change -2.0%, bound 150.0%, base IQR 100.0% of its median",
        "w items_per_s: verdict within bound",
        "w peak_rss_mb pairs (base, change): seed 10 (5, 6), seed 11 (5, 6), seed 12 (5, 6), seed 13 (5, 6)",
        "w peak_rss_mb: base 5 [5, 5]  change 6 [6, 6]  change better in 0 of 4 pairs (lower is better)",
        "w peak_rss_mb: verdict no gain",
    ]


def test_bench_pairs_one_pair(tmp_path, capsys, monkeypatch):
    """With one pair, each side's median and quartiles are its one value."""
    bench_pairs = load_bench_pairs()
    spec = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.1}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))

    def bench_run(checkout, workload, seed, seconds):
        return {"correct": True, "failed": 0, "attempted": 1, "metrics": {"wall_s": {"value": 0.75}}}

    monkeypatch.setattr(bench_pairs, "bench_run", bench_run)
    assert bench_pairs.main([str(tmp_path), str(tmp_path), "--workload", "w", "--pairs", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "w wall_s: base 0.75 [0.75, 0.75]  change 0.75 [0.75, 0.75]  change better in 0 of 1 pairs (lower is better)",
        "w wall_s: median change +0.0%, bound 10.0%, base IQR 0.0% of its median",
        "w wall_s: verdict within bound",
    ]


BASE_RUNS = [10.0, 10.2, 10.4, 10.6, 10.8, 11.0, 11.2, 11.4, 11.6, 11.8]  # median 10.9, IQR 1.1


@pytest.mark.parametrize(
    "change, direction, bound, expected",
    [
        # better in 10 of 10 pairs, by more than the base's IQR
        ([x - 1.2 for x in BASE_RUNS], "lower", 0.25, "gain"),
        ([x + 1.2 for x in BASE_RUNS], "higher", 0.25, "gain"),
        ([x - 1.2 for x in BASE_RUNS], "lower", None, "gain"),
        # 9 of 10 still a gain, 8 of 10 not
        ([x - 1.2 for x in BASE_RUNS[:9]] + [12.0], "lower", 0.25, "gain"),
        ([x - 1.2 for x in BASE_RUNS[:8]] + [12.0, 12.0], "lower", 0.25, "within bound"),
        # better in every pair, by less than the base's IQR; a tie is no win
        ([x - 1.0 for x in BASE_RUNS], "lower", 0.25, "within bound"),
        ([x - 1.2 for x in BASE_RUNS[:9]] + [BASE_RUNS[9]], "lower", None, "gain"),
        ([x - 1.2 for x in BASE_RUNS[:8]] + BASE_RUNS[8:], "lower", None, "no gain"),
        # the median worse by more than the bound, either way round
        ([x * 1.3 for x in BASE_RUNS], "lower", 0.25, "worse past bound"),
        ([x * 0.7 for x in BASE_RUNS], "higher", 0.25, "worse past bound"),
        ([x * 1.2 for x in BASE_RUNS], "lower", 0.25, "within bound"),
        # a base IQR wider than the bound
        ([x * 1.02 for x in BASE_RUNS], "lower", 0.05, "unresolved"),
        ([x - 0.5 for x in BASE_RUNS], "lower", 0.05, "unresolved"),
        # ... but every change run better than every base run
        ([9.9] * 10, "lower", 0.05, "within bound"),
        ([11.9] * 10, "higher", 0.05, "within bound"),
    ],
)
def test_bench_pairs_verdict(change, direction, bound, expected):
    """A gain is a win in at least 9 of 10 pairs by a median gap wider than
    the base's IQR; past that, a median worse by more than the bound, then
    a base IQR wider than the bound (unless every change run is better than
    every base run) decide the verdict."""
    assert load_bench_pairs().verdict(BASE_RUNS, change, direction, bound) == expected


def test_bench_pairs_runs_write_and_read_no_bytecode(tmp_path, monkeypatch):
    """Each run has PYTHONDONTWRITEBYTECODE=1 and the rest of the caller's
    environment, and a checkout whose src/ or bench/ holds bytecode is
    refused before anything runs: only one side would skip compiling."""
    bench_pairs = load_bench_pairs()
    (tmp_path / "src" / "ineqkit").mkdir(parents=True)
    (tmp_path / "bench").mkdir()
    monkeypatch.setenv("BENCH_PAIRS_PROBE", "kept")
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    calls = []

    def run(argv, **kwargs):
        calls.append((argv, kwargs))
        return subprocess.CompletedProcess(argv, 0, stdout='# a comment\n{"correct": true}\n', stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    assert bench_pairs.bench_run(tmp_path, "w", 7, 2.0) == {"correct": True}
    ((argv, kwargs),) = calls
    assert argv[1:] == ["bench/run.py", "--workload", "w", "--seed", "7", "--seconds", "2.0", "--trace", "0"]
    assert kwargs["cwd"] == tmp_path
    assert kwargs["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
    assert kwargs["env"]["BENCH_PAIRS_PROBE"] == "kept"
    for folder in ("src/ineqkit", "bench"):
        cached = tmp_path / folder / "__pycache__" / "panel.cpython-311.pyc"
        cached.parent.mkdir()
        cached.write_bytes(b"")
        with pytest.raises(SystemExit) as exc:
            bench_pairs.bench_run(tmp_path, "w", 7, 2.0)
        assert str(exc.value) == f"error: {cached}: remove the bytecode of {tmp_path} first"
        cached.unlink()
    assert len(calls) == 1
