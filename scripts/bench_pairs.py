#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts.

Runs ``bench/run.py --trace 0`` in checkout A and in checkout B, one run of
each per pair, with the side that runs first alternating from pair to pair
and pair k on seed SEED + k.  For each workload and end-to-end metric it
prints every pair's values after its seed, so that a pair can be run
again on its own, each side's median and quartiles, and the pairs
B wins, by the metric's "better" in B's BENCHMARK.json (ties count for
neither).  It then prints the change of B's median from A's, relative to
A's, next to the metric's "bound", and a verdict line:

- "gain" where B wins at least 9 of 10 pairs and its median is better than
  A's by more than A's interquartile range;
- "worse past bound" where B's median is worse than A's by more than the
  bound;
- "unresolved" where A's interquartile range, relative to its median, is
  wider than the bound (such runs are too spread to tell a change of that
  size), unless every run of B is better than every run of A;
- "within bound" otherwise, and "no gain" for a metric with no bound.

It changes nothing in either checkout but what bench/run.py writes there.

Every run has PYTHONDONTWRITEBYTECODE=1, so each side compiles its own
source in every run, and a checkout whose src/ or bench/ already holds
bytecode is refused: the side that read it would skip that compile and
read faster and smaller than the other.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload panel-compute --pairs 10 --seed 1001
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def bench_run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line (the last line of stdout) of one untraced run, which
    writes no bytecode."""
    for folder in ("src", "bench"):
        if cached := next((checkout / folder).rglob("*.pyc"), None):
            raise SystemExit(f"error: {cached}: remove the bytecode of {checkout} first")
    argv = ["bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, *argv], cwd=checkout, capture_output=True, text=True, env=env)
    if done.returncode:
        raise SystemExit(f"error: {checkout}: bench/run.py exited {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The median, first and third quartile of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(a: list[float], b: list[float], direction: str, bound: float | None) -> str:
    """The verdict on the runs ``b`` of the change against the runs ``a`` of
    the base, pair by pair, for a metric whose ``direction`` is better."""
    sign = 1 if direction == "higher" else -1
    (ma, qa1, qa3), (mb, _, _) = quartiles(a), quartiles(b)
    wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    if 10 * wins >= 9 * len(a) and sign * (mb - ma) > qa3 - qa1:
        return "gain"
    if bound is None:
        return "no gain"
    if ma and -sign * (mb - ma) / abs(ma) > bound:
        return "worse past bound"
    every_run_better = min(b) > max(a) if sign > 0 else max(b) < min(a)
    if ma and (qa3 - qa1) / abs(ma) > bound and not every_run_better:
        return "unresolved"
    return "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout A, such as the parent commit")
    parser.add_argument("change", type=Path, help="checkout B, such as the change")
    parser.add_argument("--workload", action="append", required=True, help="repeat for more workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of pair 0; pair k runs seed + k")
    parser.add_argument("--seconds", type=float, default=12.0)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if "bound" in m}

    for workload in args.workload:
        runs: dict[str, list[dict]] = {"base": [], "change": []}
        for k in range(args.pairs):
            for side in ("base", "change") if k % 2 == 0 else ("change", "base"):
                runs[side].append(bench_run(getattr(args, side), workload, args.seed + k, args.seconds))
                print(f"# {workload} pair {k} seed {args.seed + k} {side} done", file=sys.stderr, flush=True)
        for side, lines in runs.items():
            failed = sum(line["failed"] for line in lines)
            attempted = sum(line["attempted"] for line in lines)
            correct = all(line["correct"] for line in lines)
            print(f"{workload} {side}: correct={correct} failed={failed} of {attempted}")
        for name, direction in better.items():
            a = [line["metrics"][name]["value"] for line in runs["base"]]
            b = [line["metrics"][name]["value"] for line in runs["change"]]
            wins = sum((y < x) if direction == "lower" else (y > x) for x, y in zip(a, b))
            pairs = (f"seed {args.seed + k} ({x:.4g}, {y:.4g})" for k, (x, y) in enumerate(zip(a, b)))
            print(f"{workload} {name} pairs (base, change): " + ", ".join(pairs))
            (ma, qa1, qa3), (mb, qb1, qb3) = quartiles(a), quartiles(b)
            print(
                f"{workload} {name}: base {ma:.4g} [{qa1:.4g}, {qa3:.4g}]  change {mb:.4g} [{qb1:.4g}, {qb3:.4g}]"
                f"  change better in {wins} of {len(a)} pairs ({direction} is better)"
            )
            if name in bounds and ma:
                print(
                    f"{workload} {name}: median change {(mb - ma) / abs(ma):+.1%}, bound {bounds[name]:.1%},"
                    f" base IQR {(qa3 - qa1) / abs(ma):.1%} of its median"
                )
            print(f"{workload} {name}: verdict {verdict(a, b, direction, bounds.get(name))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
