"""Seeded benchmark of the `ineq` CLI: end-to-end runs and a traced run.

Run from anywhere inside a checkout (the script works from the checkout that
holds it):

    python3 bench/run.py --workload panel-compute --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 12

Workloads, metrics and bounds are declared in BENCHMARK.json at the checkout
root.  ``--trace 0`` runs `ineq` as one closed-loop client, one subprocess at
a time, and reports the end-to-end metrics; ``--trace 1`` calls
``ineqkit.cli.main`` in process with spans around the names it imports and
reports the per-layer metrics.  ``--workload all`` runs every workload both
ways.  Every output is checked by ``oracle.py``; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A fuller record (environment, input digests, output digests, every timing
and every span) goes to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import oracle
from inputs import MICRO_LADDER, MICRO_N, SOURCES, make_micro, make_panel
from tracing import MAIN, Tracer, round_metrics

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".bench_work")
WORKLOADS = ("panel-compute", "panel-query", "micro-sample")
SETUPS = 3
IMPORT_REPEATS = 5
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import ineqkit.cli; "
    "print(repr(time.perf_counter() - t))"
)


@dataclass
class Call:
    """One `ineq` invocation of a workload round and the check of its output."""

    label: str
    argv: list[str]
    check: Callable[[str, str], list[str]]


@dataclass
class Setup:
    calls: list[Call]
    items: int
    digests: dict[str, str]


@dataclass
class Outcome:
    wall: float
    code: int
    rss_mb: float
    stdout: bytes
    stderr: bytes


@dataclass
class Tally:
    """Attempted and failed invocations; verified output digests per call."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    verified: dict[str, tuple[str, str]] = field(default_factory=dict)

    def record(self, call: Call, code: int, stdout: bytes, stderr: bytes) -> bool:
        """Count one invocation; True when its output is correct.

        The first correct output of a call is checked in full.  Later
        invocations of the same call must reproduce it byte for byte.
        """
        self.attempted += 1
        digests = (hashlib.sha256(stdout).hexdigest(), hashlib.sha256(stderr).hexdigest())
        known = self.verified.get(call.label)
        if code != 0:
            problems = [f"exit {code}: {stderr.decode(errors='replace')[-300:]}"]
        elif known is not None:
            problems = [] if known == digests else ["output differs from the verified output"]
        else:
            problems = call.check(stdout.decode(), stderr.decode())
            if not problems:
                self.verified[call.label] = digests
        if problems:
            self.failed += 1
            self.problems.extend(f"{call.label}: {p}" for p in problems[:5])
        return not problems


def set_up(workload: str, seed: int, scale: float, work: Path) -> Setup:
    """Generate the seeded inputs and the round of calls that reads them."""
    if workload == "micro-sample":
        micro = make_micro(seed, max(1000, round(MICRO_N * scale)), work / "micro.txt")
        call = Call(
            "micro",
            ["micro", "--input", str(micro.path)],
            lambda out, err: oracle.check_micro(micro, out, err),
        )
        return Setup([call], micro.n, {micro.path.name: micro.digest})

    panel = make_panel(ROOT / "data", seed, scale, work / "panel.csv")
    label = str(panel.path)

    def checked(check):
        return lambda out, err: check(out) + oracle.check_skipped(panel, label, err)

    if workload == "panel-compute":
        calls = [
            Call(
                "compute",
                ["compute", "--input", label],
                checked(lambda out: oracle.check_compute(panel, seed, out)),
            )
        ]
    else:
        rng = np.random.default_rng([seed, 4])
        year = panel.years[int(rng.integers(len(panel.years)))]
        source = SOURCES[int(rng.integers(len(SOURCES)))]
        country = panel.countries[int(rng.integers(len(panel.countries)))]
        where = ["--input", label, "--year", str(year), "--source", source]
        calls = [
            Call(
                "rank",
                ["rank", *where],
                checked(lambda out: oracle.check_rank(panel, year, source, out)),
            ),
            Call(
                "compare",
                ["compare", *where, "--summary-only"],
                checked(lambda out: oracle.check_compare(panel, year, source, out)),
            ),
            Call(
                "series",
                ["series", "--input", label, "--country", country],
                checked(lambda out: oracle.check_series(panel, country, out)),
            ),
            Call(
                "calibrate",
                ["calibrate", "--input", label, "--by-sample", "--year", str(year)],
                checked(lambda out: oracle.check_calibrate(panel, year, out)),
            ),
        ]
    return Setup(calls, panel.rows_in, {panel.path.name: panel.digest})


def child_env() -> dict[str, str]:
    src = str(ROOT / "src")
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + inherited if inherited else ""))


class Launcher:
    """The helper process that runs every `ineq` child (see launch.py)."""

    def __enter__(self) -> "Launcher":
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launch.py"))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=child_env(),
        )
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.proc.stdin.close()
        if exc_type is not None:
            self.proc.kill()
        self.proc.wait()

    def invoke(self, argv: list[str], work: Path) -> Outcome:
        """Run `python -m ineqkit argv` to completion; wall time and peak RSS."""
        out_path, err_path = work / "stdout", work / "stderr"
        request = {
            "argv": [sys.executable, "-m", "ineqkit", *argv],
            "stdout": str(out_path),
            "stderr": str(err_path),
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return Outcome(
            wall=reply["wall"],
            code=reply["code"],
            rss_mb=reply["maxrss_kb"] / 1024.0,
            stdout=out_path.read_bytes(),
            stderr=err_path.read_bytes(),
        )


def run_untraced(
    workload: str, seed: int, seconds: float, scale: float, work: Path, launcher: Launcher
) -> dict:
    """Alternate set-up and measurement SETUPS times.

    Each cycle regenerates the inputs and runs one warm-up invocation (one
    setup_s sample), then runs rounds for seconds / SETUPS; a round runs
    every call of the workload once.  Spreading the rounds over the whole
    run makes the medians less sensitive to slow phases of a shared machine.
    wall_s is the median over rounds of the mean invocation time in a round;
    peak_rss_mb is the median over rounds of the largest child RSS in it.
    """
    tally = Tally()
    setup_times, digests, walls, round_rss = [], [], [], []
    for _ in range(SETUPS):
        start = perf_counter()
        setup = set_up(workload, seed, scale, work)
        warm = launcher.invoke(setup.calls[0].argv, work)
        setup_times.append(perf_counter() - start)
        tally.record(setup.calls[0], warm.code, warm.stdout, warm.stderr)
        digests.append(setup.digests)

        start = perf_counter()
        while True:
            outcomes = [launcher.invoke(call.argv, work) for call in setup.calls]
            for call, res in zip(setup.calls, outcomes):
                tally.record(call, res.code, res.stdout, res.stderr)
            walls.append([res.wall for res in outcomes])
            round_rss.append(max(res.rss_mb for res in outcomes))
            if perf_counter() - start >= seconds / SETUPS:
                break
    if any(d != digests[0] for d in digests):
        tally.problems.append("the same seed generated different inputs")

    wall_s = statistics.median(statistics.fmean(w) for w in walls)
    return {
        "tally": tally,
        "inputs": digests[0],
        "metrics": {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall_s,
            "items_per_s": setup.items / wall_s,
            "peak_rss_mb": statistics.median(round_rss),
        },
        "detail": {
            "items": setup.items,
            "calls": [c.argv for c in setup.calls],
            "rounds": len(walls),
            "invocations": sum(len(w) for w in walls),
            "setup_s": setup_times,
            "wall_s": walls,
            "peak_rss_mb": round_rss,
        },
    }


def import_seconds() -> list[float]:
    """Import time of ineqkit.cli in fresh interpreters."""
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET],
            capture_output=True,
            text=True,
            env=child_env(),
            check=True,
        )
        times.append(float(done.stdout))
    return times


def import_cli():
    sys.path.insert(0, str(ROOT / "src"))
    import ineqkit.cli

    origin = Path(ineqkit.cli.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"error: ineqkit imported from {origin}, not from this checkout")
    return ineqkit.cli


def in_process(main, call: Call, work: Path) -> tuple[float, int, bytes, bytes]:
    """Call ``main`` on a call's argv with stdout sent to a file."""
    out_path = work / "stdout"
    captured = io.StringIO()
    with contextlib.redirect_stderr(captured):
        start = perf_counter()
        code = main([*call.argv, "--output", str(out_path)])
        wall = perf_counter() - start
    return wall, code, out_path.read_bytes(), captured.getvalue().encode()


def largest_ok_micro(
    seed: int, scale: float, work: Path, launcher: Launcher
) -> tuple[int, list[dict]]:
    """Run `ineq micro` up a fixed ladder of sample sizes; stop at the first
    size whose run fails or prints a wrong answer."""
    largest, rungs = 0, []
    path = work / "ladder.txt"
    for size in MICRO_LADDER:
        n = max(1000, round(size * scale))
        try:
            micro = make_micro(seed, n, path)
            res = launcher.invoke(["micro", "--input", str(path)], work)
        finally:
            path.unlink(missing_ok=True)
        if res.code == 0:
            problems = oracle.check_micro(micro, res.stdout.decode(), res.stderr.decode())
        else:
            tail = res.stderr.decode(errors="replace").strip().splitlines()[-1:]
            problems = [f"exit {res.code}: {' '.join(tail)}"]
        rungs.append({"n": n, "exit": res.code, "wall_s": res.wall, "problems": problems})
        if problems:
            break
        largest = n
    return largest, rungs


def run_traced(
    workload: str, seed: int, seconds: float, scale: float, work: Path, launcher: Launcher
) -> dict:
    tally = Tally()
    setup = set_up(workload, seed, scale, work)
    for call in setup.calls:
        warm = launcher.invoke(call.argv, work)
        tally.record(call, warm.code, warm.stdout, warm.stderr)
    imports = import_seconds()
    cli = import_cli()

    # One untimed in-process call each first: the first call in a process
    # pays one-off costs (memory arenas, lazy imports).  Then each call runs
    # untraced, then traced; the overhead is the median of the differences
    # within these pairs, which cancels slow drift.
    for call in setup.calls:
        _, code, out, err = in_process(cli.main, call, work)
        tally.record(call, code, out, err)
    tracer = Tracer()
    pairs = []
    start = perf_counter()
    while True:
        for call in setup.calls:
            plain, code, out, err = in_process(cli.main, call, work)
            tally.record(call, code, out, err)
            with tracer.installed(call.label):
                traced, code, out, err = in_process(tracer.wrap(MAIN, cli.main), call, work)
            tally.record(call, code, out, err)
            pairs.append((plain, traced))
        if perf_counter() - start >= seconds:
            break

    per_invocation = tracer.invocation_metrics()
    metrics = round_metrics(per_invocation, len(setup.calls))
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["trace.overhead_s"] = statistics.median(traced - plain for plain, traced in pairs)
    rungs = []
    metrics["micro.largest_ok_n"] = 0
    if workload == "micro-sample":
        metrics["micro.largest_ok_n"], rungs = largest_ok_micro(seed, scale, work, launcher)
    tracer.save(work / "spans.npz")
    return {
        "tally": tally,
        "inputs": setup.digests,
        "metrics": metrics,
        "detail": {
            "items": setup.items,
            "calls": [c.argv for c in setup.calls],
            "import_s": imports,
            "untraced_traced_main_s": pairs,
            "unwrapped_targets": tracer.missing,
            "ladder": rungs,
            "spans": str(work / "spans.npz"),
        },
    }


def environment(seed: int) -> dict:
    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = done.stdout.strip() if done.returncode == 0 else None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def run_one(spec: dict, workload: str, seed: int, seconds: float, trace: int, scale: float):
    """Run one workload one way; print its metrics; return the result line."""
    work = WORK / workload
    work.mkdir(parents=True, exist_ok=True)
    runner = run_traced if trace else run_untraced
    with Launcher() as launcher:
        result = runner(workload, seed, seconds, scale, work, launcher)
    tally: Tally = result["tally"]
    section = "per_layer" if trace else "end_to_end"
    metrics = {
        m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
        for m in spec[section]
    }
    correct = tally.failed == 0 and not tally.problems
    error_rate = tally.failed / tally.attempted

    detail = result["detail"]
    env = environment(seed)
    print(f"# {workload} seed={seed} trace={trace} items={detail['items']}")
    print(f"#   environment {json.dumps(env)}")
    for name, digest in result["inputs"].items():
        print(f"#   input {name} sha256={digest}")
    for label, (out_digest, _) in sorted(tally.verified.items()):
        print(f"#   {label} stdout sha256={out_digest}")
    if not trace:
        print(f"#   wall_s over {detail['rounds']} rounds, {detail['invocations']} invocations")
    for name, entry in metrics.items():
        print(f"{workload:14s} {name:22s} {entry['value']:16.6f} {entry['unit']}")
    print(f"{workload:14s} {'error_rate':22s} {error_rate:16.6f} ratio")
    for problem in tally.problems[:20]:
        print(f"#   problem: {problem}")

    record = {
        "workload": workload,
        "trace": trace,
        "scale": scale,
        "environment": env,
        "inputs": result["inputs"],
        "stdout_sha256": {k: v[0] for k, v in tally.verified.items()},
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": error_rate,
        "problems": tally.problems,
        "metrics": metrics,
        "detail": detail,
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    with open(results / f"{workload}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return {"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=(*WORKLOADS, "all"),
        help="one workload, or all of them both untraced and traced (--trace is ignored)",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="shrink every input by this factor (smoke tests)"
    )
    args = parser.parse_args(argv)

    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "ineqkit" / "cli.py", ROOT / "data"]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if absent:
        print(f"error: not a complete checkout, missing {', '.join(absent)}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    spec = json.loads(Path("BENCHMARK.json").read_text())

    if args.workload != "all":
        line = run_one(spec, args.workload, args.seed, args.seconds, args.trace, args.scale)
    else:
        lines = {
            (w, t): run_one(spec, w, args.seed, args.seconds, t, args.scale)
            for w in WORKLOADS
            for t in (0, 1)
        }
        line = {
            "correct": all(r["correct"] for r in lines.values()),
            "attempted": sum(r["attempted"] for r in lines.values()),
            "failed": sum(r["failed"] for r in lines.values()),
            "metrics": {
                f"{w}/{name}": entry
                for (w, _), r in lines.items()
                for name, entry in r["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
