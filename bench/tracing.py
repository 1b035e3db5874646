"""In-process tracing of `ineqkit.cli.main` from outside the package.

The traced run replaces the names `ineqkit.cli` imports (and the few its
callees look up in their own modules) with wrappers that record one span per
call.  Nothing under ``src/`` is edited: the wrappers are installed with
``setattr`` for the duration of one traced invocation and removed after it.
A target that no longer exists (a later refactor renamed or deleted it) is
skipped and listed in ``Tracer.missing``; its metrics then read 0.
"""

from __future__ import annotations

import importlib
import math
import statistics
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, attribute path, span name).  The layer of a span is the text
# before its first dot.
TARGETS = (
    ("ineqkit.cli", "parse_panel", "panel.parse"),
    ("ineqkit.cli", "slice_panel", "panel.slice"),
    ("ineqkit.cli", "composite", "composite.composite"),
    ("ineqkit.ranking", "composite", "composite.composite"),
    ("ineqkit.cli", "calibrate_alpha", "composite.calibrate_alpha"),
    ("ineqkit.cli", "mean_alpha", "composite.mean_alpha"),
    ("ineqkit.cli", "rank", "ranking.rank"),
    ("ineqkit.cli", "compare_rankings", "ranking.compare"),
    ("ineqkit.cli", "series", "ranking.series"),
    ("ineqkit.micro", "IncomeSample.from_values", "micro.from_values"),
    ("ineqkit.micro", "QuantileShares.from_sample", "micro.shares"),
    ("ineqkit.micro", "lorenz_curve", "micro.lorenz"),
    ("ineqkit.micro", "LorenzCurve.value_at", "micro.value_at"),
    ("ineqkit.cli", "micro_gini", "micro.gini"),
    ("ineqkit.cli", "palma_ratio", "micro.palma"),
    ("ineqkit.cli", "atkinson", "welfare.atkinson"),
    ("ineqkit.cli", "ge_index", "welfare.ge"),
    ("ineqkit.cli", "theil", "welfare.theil"),
    ("ineqkit.cli", "ge_zero", "welfare.mld"),
)
MAIN = "cli.main"

# Per-layer metric -> span name whose durations it sums.
SPAN_SECONDS = {
    "panel.parse_s": "panel.parse",
    "panel.slice_s": "panel.slice",
    "ranking.rank_s": "ranking.rank",
    "ranking.compare_s": "ranking.compare",
    "ranking.series_s": "ranking.series",
    "micro.from_values_s": "micro.from_values",
    "micro.lorenz_s": "micro.lorenz",
    "micro.gini_s": "micro.gini",
    "micro.palma_s": "micro.palma",
    "welfare.atkinson_s": "welfare.atkinson",
    "welfare.ge_s": "welfare.ge",
    "welfare.theil_s": "welfare.theil",
    "welfare.mld_s": "welfare.mld",
}
SPAN_COUNTS = {
    "composite.calls": "composite.composite",
    "micro.lorenz_calls": "micro.lorenz",
}
ROW_COUNTERS = ("panel.rows_in", "panel.rows_skipped", "panel.rows_kept")


def _count_parse(tracer: "Tracer", result) -> None:
    panel, diagnostics = result
    tracer.add("panel.rows_in", len(panel.records) + len(diagnostics))
    tracer.add("panel.rows_skipped", len(diagnostics))


def _keep(tracer: "Tracer", rows) -> None:
    # Rows that survive every filter of the command: the --year/--source
    # slice and, for `series`, the country filter applied after it.
    tracer.counters[-1]["panel.rows_kept"] = len(rows)


COUNTERS = {
    "panel.parse": _count_parse,
    "panel.slice": lambda tracer, panel: _keep(tracer, panel.records),
    "ranking.series": _keep,
}


class Tracer:
    """Spans kept in memory as parallel arrays, one entry per call.

    Each span has a name, a start and an end (``perf_counter`` seconds), the
    index of the span that was open when it began (-1 for none) and the id of
    the invocation it belongs to.  Row counters are kept per invocation.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.invocation = array("l")
        self.labels: list[str] = []
        self.counters: list[dict[str, int]] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, counter: str, value: int) -> None:
        current = self.counters[-1]
        current[counter] = current.get(counter, 0) + value

    def wrap(self, name: str, fn):
        name_id = self._id(name)
        on_result = COUNTERS.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.invocation.append(len(self.labels) - 1)
            self.end.append(math.nan)
            stack.append(i)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    @contextmanager
    def installed(self, label: str):
        """Wrap every target for one invocation named ``label``."""
        self.labels.append(label)
        self.counters.append({})
        undo = []
        try:
            for module_name, path, span in TARGETS:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                raw = vars(owner).get(attr) if owner is not None else None
                if raw is None:
                    if span not in self.missing:
                        self.missing.append(span)
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(span, raw.__func__))
                else:
                    wrapped = self.wrap(span, raw)
                setattr(owner, attr, wrapped)
                undo.append((owner, attr, raw))
            yield
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int64),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "parent": np.array(self.parent, dtype=np.int64),
            "invocation": np.array(self.invocation, dtype=np.int64),
        }

    def save(self, path: Path) -> None:
        """Write every span, the span names and the invocation labels."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            labels=np.array(self.labels),
            **self.arrays(),
        )

    def invocation_metrics(self) -> list[dict[str, float]]:
        """Per-layer metrics of each traced invocation, in invocation order."""
        spans = self.arrays()
        n_inv = len(self.labels)
        n_names = len(self.names)
        duration = spans["end"] - spans["start"]
        inv = spans["invocation"]
        name = spans["name"]
        key = inv * n_names + name
        seconds = np.bincount(key, weights=duration, minlength=n_inv * n_names)
        seconds = seconds.reshape(n_inv, n_names)
        counts = np.bincount(key, minlength=n_inv * n_names).reshape(n_inv, n_names)

        layer = np.array([n.split(".")[0] for n in self.names])
        has_parent = spans["parent"] >= 0
        parent_name = np.where(has_parent, name[np.maximum(spans["parent"], 0)], -1)
        # A layer is busy for the spans not nested in a span of the same layer.
        outermost = ~has_parent | (layer[np.maximum(parent_name, 0)] != layer[name])
        main_id = self._ids.get(MAIN, -1)
        main_child = has_parent & (parent_name == main_id)

        def per_inv(mask) -> np.ndarray:
            return np.bincount(inv[mask], weights=duration[mask], minlength=n_inv)

        composite_busy = per_inv(outermost & (layer[name] == "composite"))
        children = per_inv(main_child)

        def col(span: str, table: np.ndarray) -> np.ndarray:
            j = self._ids.get(span)
            return table[:, j] if j is not None else np.zeros(n_inv)

        main_s = col(MAIN, seconds)
        result = []
        for k in range(n_inv):
            row = {
                "cli.main_s": float(main_s[k]),
                "cli.self_s": float(main_s[k] - children[k]),
                "composite.busy_s": float(composite_busy[k]),
            }
            for metric, span in SPAN_SECONDS.items():
                row[metric] = float(col(span, seconds)[k])
            for metric, span in SPAN_COUNTS.items():
                row[metric] = float(col(span, counts)[k])
            for counter in ROW_COUNTERS:
                row[counter] = float(self.counters[k].get(counter, 0))
            result.append(row)
        return result


def round_metrics(per_invocation: list[dict[str, float]], calls_per_round: int) -> dict:
    """Median over rounds of each metric's per-invocation mean in a round,
    plus ``panel.keep_ratio``, the share of rows read that were kept."""
    rounds = [
        per_invocation[i : i + calls_per_round]
        for i in range(0, len(per_invocation), calls_per_round)
    ]
    medians = {
        metric: statistics.median(statistics.fmean(inv[metric] for inv in r) for r in rounds)
        for metric in per_invocation[0]
    }
    rows_in = medians["panel.rows_in"]
    medians["panel.keep_ratio"] = medians["panel.rows_kept"] / rows_in if rows_in else 0.0
    return medians
