"""Spans and counters around the public functions of each qcasim module.

The wrappers live in the benchmark, not in the program: `Tracer.install`
replaces a function at every module attribute that refers to it (the CLI
and sweeps import `kink_matrix`, `simulate_coherence`, `bistable_relax` and
the sweeps by name, so patching the defining module alone would miss
them), and `Tracer.uninstall` puts the originals back. Spans are kept in
memory and written out once, at the end of the run.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path


def _cells(args, result) -> float:
    return float(len(result.cells))


def _free_cells(args, result) -> float:
    layout = args[0]
    return float(sum(c.role not in ("input", "fixed") for c in layout.cells))


def _cell_steps(args, result) -> float:
    kink, n_steps = args[0], args[4]
    return float(n_steps) * kink.shape[0]


def _length(args, result) -> float:
    return float(len(result))


def _points(args, result) -> float:
    return float(len(result.rows))


# (module, function, span name, work counted from (args, result))
SPANNED = (
    ("qcasim.geometry", "parse_layout", "geometry.parse", _cells),
    ("qcasim.geometry", "builtin_layout", "geometry.parse", _cells),
    ("qcasim.electrostatics", "kink_matrix", "electrostatics.kink", _length),
    ("qcasim.engines", "simulate_coherence", "engines.simulate", None),
    ("qcasim.engines", "bistable_relax", "engines.bistable", _free_cells),
    ("qcasim.kernels", "coherence_euler", "kernels.euler", _cell_steps),
    ("qcasim.sweeps", "sweep_temperature", "sweeps.sweep", _points),
    ("qcasim.sweeps", "sweep_gap", "sweeps.sweep", _points),
    ("qcasim.sweeps", "emit_csv", "sweeps.emit", None),
)

# Called too often for a span each; only their calls are counted.
COUNTED = (
    ("qcasim.engines", "local_field", "engines.local_field"),
    ("qcasim.electrostatics", "kink_energy_pair", "electrostatics.pair_eval"),
)

OP_SPAN = "cli.run_cli"

LAYER_UNITS = {
    "kernels.euler_s": "s", "kernels.euler_calls": "count",
    "kernels.cell_steps": "count", "kernels.cell_steps_per_s": "1/s",
    "engines.simulate_self_s": "s", "engines.simulate_calls": "count",
    "engines.bistable_s": "s", "engines.bistable_calls": "count",
    "engines.local_field_calls": "count", "engines.bistable_sweeps": "count",
    "electrostatics.kink_s": "s", "electrostatics.kink_calls": "count",
    "electrostatics.pairs": "count", "electrostatics.pair_evals": "count",
    "geometry.parse_s": "s", "geometry.cells": "count",
    "geometry.overlap_pairs": "count",
    "sweeps.sweep_self_s": "s", "sweeps.points": "count", "sweeps.emit_s": "s",
    "cli.self_s": "s", "cli.out_bytes": "B",
    "op_wall_s.p50": "s", "trace_overhead_s": "s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for an op span
    op: int
    work: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = {}
        self._stack: list[int] = []
        self._op = -1
        self._patched: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0.0, 0.0, parent, self._op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def run_op(self, op: int, fn, *args):
        """Run fn(*args) as op number `op`, inside an op span."""
        self._op = op
        self.counts[op] = Counter()
        span = self._open(OP_SPAN)
        try:
            return span, fn(*args)
        finally:
            self._close(span)
            self._op = -1

    def _spanning(self, name: str, fn, work):
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if work is not None:
                span.work = work(args, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _counting(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[self._op][name] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for mod, attr, name, work in SPANNED:
            fn = getattr(sys.modules[mod], attr)
            wrappers[id(fn)] = (fn, self._spanning(name, fn, work))
        for mod, attr, name in COUNTED:
            fn = getattr(sys.modules[mod], attr)
            wrappers[id(fn)] = (fn, self._counting(name, fn))
        for name, module in list(sys.modules.items()):
            if name != "qcasim" and not name.startswith("qcasim."):
                continue
            for attr, value in list(vars(module).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        origin = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                record = asdict(s)
                record["start"] -= origin
                record["end"] -= origin
                handle.write(json.dumps(record) + "\n")


# --------------------------------------------------------------------------
# Per-layer metrics


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    selfs = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            selfs[s.parent] -= s.duration
    return selfs


def op_layer_metrics(spans: list, counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one op from its (span, self time) pairs and
    counters."""
    total = Counter()
    own = Counter()
    calls = Counter()
    work = Counter()
    overlap_pairs = 0.0
    for span, self_s in spans:
        total[span.name] += span.duration
        own[span.name] += self_s
        calls[span.name] += 1
        work[span.name] += span.work
        if span.name == "geometry.parse":
            overlap_pairs += span.work * (span.work - 1) / 2
    euler_s = total["kernels.euler"]
    free = work["engines.bistable"]
    return {
        "kernels.euler_s": euler_s,
        "kernels.euler_calls": calls["kernels.euler"],
        "kernels.cell_steps": work["kernels.euler"],
        "kernels.cell_steps_per_s": work["kernels.euler"] / euler_s if euler_s else 0.0,
        "engines.simulate_self_s": own["engines.simulate"],
        "engines.simulate_calls": calls["engines.simulate"],
        "engines.bistable_s": total["engines.bistable"],
        "engines.bistable_calls": calls["engines.bistable"],
        "engines.local_field_calls": counts["engines.local_field"],
        "engines.bistable_sweeps": counts["engines.local_field"] / free if free else 0.0,
        "electrostatics.kink_s": total["electrostatics.kink"],
        "electrostatics.kink_calls": calls["electrostatics.kink"],
        "electrostatics.pairs": work["electrostatics.kink"],
        "electrostatics.pair_evals": counts["electrostatics.pair_eval"],
        "geometry.parse_s": total["geometry.parse"],
        "geometry.cells": work["geometry.parse"],
        "geometry.overlap_pairs": overlap_pairs,
        "sweeps.sweep_self_s": own["sweeps.sweep"],
        "sweeps.points": work["sweeps.sweep"],
        "sweeps.emit_s": total["sweeps.emit"],
        "cli.self_s": own[OP_SPAN],
        "cli.out_bytes": work[OP_SPAN],
    }


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Median over traced ops of each per-op layer metric."""
    by_op: dict[int, list] = {}
    for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
        by_op.setdefault(span.op, []).append((span, self_s))
    per_op = [op_layer_metrics(spans, tracer.counts[op]) for op, spans in by_op.items()]
    return {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
