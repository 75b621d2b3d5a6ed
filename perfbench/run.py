"""qcasim benchmark: time CLI ops end to end, or trace them layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

An op is one CLI command run in-process through `qcasim.cli.run_cli`,
timed from outside. Ops run back to back (a closed loop with one client)
for about S seconds, at least MIN_OPS of them. A fixed pure-Python
reference loop is timed just before and after every untraced op; the
end-to-end op times are wall times scaled by REF_S over the loop's time,
so that drift of a shared machine's speed (the same op's wall time moved
by up to 1.7x between minutes on a 2-vCPU VM) cancels out.

Every op is checked: exit code 0, empty stderr, the same bytes as the
run's first op, finite data rows with |P| <= 1, the workload's physics
invariant, and, for the default seed, the golden values in
perfbench/golden/.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run (see tracing.py and README.md). The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Generated
inputs and the spans of a traced run go to .perfbench_out/ in the
checkout. The program is imported from src/ of the checkout holding this
file; without it the benchmark exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads
from tracing import LAYER_UNITS, Tracer, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
GOLDEN_DIR = BENCH_DIR / "golden"
DEFAULT_SEED = 1
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
MIN_OPS = 4
REF_ITERATIONS = 150_000
# Median time of reference_loop() where the benchmark was defined (2-vCPU
# Xeon VM, Python 3.11.7). It only sets the scale of the normalized times.
REF_S = 0.023


def import_program():
    """Import qcasim from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import qcasim
        import qcasim.cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import qcasim from {src}: {exc}") from None
    if Path(qcasim.__file__).resolve().parent != src / "qcasim":
        raise SystemExit(f"error: qcasim was imported from {qcasim.__file__}, not {src}")
    return qcasim


def setup(workload: workloads.Workload, seed: int, run_cli) -> workloads.Inputs:
    """Generate the inputs and make the warm-up call."""
    workdir = OUT_DIR / f"{workload.name}-seed{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = workload.build(seed, workdir)
    if run_cli(list(workloads.WARMUP_ARGV), stdout=io.StringIO(), stderr=io.StringIO()) != 0:
        raise SystemExit("error: warm-up call failed")
    return inputs


def time_setup(workload: workloads.Workload, seed: int) -> float:
    """Wall time of a fresh interpreter that imports qcasim, generates the
    inputs and makes the warm-up call."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
           "--seed", str(seed), "--setup-only"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=SETUP_TIMEOUT_S, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up failed: {proc.stderr.strip()}")
    return elapsed


def input_digest(inputs: workloads.Inputs) -> str:
    """sha256 of the argv (file paths by name) and the generated files."""
    digest = hashlib.sha256()
    names = {str(p): p.name for p in inputs.files}
    digest.update("\0".join(names.get(a, a) for a in inputs.argv).encode())
    for path in inputs.files:
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Verifier:
    """Checks each op's result; content checks run once, on the first
    output, and later ops must reproduce its bytes."""

    def __init__(self, workload: workloads.Workload, inputs: workloads.Inputs, seed: int):
        self.workload = workload
        self.inputs = inputs
        self.seed = seed
        self.reference = None
        self.content_errors: list[str] = []
        self.work = 0.0

    def _content(self, text: str) -> list[str]:
        try:
            table = checks.parse_table(text)
            errors = self.workload.invariant(table, self.inputs)
            self.work = self.workload.work(self.inputs, table)
            if self.seed == DEFAULT_SEED:
                golden = checks.load_golden(GOLDEN_DIR / f"{self.workload.name}.csv.gz")
                errors += checks.compare_golden(table, golden)
        except (checks.CheckError, OSError) as exc:
            return [str(exc)]
        return errors

    def check(self, code: int, out: str, err: str) -> list[str]:
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if err:
            problems.append(f"stderr: {err.strip()[:200]}")
        if self.reference is None:
            self.reference = out
            self.content_errors = self._content(out)
        elif out != self.reference:
            problems.append("output bytes differ from the first op's")
        return problems + self.content_errors


def call_cli(run_cli, argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        code = run_cli(list(argv), stdout=out, stderr=err)
    except Exception as exc:  # an op that raises counts as failed, the run goes on
        code = -1
        err.write(f"{type(exc).__name__}: {exc}")
    return code, out.getvalue(), err.getvalue()


def reference_loop() -> float:
    """Wall time of a fixed loop of float arithmetic and list and dict
    access, the interpreter work of the program's hot loops; timed around
    each op, it gauges the machine's current speed."""
    start = time.perf_counter()
    xs = [0.5 * i for i in range(64)]
    seen = {}
    acc = 0.0
    for k in range(REF_ITERATIONS):
        i = k & 63
        acc += xs[i] * 1.0000001 - acc * 1e-9
        seen[i] = acc
    return time.perf_counter() - start


@dataclass
class Ops:
    wall: list = field(default_factory=list)     # untraced op wall times
    norm: list = field(default_factory=list)     # the same, scaled to REF_S
    traced: list = field(default_factory=list)   # traced op wall times
    failed: int = 0
    messages: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.wall) + len(self.traced)


def run_ops(seconds: float, run_cli, argv, verifier: Verifier, tracer: Tracer | None) -> Ops:
    """Run ops until the next one would end after `seconds` (at least
    MIN_OPS). With a tracer, odd-numbered ops are traced and even ones not."""
    ops = Ops()
    steps = []
    start = time.perf_counter()
    while ops.attempted < MIN_OPS or (time.perf_counter() - start
                                      + statistics.median(steps) <= seconds):
        step_start = time.perf_counter()
        k = ops.attempted
        if tracer is not None and k % 2:
            tracer.install()
            try:
                span, (code, out, err) = tracer.run_op(k, call_cli, run_cli, argv)
            finally:
                tracer.uninstall()
            span.work = float(len(out.encode()))
            ops.traced.append(span.duration)
        else:
            before = reference_loop()
            t0 = time.perf_counter()
            code, out, err = call_cli(run_cli, argv)
            elapsed = time.perf_counter() - t0
            ref = (before + reference_loop()) / 2
            ops.wall.append(elapsed)
            ops.norm.append(elapsed * REF_S / ref)
        problems = verifier.check(code, out, err)
        if problems:
            ops.failed += 1
            ops.messages.append(f"op {k}: {'; '.join(problems)}")
        steps.append(time.perf_counter() - step_start)
    return ops


def environment(qcasim, workload, seed, inputs) -> dict:
    import numpy
    from qcasim import kernels
    return {
        "workload": workload.name,
        "seed": seed,
        "numba_enabled": kernels.NUMBA_ENABLED,
        "execution_path": "numba" if kernels.NUMBA_ENABLED else "pure-python",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "qcasim": qcasim.__version__,
        "inputs_sha256": input_digest(inputs),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qcasim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only set up (used to time set-up in a fresh interpreter)")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    qcasim = import_program()
    inputs = setup(workload, args.seed, qcasim.cli.run_cli)
    if args.setup_only:
        return 0
    env = environment(qcasim, workload, args.seed, inputs)
    print("# env " + json.dumps(env, sort_keys=True))

    verifier = Verifier(workload, inputs, args.seed)
    if args.trace:
        tracer = Tracer()
        ops = run_ops(args.seconds, qcasim.cli.run_cli, inputs.argv, verifier, tracer)
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"# spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        values = layer_metrics(tracer)
        values["op_wall_s.p50"] = statistics.median(ops.wall)
        values["trace_overhead_s"] = statistics.median(ops.traced) - values["op_wall_s.p50"]
        metrics = {name: metric(v, LAYER_UNITS[name]) for name, v in values.items()}
    else:
        setup_s = statistics.median(time_setup(workload, args.seed)
                                    for _ in range(SETUP_REPEATS))
        ops = run_ops(args.seconds, qcasim.cli.run_cli, inputs.argv, verifier, None)
        op_norm = statistics.median(ops.norm)
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "op_norm_s.p50": metric(op_norm, "s"),
            "throughput_norm": metric(verifier.work / op_norm, "items/s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "success_ratio": metric((ops.attempted - ops.failed) / ops.attempted, "ratio"),
        }
        print(f"# {ops.attempted} ops; wall time p50 {statistics.median(ops.wall):.4f} s; "
              f"throughput item: {workload.item}, {verifier.work:g} per op")
    print("# op wall times (s): untraced " + " ".join(f"{t:.3f}" for t in ops.wall)
          + "; traced " + " ".join(f"{t:.3f}" for t in ops.traced))
    for line in ops.messages:
        print(f"# FAILED {line}")
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
