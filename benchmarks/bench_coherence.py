"""Benchmark the coherence kernels: steps/s by kernel and batch size.

Runs the three-cell inverter through each kernel at B=1 (T = 1 K) and at
B=15 (the table-1 temperature grid, 0-30 K):

* loop: the uncompiled single-point loop kernel, once per point (the
  reference);
* numpy: the vectorised batched kernel, the default when numba is absent
  (a batch as small as B=1 here runs the loop kernel instead);
* compiled: the numba-compiled loop kernel once per point, the default when
  numba is enabled (skipped, with the reason, otherwise).

Reports the best wall time of the repeats and point-steps/s (B x Euler
steps per second), and checks that every kernel's finals and recordings are
bit-identical to the loop kernel's.

Usage:
    python benchmarks/bench_coherence.py [--total-time 1e-12] [--repeats 3]
"""

import argparse
import time

import numpy as np

from qcasim import kernels
from qcasim.constants import PhysicalConstants
from qcasim.electrostatics import kink_matrix
from qcasim.engines import CoherenceParams, dense_kink
from qcasim.geometry import builtin_layout
from qcasim.sweeps import TABLE1_TEMPERATURES


def build_problem(total_time, temperatures, stride=1000):
    """A function returning fresh batched kernel arguments for each call."""
    constants = PhysicalConstants.paper()
    params = CoherenceParams(total_time=total_time)
    layout = builtin_layout("inv3")
    ids = [c.id for c in layout.cells]
    dense = dense_kink(kink_matrix(layout, params.radius_of_effect, constants), ids)
    batch = len(temperatures)
    zones = np.array([c.clock_zone for c in layout.cells], dtype=np.int64)
    driven = np.array([c.role == "fixed" for c in layout.cells])
    drive_values = np.array([c.fixed_polarization or 0.0 for c in layout.cells])
    n_steps = params.n_steps
    n_rec = n_steps // stride + 1

    def args():
        return (np.stack([dense] * batch), zones, driven,
                np.stack([drive_values] * batch), n_steps, params.time_step,
                params.total_time, float(params.clock_periods),
                params.clock_shift, params.clock_amplitude, params.clock_low,
                params.clock_high, params.relaxation_time,
                np.array(temperatures, dtype=float), constants.boltzmann_k,
                constants.hbar, stride, np.zeros(n_rec), np.zeros((n_rec, 4)),
                np.zeros((batch, n_rec, len(ids))))
    return n_steps, args


def run_once(kernel, args):
    call = args()
    start = time.perf_counter()
    final, ok, _ = kernel(*call)
    elapsed = time.perf_counter() - start
    assert ok.all(), "integration went unstable"
    return elapsed, (final,) + call[-3:]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--total-time", type=float, default=1e-12,
                        help="simulated time in s (default: 1e-12, 10000 steps)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repetitions per kernel (default: 3)")
    args = parser.parse_args()

    kernel_rows = [("loop", kernels.coherence_euler_loop),
                   ("numpy", kernels.coherence_euler_numpy)]
    if kernels.NUMBA_ENABLED:
        kernel_rows.append(("compiled", kernels.coherence_euler))

    problems = {1: build_problem(args.total_time, [1.0]),
                15: build_problem(args.total_time, TABLE1_TEMPERATURES)}
    n_steps = problems[1][0]
    print(f"three-cell inverter, {n_steps} Euler steps per point, "
          f"numba enabled: {kernels.NUMBA_ENABLED}")
    print(f"{'kernel':>8} {'B':>3} {'best ms':>10} {'point-steps/s':>14}  "
          "bit-identical to loop")
    if kernels.NUMBA_ENABLED:
        run_once(kernels.coherence_euler, problems[1][1])  # warm up the JIT

    for batch, (_, problem) in problems.items():
        reference = None
        for label, kernel in kernel_rows:
            times, outputs = zip(*(run_once(kernel, problem)
                                   for _ in range(args.repeats)))
            best = min(times)
            if reference is None:
                reference = outputs[0]
            same = all(a.tobytes() == b.tobytes()
                       for a, b in zip(outputs[0], reference))
            print(f"{label:>8} {batch:>3} {best * 1e3:10.1f} "
                  f"{batch * n_steps / best:14,.0f}  {same}")
    if not kernels.NUMBA_ENABLED:
        cause = ("QCASIM_NO_NUMBA is set" if kernels._DISABLE
                 else "numba not importable")
        print(f"compiled: skipped ({cause})")


if __name__ == "__main__":
    main()
