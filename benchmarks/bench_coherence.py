"""Benchmark the coherence kernels: steps/s by kernel and batch size.

Runs the three-cell inverter through each kernel at B=1 (T = 1 K) and at
B=15 (the table-1 temperature grid, 0-30 K):

* loop: the Python loop kernel, the reference and the one
  ``coherence_euler`` runs without a C compiler;
* c: the compiled kernel, the one ``coherence_euler`` runs when the
  library builds (left out, with a note, when it does not).

Reports the best wall time of the repeats and point-steps/s (B x Euler
steps per second), and checks that every kernel's finals, flags and
recordings are bit-identical to the loop kernel's; exits 1 if one is not.

Usage:
    python benchmarks/bench_coherence.py [--total-time 1e-12] [--repeats 3]
"""

import argparse
import sys
import time

import numpy as np

from qcasim import kernels
from qcasim.constants import PhysicalConstants
from qcasim.electrostatics import kink_matrix
from qcasim.engines import CoherenceParams, coupling
from qcasim.geometry import builtin_layout
from qcasim.sweeps import TABLE1_TEMPERATURES


def build_problem(total_time, temperatures, stride=1000):
    """A function returning fresh batched kernel arguments for each call."""
    constants = PhysicalConstants.paper()
    params = CoherenceParams(total_time=total_time)
    layout = builtin_layout("inv3")
    ids = [c.id for c in layout.cells]
    kink = kink_matrix(layout, params.radius_of_effect, constants)
    batch = len(temperatures)
    energies, offsets, cols = coupling([kink] * batch, ids)
    zones = np.array([c.clock_zone for c in layout.cells], dtype=np.int64)
    driven = np.array([c.role == "fixed" for c in layout.cells])
    drive_values = np.array([c.fixed_polarization or 0.0 for c in layout.cells])
    n_steps = params.n_steps
    n_rec = n_steps // stride + 1

    def args():
        return (energies, zones, driven,
                np.stack([drive_values] * batch), n_steps, params.time_step,
                params.total_time, float(params.clock_periods),
                params.clock_shift, params.clock_amplitude, params.clock_low,
                params.clock_high, params.relaxation_time,
                np.array(temperatures, dtype=float), constants.boltzmann_k,
                constants.hbar, stride, np.zeros(n_rec), np.zeros((n_rec, 4)),
                np.zeros((batch, n_rec, len(ids))), offsets, cols)
    return n_steps, args


def run_once(kernel, args):
    call = args()
    start = time.perf_counter()
    final, ok, bad_step = kernel(*call)
    elapsed = time.perf_counter() - start
    assert ok.all(), "integration went unstable"
    return elapsed, (final, ok, bad_step) + call[17:20]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--total-time", type=float, default=1e-12,
                        help="simulated time in s (default: 1e-12, 10000 steps)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repetitions per kernel (default: 3)")
    args = parser.parse_args()

    kernel_rows = [("loop", kernels.coherence_euler_loop)]
    if kernels.kernel_path() == "c":
        kernel_rows.append(("c", kernels.coherence_euler_c))
    else:
        print("no c row: the compiled kernel did not build (is $CC present?)")

    problems = {1: build_problem(args.total_time, [1.0]),
                15: build_problem(args.total_time, TABLE1_TEMPERATURES)}
    n_steps = problems[1][0]
    print(f"three-cell inverter, {n_steps} Euler steps per point")
    print(f"{'kernel':>8} {'B':>3} {'best ms':>10} {'point-steps/s':>14}  "
          "bit-identical to loop")

    all_same = True
    for batch, (_, problem) in problems.items():
        reference = None
        for label, kernel in kernel_rows:
            times, outputs = zip(*(run_once(kernel, problem)
                                   for _ in range(args.repeats)))
            best = min(times)
            if reference is None:
                reference = outputs[0]
            same = all(a.tobytes() == b.tobytes()
                       for output in outputs for a, b in zip(output, reference))
            all_same = all_same and same
            print(f"{label:>8} {batch:>3} {best * 1e3:10.1f} "
                  f"{batch * n_steps / best:14,.0f}  {same}")
    if not all_same:
        sys.exit("a kernel's results differ from the loop kernel's")


if __name__ == "__main__":
    main()
