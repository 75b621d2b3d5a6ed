"""Benchmark the coherence kernels: steps/s by kernel and batch size.

Times `engines.simulate_coherence_batch` on the three-cell inverter at
B=1 (T = 1 K) and at B=15 (the table-1 temperature grid, 0-30 K), and on
the majority gate at B=8 (its eight drive rows, T = 1 K, the batch of a
coherence truth table), with `kernels.coherence_euler` swapped for each
kernel:

* loop: the Python loop kernel, the one ``coherence_euler`` runs without
  a C compiler;
* c: the compiled kernel, the one ``coherence_euler`` runs when the
  library builds, its batch split over the usable cores (left out, with
  a note, when it does not build);
* c1: the compiled kernel with the usable cores patched to one: one
  chunk, on the calling thread alone.

Reports the best wall time of the repeats and point-steps/s (B x Euler
steps per second). The times include the engine's set-up around the
kernel call: the neighbor list, the drive values and the recording
arrays, every 1,000th step recorded. The script only times;
tests/test_kernels.py checks that each kernel gives the loop kernel's
bits.

Usage:
    python benchmarks/bench_coherence.py [--total-time 1e-12] [--repeats 3]
"""

import argparse
import itertools
import time

from qcasim import kernels
from qcasim.constants import PhysicalConstants
from qcasim.electrostatics import kink_matrix
from qcasim.engines import CoherenceParams, simulate_coherence_batch
from qcasim.geometry import builtin_layout
from qcasim.sweeps import TABLE1_TEMPERATURES


def one_chunk(*args):
    """The compiled kernel on one chunk, whatever the usable cores."""
    cores = kernels._usable_cores
    kernels._usable_cores = lambda: 1
    try:
        return kernels.coherence_euler_c(*args)
    finally:
        kernels._usable_cores = cores


def time_with(kernel, layout, params, points, constants):
    """The wall time of one `simulate_coherence_batch` call whose
    integrator is `kernel`."""
    default = kernels.coherence_euler
    kernels.coherence_euler = kernel
    try:
        start = time.perf_counter()
        simulate_coherence_batch(layout, params, points, constants,
                                 record_stride=1000)
        return time.perf_counter() - start
    finally:
        kernels.coherence_euler = default


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--total-time", type=float, default=1e-12,
                        help="simulated time in s (default: 1e-12, 10000 steps)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repetitions per kernel (default: 3)")
    args = parser.parse_args()

    kernel_rows = [("loop", kernels.coherence_euler_loop)]
    if kernels.kernel_path() == "c":
        kernel_rows += [("c", kernels.coherence_euler_c), ("c1", one_chunk)]
    else:
        print("no c row: the compiled kernel did not build (is $CC present?)")

    constants = PhysicalConstants.paper()
    params = CoherenceParams(total_time=args.total_time)
    n_steps = params.n_steps
    inv3 = builtin_layout("inv3")
    inv3_kink = kink_matrix(inv3, params.radius_of_effect, constants)
    majority = builtin_layout("majority")
    majority_kink = kink_matrix(majority, params.radius_of_effect, constants)
    drive_rows = [dict(zip("abc", bits))
                  for bits in itertools.product((-1.0, 1.0), repeat=3)]
    sections = [
        ("three-cell inverter", inv3,
         [[(inv3_kink, t, None) for t in temperatures]
          for temperatures in ([1.0], TABLE1_TEMPERATURES)]),
        ("majority gate, one point per drive row", majority,
         [[(majority_kink, 1.0, row) for row in drive_rows]]),
    ]
    for title, layout, batches in sections:
        print(f"{title}, {n_steps} Euler steps per point")
        print(f"{'kernel':>8} {'B':>3} {'best ms':>10} {'point-steps/s':>14}")
        for points in batches:
            batch = len(points)
            for label, kernel in kernel_rows:
                best = min(time_with(kernel, layout, params, points, constants)
                           for _ in range(args.repeats))
                print(f"{label:>8} {batch:>3} {best * 1e3:10.1f} "
                      f"{batch * n_steps / best:14,.0f}")


if __name__ == "__main__":
    main()
