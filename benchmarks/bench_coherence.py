"""Benchmark the coherence kernels: steps/s by kernel and batch size.

Runs the three-cell inverter through each kernel at B=1 (T = 1 K) and at
B=15 (the table-1 temperature grid, 0-30 K):

* loop: the Python loop kernel, the reference and the one
  ``coherence_euler`` runs without a C compiler;
* c: the compiled kernel, the one ``coherence_euler`` runs when the
  library builds, its batch split over the usable cores (left out, with
  a note, when it does not build);
* c1: the compiled kernel on the calling thread alone, one chunk.

Reports the best wall time of the repeats and point-steps/s (B x Euler
steps per second), and checks that every kernel's finals, flags and
recordings are bit-identical to the loop kernel's. Where the library
builds, it then checks, untimed, the C kernel at every chunk count from 1
to B against the loop kernel, bit for bit, recording every step, on the
B=15 grid and on two batches whose clocks hold still for many steps,
where the C kernel reuses each cell's steady state: the inverter and a
six-cell wire in four clock zones, both at clock amplitude factor 3
(the clock reaches clock_high as well as clock_low), each at 0 K and
above. These checks run 2,000 steps whatever --total-time is: the cells
settle while a clock is held, so the reuse is exercised as a clock
starts to move again, and each chunk runs long enough to overlap the
others. Exits 1 if any result differs.

Usage:
    python benchmarks/bench_coherence.py [--total-time 1e-12] [--repeats 3]
"""

import argparse
import functools
import sys
import time
from dataclasses import replace

import numpy as np

from qcasim import kernels
from qcasim.constants import PhysicalConstants
from qcasim.electrostatics import kink_matrix
from qcasim.engines import CoherenceParams, coupling
from qcasim.geometry import Layout, builtin_layout
from qcasim.sweeps import TABLE1_TEMPERATURES

PARITY_STEPS = 2000


def zoned_wire():
    """wire(6) with cell k in clock zone k mod 4."""
    wire = builtin_layout("wire(6)")
    return Layout(name="zones", cells=tuple(
        replace(c, clock_zone=k % 4) for k, c in enumerate(wire.cells)))


def build_problem(params, temperatures, layout=None, stride=1000):
    """A function returning fresh batched kernel arguments for each call."""
    constants = PhysicalConstants.paper()
    layout = layout or builtin_layout("inv3")
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


def run_once(kernel, args, **options):
    call = args()
    start = time.perf_counter()
    final, ok, bad_step = kernel(*call, **options)
    elapsed = time.perf_counter() - start
    return elapsed, (final, ok, bad_step) + call[17:20]


def same_bits(output, reference):
    return all(a.tobytes() == b.tobytes() for a, b in zip(output, reference))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--total-time", type=float, default=1e-12,
                        help="simulated time in s (default: 1e-12, 10000 steps)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repetitions per kernel (default: 3)")
    args = parser.parse_args()

    compiled = kernels.kernel_path() == "c"
    kernel_rows = [("loop", kernels.coherence_euler_loop)]
    if compiled:
        kernel_rows += [("c", kernels.coherence_euler_c),
                        ("c1", functools.partial(kernels.coherence_euler_c,
                                                 _chunks=1))]
    else:
        print("no c row: the compiled kernel did not build (is $CC present?)")

    params = CoherenceParams(total_time=args.total_time)
    problems = {1: build_problem(params, [1.0]),
                15: build_problem(params, TABLE1_TEMPERATURES)}
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
                if not reference[1].all():
                    sys.exit("integration went unstable")
            same = all(same_bits(output, reference) for output in outputs)
            all_same = all_same and same
            print(f"{label:>8} {batch:>3} {best * 1e3:10.1f} "
                  f"{batch * n_steps / best:14,.0f}  {same}")

    if compiled:
        running = replace(params, total_time=PARITY_STEPS * params.time_step)
        held = replace(running, clock_amplitude_factor=3.0)
        checks = [
            ("inverter, table-1 grid", build_problem(
                running, TABLE1_TEMPERATURES, stride=1)),
            ("inverter, amplitude factor 3", build_problem(
                held, [0.0, 1.0, 5.0], stride=1)),
            ("wire(6) in four zones, amplitude factor 3", build_problem(
                held, [0.0, 1.0, 7.0], layout=zoned_wire(), stride=1)),
        ]
        print(f"c at every chunk count against loop, {PARITY_STEPS} steps, "
              "every step recorded:")
        for label, (_, problem) in checks:
            reference = run_once(kernels.coherence_euler_loop, problem)[1]
            batch = len(reference[0])
            differ = [k for k in range(1, batch + 1) if not same_bits(
                run_once(kernels.coherence_euler_c, problem, _chunks=k)[1],
                reference)]
            all_same = all_same and not differ
            print(f"  {label}, B={batch}: "
                  + (f"differs at {differ} chunks" if differ
                     else f"bit-identical at 1-{batch} chunks"))
    if not all_same:
        sys.exit("a kernel's results differ from the loop kernel's")


if __name__ == "__main__":
    main()
