"""Benchmark the coupling core: layout build and parse, kink matrix, its CSV and bistable relax.

Times these stages on layouts of growing size:

* build: constructing the validated `Layout` (the cell-overlap check);
* parse: `parse_layout` of the layout's `serialize_layout` text, what
  the CLI does with a `.qcl` file;
* kink: `kink_matrix` at the default 80 nm radius of effect;
* emit: `write_csv` of the matrix's id and energy columns into memory,
  what the `kink` command does after `kink_matrix`;
* bistable: `bistable_relax` on the sweep kernel that
  `kernels.kernel_path()` names (printed first);
* bistable_loop: the same with the loop sweep kernel, the one that runs
  without a C compiler.

The layouts are `builtin:wire(n)` for n = 100, 200, 400 and square 2-D
grids of 18 nm cells at a 20 nm pitch with side 10, 32, 70 and 100 (100 to
10,000 cells), driven by a fixed left column at P = +1, all relaxed at the
default parameters; then grid(10x10) again at gamma = 6e-21 J, where the
free cells settle between 0 and 1 instead of saturating, so that a sweep
that rounds differently changes their bits; then two identical 20-cell
wires, each driven at its left end at P = +1, 200 nm apart (beyond the
radius of effect), where the two copies of each cell change by the same
amount in every sweep, so that the worst cell of the last sweep is a tie
that the first copy must win. Reports the best wall time of
the repeats for each stage, so the rows form a scaling curve. Where the
compiled library loads, checks on every layout that its sweep kernel's
polarizations are bit-identical to the loop kernel's and that both return
the same (converged, sweeps, worst position); exits 1 if one does not.

Usage:
    python benchmarks/bench_coupling.py [--max-cells 10000] [--repeats 1]
"""

import argparse
import io
import sys
import time

from qcasim import kernels
from qcasim.constants import PhysicalConstants
from qcasim.electrostatics import kink_matrix
from qcasim.engines import BistableParams, bistable_relax
from qcasim.geometry import (Cell, Layout, builtin_layout, parse_layout,
                             serialize_layout)
from qcasim.sweeps import write_csv

WIRES = (100, 200, 400)
GRID_SIDES = (10, 32, 70, 100)
PITCH = 20.0
UNSATURATED_SIDE = 10
UNSATURATED_GAMMA = 6e-21  # J
TWIN_CELLS = 20
TWIN_SPACING = 200.0  # nm, beyond the 80 nm radius of effect


def grid_cells(side):
    cells = []
    for row in range(side):
        for col in range(side):
            fixed = col == 0
            cells.append(Cell(id=f"r{row}c{col}", center_x=col * PITCH,
                              center_y=row * PITCH,
                              role="fixed" if fixed else "normal",
                              fixed_polarization=1.0 if fixed else None))
    return tuple(cells)


def twin_wire_cells(n):
    """Two n-cell wires with ids a00.. and b00.., in that order, each
    driven by its first cell: each copy of a cell sees the same fields,
    summed in the same order, as the other."""
    return tuple(Cell(id=f"{wire}{k:02d}", center_x=k * PITCH,
                      center_y=row * TWIN_SPACING,
                      role="fixed" if k == 0 else "normal",
                      fixed_polarization=1.0 if k == 0 else None)
                 for row, wire in enumerate("ab") for k in range(n))


def problems(max_cells):
    """(label, cell count, function building the layout, bistable params)
    by size, then the unsaturated grid and the twin wires."""
    defaults = BistableParams()
    for n in WIRES:
        if n <= max_cells:
            yield f"wire({n})", n, lambda n=n: builtin_layout(f"wire({n})"), defaults
    grids = [(f"grid({side}x{side})", side, defaults) for side in GRID_SIDES]
    grids.append((f"grid({UNSATURATED_SIDE}x{UNSATURATED_SIDE}) "
                  f"gamma={UNSATURATED_GAMMA:g}", UNSATURATED_SIDE,
                  BistableParams(gamma=UNSATURATED_GAMMA)))
    for label, side, params in grids:
        if side * side <= max_cells:
            cells = grid_cells(side)
            yield (label, side * side,
                   lambda cells=cells: Layout(name="grid", cells=cells), params)
    twins = twin_wire_cells(TWIN_CELLS)
    if len(twins) <= max_cells:
        yield (f"twin wire({TWIN_CELLS})", len(twins),
               lambda: Layout(name="twins", cells=twins), defaults)


def best_time(fn, repeats):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def emit(kink):
    """The `kink` command's output for a kink matrix, written to memory."""
    out = io.StringIO()
    write_csv(out, {"radius_of_effect_nm": kink.radius_of_effect},
              ("cell_i", "cell_j", "kink_energy_J"),
              [*kink.pair_ids(), kink.energies])
    return out


def relax_with(kernel, layout, kink, params):
    """`bistable_relax` with its sweep run by `kernel`: the polarizations
    and what the sweep returned, (converged, sweeps, worst position)."""
    default = kernels.bistable_sweep
    returned = []

    def sweep(*args):
        returned.append(kernel(*args))
        return returned[-1]

    kernels.bistable_sweep = sweep
    try:
        return bistable_relax(layout, kink, params), returned[-1]
    finally:
        kernels.bistable_sweep = default


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-cells", type=int, default=10_000,
                        help="skip layouts with more cells (default: 10000)")
    parser.add_argument("--repeats", type=int, default=1,
                        help="timed repetitions per stage (default: 1)")
    args = parser.parse_args()

    constants = PhysicalConstants.paper()
    path = kernels.kernel_path()
    print(f"kernel path: {path}")
    if path != "c":
        print("no c check: the compiled kernel did not build (is $CC present?)")
    print("layout,cells,pairs,build_s,parse_s,kink_s,emit_s,bistable_s,bistable_loop_s")
    all_same = True
    for label, n_cells, build, params in problems(args.max_cells):
        build_s, layout = best_time(build, args.repeats)
        text = serialize_layout(layout)
        parse_s, _ = best_time(lambda: parse_layout(text), args.repeats)
        kink_s, kink = best_time(
            lambda: kink_matrix(layout, params.radius_of_effect, constants),
            args.repeats)
        emit_s, _ = best_time(lambda: emit(kink), args.repeats)
        bistable_s, (relaxed, swept) = best_time(
            lambda: relax_with(kernels.bistable_sweep, layout, kink, params),
            args.repeats)
        loop_s, (looped, loop_swept) = best_time(
            lambda: relax_with(kernels.bistable_sweep_loop, layout, kink, params),
            args.repeats)
        if path == "c" and ([v.hex() for v in relaxed.values()]
                            != [v.hex() for v in looped.values()]):
            print(f"{label}: the c sweep kernel's polarizations differ from "
                  "the loop kernel's")
            all_same = False
        if path == "c" and swept != loop_swept:
            print(f"{label}: the c sweep kernel returned {swept}, the loop "
                  f"kernel {loop_swept}")
            all_same = False
        print(f"{label},{n_cells},{len(kink)},{build_s:.4f},{parse_s:.4f},"
              f"{kink_s:.4f},{emit_s:.4f},{bistable_s:.4f},{loop_s:.4f}", flush=True)
    if not all_same:
        sys.exit("the c sweep kernel's results differ from the loop kernel's")

if __name__ == "__main__":
    main()
