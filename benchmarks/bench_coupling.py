"""Benchmark the coupling core: layout build and parse, kink matrix, its CSV and bistable relax.

Times these stages on layouts of growing size:

* build: constructing the validated `Layout` (the cell-overlap check);
* parse: `parse_layout` of the layout's `serialize_layout` text, what
  the CLI does with a `.qcl` file;
* kink: `kink_matrix` at the default 80 nm radius of effect;
* emit: `write_csv` of the matrix's pairs into memory, its ids indexed
  by the pair arrays, what the `kink` command does after `kink_matrix`;
* bistable: `bistable_relax` on the sweep kernel that
  `kernels.kernel_path()` names (printed first);
* bistable_loop: the same with the loop sweep kernel, the one that runs
  without a C compiler.

The layouts are `builtin:wire(n)` for n = 100, 200, 400 and square 2-D
grids of 18 nm cells at a 20 nm pitch with side 10, 32, 70 and 100 (100 to
10,000 cells), driven by a fixed left column at P = +1, all relaxed at the
default parameters. Reports the best wall time of the repeats for each
stage, so the rows form a scaling curve. The script only times;
tests/test_kernels.py and tests/test_coupling.py check that the C sweep
kernel gives the loop kernel's bits.

Usage:
    python benchmarks/bench_coupling.py [--max-cells 10000] [--repeats 1]
"""

import argparse
import io
import time

from qcasim import kernels
from qcasim.constants import PhysicalConstants
from qcasim.electrostatics import kink_matrix
from qcasim.engines import BistableParams, bistable_relax
from qcasim.geometry import (Cell, Layout, builtin_layout, parse_layout,
                             serialize_layout)
from qcasim.sweeps import IndexedColumn, write_csv

WIRES = (100, 200, 400)
GRID_SIDES = (10, 32, 70, 100)
PITCH = 20.0


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


def problems(max_cells):
    """(label, cell count, function building the layout) by size."""
    for n in WIRES:
        if n <= max_cells:
            yield f"wire({n})", n, lambda n=n: builtin_layout(f"wire({n})")
    for side in GRID_SIDES:
        if side * side <= max_cells:
            cells = grid_cells(side)
            yield (f"grid({side}x{side})", side * side,
                   lambda cells=cells: Layout(name="grid", cells=cells))


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
              [IndexedColumn(kink.ids, kink.first),
               IndexedColumn(kink.ids, kink.second), kink.energies])
    return out


def relax_with(kernel, layout, kink, params):
    """`bistable_relax` with its sweep run by `kernel`."""
    default = kernels.bistable_sweep
    kernels.bistable_sweep = kernel
    try:
        return bistable_relax(layout, kink, params)
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
    params = BistableParams()
    print(f"kernel path: {kernels.kernel_path()}")
    print("layout,cells,pairs,build_s,parse_s,kink_s,emit_s,bistable_s,bistable_loop_s")
    for label, n_cells, build in problems(args.max_cells):
        build_s, layout = best_time(build, args.repeats)
        text = serialize_layout(layout)
        parse_s, _ = best_time(lambda: parse_layout(text), args.repeats)
        kink_s, kink = best_time(
            lambda: kink_matrix(layout, params.radius_of_effect, constants),
            args.repeats)
        emit_s, _ = best_time(lambda: emit(kink), args.repeats)
        bistable_s, _ = best_time(
            lambda: bistable_relax(layout, kink, params), args.repeats)
        loop_s, _ = best_time(
            lambda: relax_with(kernels.bistable_sweep_loop, layout, kink, params),
            args.repeats)
        print(f"{label},{n_cells},{len(kink)},{build_s:.4f},{parse_s:.4f},"
              f"{kink_s:.4f},{emit_s:.4f},{bistable_s:.4f},{loop_s:.4f}", flush=True)


if __name__ == "__main__":
    main()
