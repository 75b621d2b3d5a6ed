"""Workload definitions: seeded input generators, CLI argv, work counts and
the physics invariant each workload's output must satisfy.

Every generator takes only the seed (plus an output directory) and is
deterministic per seed. Each workload stresses a different module:

  temp-sweep       kernels (15 independent 3-cell coherence runs)
  coherence-trace  kernels dense field sum + trace recording/formatting
  bistable-block   engines.bistable_relax on a ~330-cell 2-D block
  kink-large       geometry overlap check + electrostatics.kink_matrix
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

PITCH = 20.0        # nm: 18 nm cells with a 2 nm gap
RADIUS = 80.0       # nm: the CLI's default radius of effect
DRIVE_TOL = 1e-12

# Sizes are fixed so that one op takes about 0.5-2.5 s on the pure-Python
# path; the seed changes the inputs, never their size.
TEMP_TOTAL_TIME = 1e-12          # 10,000 Euler steps per temperature point
TEMP_POINTS = 15                 # table1 grid
TEMP_CELLS = 3                   # builtin:inv3
WIRE_CELLS = 14
WIRE_TOTAL_TIME = 1.2e-12        # 12,000 Euler steps
WIRE_STRIDE = 10
TIME_STEP = 1e-16                # CoherenceParams default
BLOCK_SHAPE = (16, 21, 6)        # rows, columns (driver column included), vacancies
# Tunneling energy of the bistable block. It sets the sweep count: 8 at the
# CLI default (9.8e-22 J), 30-34 here, so the relaxation dominates the op
# as it does on larger layouts; nearer 5e-21 J the count turns seed-sensitive.
BLOCK_GAMMA = 6e-21
LARGE_SHAPE = (32, 41, 72)
BISTABLE_RESIDUAL_TOL = 1e-5     # printed to 6 significant digits; ~5e-7 seen


@dataclass(frozen=True)
class CellSpec:
    id: str
    x: float
    y: float
    role: str
    pol: float | None = None


@dataclass(frozen=True)
class Inputs:
    """What a workload's op needs: its argv, the files it reads and the
    generated cells (for the invariant checks)."""
    argv: tuple
    files: tuple
    cells: tuple


def _write_qcl(path: Path, cells) -> None:
    lines = ["qcl 1"]
    for c in cells:
        text = f"cell id={c.id} x={c.x:g} y={c.y:g} role={c.role}"
        if c.pol is not None:
            text += f" pol={c.pol:g}"
        lines.append(text)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def block_cells(seed: int, rows: int, cols: int, vacancies: int) -> tuple:
    """A rows x cols grid at PITCH, row-major. Column 0 holds fixed drivers
    that share one seeded polarity; `vacancies` seeded free positions are
    left empty.

    Drivers share one sign because per-driver random signs frustrate the
    block: the bistable sweep count then ranges from 17 to 257 across
    seeds, and op times could not be compared between seeds.
    """
    rng = random.Random(f"block:{seed}")
    drive = rng.choice((-1.0, 1.0))
    free = [(r, c) for r in range(rows) for c in range(1, cols)]
    holes = set(rng.sample(free, vacancies))
    cells = []
    for r in range(rows):
        cells.append(CellSpec(f"r{r:03d}c000", 0.0, r * PITCH, "fixed", drive))
        cells.extend(CellSpec(f"r{r:03d}c{c:03d}", c * PITCH, r * PITCH, "normal")
                     for c in range(1, cols) if (r, c) not in holes)
    return tuple(cells)


def wire_cells(seed: int, n: int) -> tuple:
    """An n-cell horizontal wire whose fixed driver polarity is seeded."""
    drive = random.Random(f"wire:{seed}").choice((-1.0, 1.0))
    cells = [CellSpec("c00", 0.0, 0.0, "fixed", drive)]
    cells += [CellSpec(f"c{i:02d}", i * PITCH, 0.0, "normal") for i in range(1, n - 1)]
    cells.append(CellSpec(f"c{n - 1:02d}", (n - 1) * PITCH, 0.0, "output"))
    return tuple(cells)


# --------------------------------------------------------------------------
# Per-workload inputs


def _temp_sweep(seed: int, workdir: Path) -> Inputs:
    # The table-1 grid on the builtin inverter has no free input; the seed
    # is recorded but leaves the op unchanged, which keeps this workload a
    # pure measure of the integrator.
    argv = ("sweep-temp", "--layout", "builtin:inv3",
            "--total-time", repr(TEMP_TOTAL_TIME))
    return Inputs(argv=argv, files=(), cells=())


def _coherence_trace(seed: int, workdir: Path) -> Inputs:
    cells = wire_cells(seed, WIRE_CELLS)
    path = workdir / "wire.qcl"
    _write_qcl(path, cells)
    argv = ("simulate", "--engine", "coherence", "--layout", str(path),
            "--total-time", repr(WIRE_TOTAL_TIME), "--stride", str(WIRE_STRIDE))
    return Inputs(argv=argv, files=(path,), cells=cells)


def _bistable_block(seed: int, workdir: Path) -> Inputs:
    cells = block_cells(seed, *BLOCK_SHAPE)
    path = workdir / "block.qcl"
    _write_qcl(path, cells)
    argv = ("simulate", "--layout", str(path), "--gamma", repr(BLOCK_GAMMA))
    return Inputs(argv=argv, files=(path,), cells=cells)


def _kink_large(seed: int, workdir: Path) -> Inputs:
    cells = block_cells(seed, *LARGE_SHAPE)
    path = workdir / "large.qcl"
    _write_qcl(path, cells)
    return Inputs(argv=("kink", "--layout", str(path)), files=(path,), cells=cells)


# --------------------------------------------------------------------------
# Work per op, in each workload's throughput item


def _coherence_steps(total_time: float) -> int:
    return round(total_time / TIME_STEP)


def _work_temp_sweep(inputs: Inputs, table: checks.Table) -> float:
    return float(TEMP_POINTS * _coherence_steps(TEMP_TOTAL_TIME) * TEMP_CELLS)


def _work_coherence_trace(inputs: Inputs, table: checks.Table) -> float:
    return float(_coherence_steps(WIRE_TOTAL_TIME) * WIRE_CELLS)


def _work_bistable_block(inputs: Inputs, table: checks.Table) -> float:
    return float(sum(c.role != "fixed" for c in inputs.cells))


def _work_kink_large(inputs: Inputs, table: checks.Table) -> float:
    return float(len(table.rows))


# --------------------------------------------------------------------------
# Invariants that hold for every seed


def _check_temp_sweep(table: checks.Table, inputs: Inputs) -> list[str]:
    pols = table.column("polarization")
    temps = table.column("temperature_K")
    errors = []
    if len(pols) != TEMP_POINTS:
        errors.append(f"expected {TEMP_POINTS} sweep points, got {len(pols)}")
    for k in range(1, len(pols)):
        if pols[k] > pols[k - 1]:
            errors.append(f"|P| rises from {pols[k - 1]} at {temps[k - 1]} K "
                          f"to {pols[k]} at {temps[k]} K")
    return errors


def _check_coherence_trace(table: checks.Table, inputs: Inputs) -> list[str]:
    ids = [c.id for c in inputs.cells]
    drive = inputs.cells[0].pol
    expected_rows = _coherence_steps(WIRE_TOTAL_TIME) // WIRE_STRIDE + 1
    errors = []
    if len(table.rows) != expected_rows:
        errors.append(f"expected {expected_rows} trace rows, got {len(table.rows)}")
    driver = table.column(f"{ids[0]}_P")
    if any(abs(p - drive) > DRIVE_TOL for p in driver):
        errors.append("driver cell does not hold its drive value")
    final = table.column(f"{ids[-1]}_P")[-1]
    if final * drive <= 0:
        errors.append(f"output cell ends at {final}, not with the driver's sign")
    return errors


def _check_bistable_block(table: checks.Table, inputs: Inputs) -> list[str]:
    ids = table.column("cell_id")
    if sorted(ids) != sorted(c.id for c in inputs.cells):
        return ["output cells differ from the layout's cells"]
    pols = dict(zip(ids, table.column("polarization")))
    residual = checks.bistable_residual(inputs.files[0], pols, BLOCK_GAMMA)
    if not residual <= BISTABLE_RESIDUAL_TOL:
        return [f"fixed-point residual {residual:.3e} exceeds {BISTABLE_RESIDUAL_TOL}"]
    return []


def _check_kink_large(table: checks.Table, inputs: Inputs) -> list[str]:
    """Every in-radius pair is listed once, and since kink energy depends
    only on the relative offset of two identical cells, every pair at one
    offset carries the same energy."""
    pos = {c.id: (c.x, c.y) for c in inputs.cells}
    by_offset: dict = {}
    for i, j, energy in zip(table.column("cell_i"), table.column("cell_j"),
                            table.column("kink_energy_J")):
        if i not in pos or j not in pos:
            return [f"pair {i},{j} names a cell the layout does not have"]
        (xi, yi), (xj, yj) = pos[i], pos[j]
        if math.hypot(xi - xj, yi - yj) > RADIUS:
            return [f"pair {i},{j} lies outside the radius of effect"]
        ref = by_offset.setdefault((xj - xi, yj - yi), energy)
        if not math.isclose(energy, ref, rel_tol=1e-5):
            return [f"pair {i},{j}: {energy} differs from {ref} at the same offset"]
    reach = int(RADIUS // PITCH)
    offsets = [(dx, dy) for dx in range(-reach, reach + 1) for dy in range(-reach, reach + 1)
               if (dx or dy) and math.hypot(dx, dy) * PITCH <= RADIUS]
    grid = {(round(x / PITCH), round(y / PITCH)) for x, y in pos.values()}
    expected = sum((gx + dx, gy + dy) in grid for gx, gy in grid for dx, dy in offsets) // 2
    if len(table.rows) != expected or len(set(zip(table.column("cell_i"),
                                                  table.column("cell_j")))) != expected:
        return [f"{len(table.rows)} pairs listed, {expected} distinct pairs lie in radius"]
    return []


@dataclass(frozen=True)
class Workload:
    name: str
    item: str                                   # unit of throughput work
    build: Callable[[int, Path], Inputs]
    invariant: Callable[[checks.Table, Inputs], list]
    work: Callable[[Inputs, checks.Table], float]


WORKLOADS = {w.name: w for w in (
    Workload("temp-sweep", "cell-steps", _temp_sweep, _check_temp_sweep,
             _work_temp_sweep),
    Workload("coherence-trace", "cell-steps", _coherence_trace,
             _check_coherence_trace, _work_coherence_trace),
    Workload("bistable-block", "cells relaxed", _bistable_block,
             _check_bistable_block, _work_bistable_block),
    Workload("kink-large", "in-radius pairs", _kink_large, _check_kink_large,
             _work_kink_large),
)}

# A tiny coherence run that would trigger JIT compilation when numba is
# present; part of set-up, never timed as an op.
WARMUP_ARGV = ("simulate", "--engine", "coherence", "--layout", "builtin:inv2",
               "--total-time", "1e-14", "--stride", "10")
