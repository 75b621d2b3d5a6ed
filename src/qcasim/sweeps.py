"""Parameter sweeps and comparison against the shipped reference tables.

Three experiments: output polarization versus temperature, output
polarization versus output-cell gap, and kink energy versus gap. Results
are deterministic rows (sorted by the swept value) that serialize to
byte-stable CSV; reference tables are shipped as data files and compared
by per-row difference and rank correlation.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from importlib import resources
from typing import Mapping, Optional, Sequence, TextIO, Union

import numpy as np

from . import kernels
from .constants import PhysicalConstants
from .electrostatics import KinkMatrix, kink_matrix
from .engines import (BistableParams, CoherenceParams, IntegrationError,
                      bistable_relax, simulate_coherence_batch)
from .geometry import Layout, displace_cell, displacement_axis, previous_neighbor

TABLE1_TEMPERATURES = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0,
                       10.0, 15.0, 20.0, 25.0, 30.0)
TABLE23_GAPS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)

_TABLE_SPECS = {
    "table1": ("table1.csv", ("temperature_K", "inv2_P", "inv3_P"), 15),
    "table2": ("table2.csv", ("gap_nm", "inv2_P", "inv3_P"), 6),
    "table3": ("table3.csv", ("gap_nm", "inv2_Ek_J", "inv3_Ek_J"), 6),
}


class SweepError(ValueError):
    pass


def sci(value: float) -> str:
    """A number in the CSV number format (`kernels.SCI_FORMAT`):
    scientific notation with six significant digits."""
    return kernels.SCI_FORMAT % value


@dataclass(frozen=True)
class SweepRow:
    value: float
    cell_id: str
    polarization: float
    kink_energy: Optional[float] = None


@dataclass(frozen=True)
class SweepResult:
    variable: str            # e.g. "temperature"
    unit: str                # e.g. "K"
    rows: tuple              # of SweepRow, ascending by swept value
    layout_name: str
    engine: str
    snapshot: dict           # parameter snapshot echoed into CSV comments

    def values(self) -> list[float]:
        return [r.value for r in self.rows]

    def polarizations(self) -> list[float]:
        return [r.polarization for r in self.rows]

    def kink_energies(self) -> list[float]:
        return [r.kink_energy for r in self.rows]


def params_snapshot(params: Union[BistableParams, CoherenceParams]) -> dict:
    """The parameters a CSV header records, keyed by name and unit."""
    if isinstance(params, BistableParams):
        return {
            "gamma_J": params.gamma,
            "convergence_tolerance": params.convergence_tolerance,
            "max_iterations": params.max_iterations,
            "radius_of_effect_nm": params.radius_of_effect,
        }
    return {
        "temperature_K": params.temperature,
        "relaxation_time_s": params.relaxation_time,
        "time_step_s": params.time_step,
        "total_time_s": params.total_time,
        "clock_high_J": params.clock_high,
        "clock_low_J": params.clock_low,
        "clock_shift_J": params.clock_shift,
        "clock_amplitude_factor": params.clock_amplitude_factor,
        "radius_of_effect_nm": params.radius_of_effect,
        "clock_periods": params.clock_periods,
    }


def _failed_point(exc: Exception) -> int:
    """Index of the batch point an engine error belongs to (a failure that is
    not an integration failure is common to all points: the first)."""
    return exc.point if isinstance(exc, IntegrationError) else 0


def sweep_temperature(layout: Layout, temperatures: Sequence[float],
                      params: CoherenceParams, constants: PhysicalConstants,
                      inputs: Optional[Mapping[str, float]] = None) -> SweepResult:
    """Coherence-engine |P| of the output cell at each temperature, all
    temperatures run as one batch."""
    temps = list(temperatures)
    if not temps:
        raise SweepError("temperature grid is empty")
    if not all(math.isfinite(t) for t in temps):
        raise SweepError("temperatures must be finite")
    if any(t < 0 for t in temps):
        raise SweepError("temperatures must be non-negative")
    if any(b <= a for a, b in zip(temps, temps[1:])):
        raise SweepError("temperature grid must be strictly increasing")
    out_id = layout.output_cell().id
    kink = kink_matrix(layout, params.radius_of_effect, constants)
    points = [(kink, replace(params, temperature=T), inputs) for T in temps]
    try:
        # only the final state is read: record the first and last steps
        traces = simulate_coherence_batch(layout, points, constants,
                                          record_stride=params.n_steps)
    except Exception as exc:
        raise SweepError(f"at temperature {temps[_failed_point(exc)]} K: {exc}") from exc
    rows = [SweepRow(value=T, cell_id=out_id, polarization=abs(trace.final[out_id]))
            for T, trace in zip(temps, traces)]
    snapshot = params_snapshot(params)
    del snapshot["temperature_K"]  # swept
    snapshot.update(layout=layout.name, engine="coherence",
                    constants=constants.mode)
    return SweepResult(variable="temperature", unit="K", rows=tuple(rows),
                       layout_name=layout.name, engine="coherence",
                       snapshot=snapshot)


def _pair_energy(kink: KinkMatrix, cell_i: str, cell_j: str) -> float:
    """Kink energy of a pair, 0.0 if beyond the radius of effect."""
    i, j = sorted((kink.index[cell_i], kink.index[cell_j]))
    found = np.flatnonzero((kink.first == i) & (kink.second == j))
    return kink.energies[found[0]].item() if found.size else 0.0


def sweep_gap(layout: Layout, output_id: str, gaps: Sequence[float], engine: str,
              params: Union[BistableParams, CoherenceParams],
              constants: PhysicalConstants,
              inputs: Optional[Mapping[str, float]] = None) -> SweepResult:
    """|P| of the displaced cell and its kink energy to its previous
    neighbor, at each per-axis edge gap.

    The displacement direction is derived from the current geometry (an
    in-line cell slides along its line, a diagonal cell along the
    diagonal), so the layout keeps its shape. The coherence engine runs
    every gap's kink matrix as one batch; an error is reported at the
    first gap, in grid order, that fails.
    """
    gaps = list(gaps)
    if not gaps:
        raise SweepError("gap grid is empty")
    if not all(math.isfinite(g) for g in gaps):
        raise SweepError("gaps must be finite")
    if any(g <= 0 for g in gaps):
        raise SweepError("gaps must be strictly positive")
    if any(b <= a for a, b in zip(gaps, gaps[1:])):
        raise SweepError("gap grid must be strictly increasing")
    if engine not in ("bistable", "coherence"):
        raise SweepError(f"unknown engine {engine!r}")
    axis = displacement_axis(layout, output_id)
    kinks, energies, pols = [], [], []
    failure = None  # (gap, error) of the first gap that fails before the batch
    for gap in gaps:
        try:
            displaced = displace_cell(layout, output_id, gap, axis)
            kink = kink_matrix(displaced, params.radius_of_effect, constants)
            if engine == "bistable":
                pols.append(bistable_relax(displaced, kink, params, inputs)[output_id])
            prev = previous_neighbor(displaced, output_id)
            energies.append(_pair_energy(kink, output_id, prev.id))
        except Exception as exc:
            failure = (gap, exc)
            break
        kinks.append(kink)
    if engine == "coherence":
        # displacement keeps the cell order, roles and zones of `layout`
        try:
            traces = simulate_coherence_batch(
                layout, [(kink, params, inputs) for kink in kinks], constants,
                record_stride=params.n_steps)
        except Exception as exc:
            raise SweepError(f"at gap {gaps[_failed_point(exc)]} nm: {exc}") from exc
        pols = [trace.final[output_id] for trace in traces]
    if failure is not None:
        gap, exc = failure
        raise SweepError(f"at gap {gap} nm: {exc}") from exc
    rows = [SweepRow(value=gap, cell_id=output_id, polarization=abs(pol),
                     kink_energy=energy)
            for gap, pol, energy in zip(gaps, pols, energies)]
    snapshot = params_snapshot(params)
    snapshot.update(layout=layout.name, engine=engine, constants=constants.mode,
                    displaced_cell=output_id)
    return SweepResult(variable="gap", unit="nm", rows=tuple(rows),
                       layout_name=layout.name, engine=engine, snapshot=snapshot)


# --------------------------------------------------------------------------
# Reference tables

@dataclass(frozen=True)
class ReferenceTable:
    identifier: str
    columns: tuple           # column names, first is the swept variable
    rows: tuple              # of tuples of floats

    def column(self, name: str) -> list[float]:
        idx = self.columns.index(name)
        return [r[idx] for r in self.rows]

    def grid(self) -> list[float]:
        return [r[0] for r in self.rows]


def load_reference_table(identifier: str) -> ReferenceTable:
    """Load one of the shipped tables (table1 | table2 | table3)."""
    try:
        filename, columns, expected_rows = _TABLE_SPECS[identifier]
    except KeyError:
        raise SweepError(f"unknown reference table {identifier!r}") from None
    text = resources.files("qcasim.data").joinpath(filename).read_text(encoding="utf-8")
    reader = csv.reader(io.StringIO(text))
    header = tuple(next(reader))
    if header != columns:
        raise SweepError(f"{filename}: unexpected header {header}")
    rows = tuple(tuple(float(x) for x in row) for row in reader if row)
    if len(rows) != expected_rows:
        raise SweepError(f"{filename}: expected {expected_rows} rows, got {len(rows)}")
    return ReferenceTable(identifier=identifier, columns=columns, rows=rows)


# --------------------------------------------------------------------------
# Comparison

def _stable_ranks(values: Sequence[float]) -> list[int]:
    # Descending rank; values rounded to the 6-significant-digit CSV
    # precision first, remaining ties broken by row order. This makes two
    # series that are both (weakly) monotone in the same direction rank
    # identically, which is the behavior the trend checks rely on.
    rounded = [float(sci(v)) for v in values]
    order = sorted(range(len(rounded)), key=lambda i: (-rounded[i], i))
    ranks = [0] * len(rounded)
    for rank, idx in enumerate(order):
        ranks[idx] = rank
    return ranks


def rank_correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation with row-order tie breaking (see _stable_ranks)."""
    if len(xs) != len(ys):
        raise SweepError("rank correlation needs equal-length series")
    n = len(xs)
    if n < 2:
        raise SweepError("rank correlation needs at least 2 rows")
    rx = _stable_ranks(xs)
    ry = _stable_ranks(ys)
    d_sq = sum((a - b) ** 2 for a, b in zip(rx, ry))
    return 1.0 - 6.0 * d_sq / (n * (n * n - 1))


@dataclass(frozen=True)
class ComparisonRow:
    value: float
    simulated: float
    reference: float
    abs_difference: float
    rel_difference: float


@dataclass(frozen=True)
class ComparisonReport:
    table: str
    column: str
    rows: tuple
    rank_correlation: float


def compare_to_reference(result: SweepResult, ref: ReferenceTable,
                         column: str) -> ComparisonReport:
    """Per-row differences plus rank correlation; makes no pass/fail call."""
    grid = ref.grid()
    sim_values = result.values()
    if len(sim_values) != len(grid) or any(
            not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
            for a, b in zip(sim_values, grid)):
        raise SweepError(
            f"sweep grid {sim_values} does not match reference grid {grid}")
    ref_col = ref.column(column)
    if column.endswith("_Ek_J"):
        sim_col = [abs(e) for e in result.kink_energies()]
    else:
        sim_col = result.polarizations()
    rows = tuple(
        ComparisonRow(value=v, simulated=s, reference=r,
                      abs_difference=abs(s - r),
                      rel_difference=abs(s - r) / abs(r) if r != 0 else math.inf)
        for v, s, r in zip(grid, sim_col, ref_col))
    return ComparisonReport(table=ref.identifier, column=column, rows=rows,
                            rank_correlation=rank_correlation(sim_col, ref_col))


# --------------------------------------------------------------------------
# CSV emission

# Rows per block of `write_csv`: the text of one block at a time is alive,
# so memory does not grow with the table. A coherence trace of the default
# 1,201 rows is one block.
BLOCK_ROWS = 4096


def _texts(column) -> Sequence[str]:
    """One column's values as text. A float64 array prints in `sci`, each
    distinct bit pattern formatted once, by `kernels.format_sci`: grouping
    by bits, not by `==`, keeps -0.0, 0.0 and every NaN apart, so each
    value prints as `sci` would print it alone. A column of `str` (the
    type itself, so that no `__str__` is skipped) is its own text, used as
    it is. Anything else prints as `str` does, an `int` or `bool` among
    strings too."""
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        keys, inverse = np.unique(column.view(np.int64), return_inverse=True)
        texts = np.array(kernels.format_sci(keys.view(np.float64)), dtype=object)
        return texts[inverse].tolist()
    if set(map(type, column)) == {str}:
        return column
    return list(map(str, column))


def write_csv(destination: TextIO, snapshot: Mapping, header: Sequence[str],
              columns: Sequence, trailer: Sequence[str] = ()) -> None:
    """Write one table in the CSV format every command prints.

    The format: one `# key=value` line per snapshot entry, sorted by key;
    the `header` row of column names; the data rows; then one `# ` line per
    trailer entry. The data come column by column, one per name, all of
    one length: a float64 ndarray prints in scientific notation with six
    significant digits (`sci`), as does a float snapshot value; any other
    column, a list of floats too, prints as `str` does. Lines end in LF,
    the last one too, so identical inputs give identical bytes.

    The rows are formatted and written in blocks of `BLOCK_ROWS`, each
    column grouped by bit pattern within its block; the lengths are
    checked before anything is written.
    """
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} column names for {len(columns)} columns")
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal lengths {sorted(lengths)}")
    lines = [f"# {key}={sci(value) if isinstance(value, float) else value}"
             for key, value in sorted(snapshot.items())]
    lines.append(",".join(header))
    n_rows = max(lengths, default=0)
    for start in range(0, n_rows, BLOCK_ROWS):
        block = [_texts(column[start:start + BLOCK_ROWS]) for column in columns]
        lines += map(",".join, zip(*block))
        if start + BLOCK_ROWS < n_rows:
            lines.append("")  # the block's final LF
            destination.write("\n".join(lines))
            lines = []
    # the last block goes with the trailer, so a table of one block takes
    # one write (a second write to a StringIO copies the first)
    lines.extend(f"# {text}" for text in trailer)
    lines.append("")  # the final LF, without copying the text to add it
    destination.write("\n".join(lines))


def emit_csv(result: SweepResult, destination: TextIO) -> None:
    """Write a sweep with `write_csv`: its snapshot, then one row per point
    (the swept value as a float, also when the grid held integers)."""
    columns = [np.array(result.values(), dtype=np.float64),
               [r.cell_id for r in result.rows],
               np.array(result.polarizations(), dtype=np.float64)]
    if result.variable == "temperature":
        header = ("temperature_K", "cell_id", "polarization")
    elif result.variable == "gap":
        header = ("gap_nm", "cell_id", "polarization", "kink_energy_J")
        columns.append(np.array(result.kink_energies(), dtype=np.float64))
    else:
        raise SweepError(f"unknown sweep variable {result.variable!r}")
    write_csv(destination, result.snapshot, header, columns)
