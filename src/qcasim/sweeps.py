"""Parameter sweeps and comparison against the shipped reference tables.

Three experiments: output polarization versus temperature, output
polarization versus output-cell gap, and kink energy versus gap. The
temperature sweep runs the coherence engine as one batch; the gap sweep
runs the engine its params pick (`engines.final_polarizations`). Results
are deterministic rows (sorted by the swept value) that serialize to
byte-stable CSV; reference tables are shipped as data files and compared
by per-row difference and rank correlation.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, fields
from importlib import resources
from typing import Mapping, Optional, Sequence, TextIO, Union

import numpy as np

from . import kernels
from .constants import PhysicalConstants
from .electrostatics import KinkMatrix, kink_matrix
from .engines import (BistableParams, CoherenceParams, EngineError,
                      final_polarizations, simulate_coherence_batch)
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
    """The parameters a CSV header records, each field keyed by its name
    and its unit, if it has one (`temperature_K`, `max_iterations`)."""
    return {"_".join(filter(None, (f.name, f.metadata.get("unit")))):
            getattr(params, f.name) for f in fields(params)}


def _grid(values: Sequence[float], noun: str, positive: bool) -> list[float]:
    """A sweep grid as a list: not empty, finite, strictly increasing, and
    positive (or, if not `positive`, non-negative). `noun` names a value
    in the SweepError messages."""
    grid = list(values)
    if not grid:
        raise SweepError(f"{noun} grid is empty")
    for value in grid:
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int that no float can hold
            raise SweepError(f"{noun}s must be finite, got an integer too large "
                             f"for a float ({value.bit_length()} bits)") from None
        if not finite:
            raise SweepError(f"{noun}s must be finite")
    if any(v <= 0 if positive else v < 0 for v in grid):
        raise SweepError(f"{noun}s must be "
                         f"{'strictly positive' if positive else 'non-negative'}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise SweepError(f"{noun} grid must be strictly increasing")
    return grid


def sweep_temperature(layout: Layout, temperatures: Sequence[float],
                      params: CoherenceParams, constants: PhysicalConstants,
                      inputs: Optional[Mapping[str, float]] = None) -> SweepResult:
    """Coherence-engine |P| of the output cell at each temperature, all
    temperatures run as one batch."""
    temps = _grid(temperatures, "temperature", positive=False)
    out_id = layout.output_id()
    kink = kink_matrix(layout, params.radius_of_effect, constants)
    try:
        # only the final state is read: record the first and last steps
        traces = simulate_coherence_batch(
            layout, params, [(kink, T, inputs) for T in temps], constants,
            record_stride=params.n_steps)
    except EngineError as exc:
        raise SweepError(f"at temperature {temps[exc.point]} K: {exc}") from exc
    rows = [SweepRow(value=T, cell_id=out_id, polarization=abs(trace.final[out_id]))
            for T, trace in zip(temps, traces)]
    snapshot = params_snapshot(params)
    del snapshot["temperature_K"]  # swept
    snapshot.update(layout=layout.name, engine=params.engine,
                    constants=constants.mode)
    return SweepResult(variable="temperature", unit="K", rows=tuple(rows),
                       layout_name=layout.name, engine=params.engine,
                       snapshot=snapshot)


def _pair_energy(kink: KinkMatrix, cell_i: str, cell_j: str) -> float:
    """Kink energy of a pair, 0.0 if beyond the radius of effect."""
    i, j = sorted((kink.index[cell_i], kink.index[cell_j]))
    found = np.flatnonzero((kink.first == i) & (kink.second == j))
    return kink.energies[found[0]].item() if found.size else 0.0


def sweep_gap(layout: Layout, output_id: str, gaps: Sequence[float],
              params: Union[BistableParams, CoherenceParams],
              constants: PhysicalConstants,
              inputs: Optional[Mapping[str, float]] = None) -> SweepResult:
    """|P| of the displaced cell and its kink energy to its previous
    neighbor, at each per-axis edge gap, on the engine of `params`.

    The displacement direction is derived from the current geometry (an
    in-line cell slides along its line, a diagonal cell along the
    diagonal), so the layout keeps its shape. Every gap's kink matrix is
    built first, then all run through `final_polarizations`; an error is
    reported at the first gap, in grid order, that fails.
    """
    gaps = _grid(gaps, "gap", positive=True)
    axis = displacement_axis(layout, output_id)
    kinks, energies = [], []
    failure = None  # (gap, error) of the first gap whose kink matrix fails
    for gap in gaps:
        try:
            displaced = displace_cell(layout, output_id, gap, axis)
            kink = kink_matrix(displaced, params.radius_of_effect, constants)
            prev = previous_neighbor(displaced, output_id)
            energies.append(_pair_energy(kink, output_id, prev))
        except Exception as exc:
            failure = (gap, exc)
            break
        kinks.append(kink)
    # displacement keeps the cell order, roles and zones of `layout`; an
    # engine error at a gap before the failing one comes first
    try:
        finals = final_polarizations(layout, params,
                                     [(kink, inputs) for kink in kinks], constants)
    except EngineError as exc:
        raise SweepError(f"at gap {gaps[exc.point]} nm: {exc}") from exc
    pols = [final[output_id] for final in finals]
    if failure is not None:
        gap, exc = failure
        raise SweepError(f"at gap {gap} nm: {exc}") from exc
    rows = [SweepRow(value=gap, cell_id=output_id, polarization=abs(pol),
                     kink_energy=energy)
            for gap, pol, energy in zip(gaps, pols, energies)]
    snapshot = params_snapshot(params)
    snapshot.update(layout=layout.name, engine=params.engine,
                    constants=constants.mode, displaced_cell=output_id)
    return SweepResult(variable="gap", unit="nm", rows=tuple(rows),
                       layout_name=layout.name, engine=params.engine, snapshot=snapshot)


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

# What may not stand in a `#` line of `write_csv`: a C0 or C1 control
# character (line feeds among them) or a Unicode line or paragraph
# separator would end the line early, or read as a break to some readers.
_LINE_BREAKING = re.compile("[\x00-\x1f\x7f-\x9f\u2028\u2029]")


@dataclass(frozen=True, eq=False)
class IndexedColumn:
    """A `write_csv` column whose row r prints texts[indices[r]]: each
    text (a `str`) is stored once, however many rows print it. `kink`
    prints the cell ids of its pairs this way."""
    texts: Sequence[str]
    indices: np.ndarray

    def __post_init__(self) -> None:
        indices = np.asarray(self.indices, dtype=np.int64)
        if indices.ndim != 1 or indices.size and not (
                0 <= indices.min() <= indices.max() < len(self.texts)):
            raise ValueError(f"indices must be positions 0..{len(self.texts) - 1} "
                             "of the texts")
        object.__setattr__(self, "indices", indices)

    def __len__(self) -> int:
        return len(self.indices)


def _block(columns, start: int, stop: int, tables: dict):
    """Rows start..stop of `columns` as one text table and, per column and
    row, the entry in it of that field (`kernels.write_rows` takes both).

    The float64 arrays share one part of the table: each distinct bit
    pattern among them is formatted once, by `kernels.format_sci`.
    Grouping by bits, not by `==`, keeps -0.0, 0.0 and every NaN apart,
    so each value prints as `sci` would print it alone. The other columns
    but the IndexedColumns share another: their texts, row by row. A
    column of `str` (the type itself, so that no `__str__` is skipped) is
    its own text; anything else prints as `str` does, an `int` or `bool`
    among strings too. An IndexedColumn's part is the text table of its
    texts, from `tables` (by the texts' id)."""
    parts = []  # (text table, entries of the fields, columns of the fields)
    floats, others = [], []
    for c, column in enumerate(columns):
        if isinstance(column, IndexedColumn):
            parts.append((tables[id(column.texts)], column.indices[start:stop], [c]))
        elif isinstance(column, np.ndarray) and column.dtype == np.float64:
            floats.append(c)
        else:
            others.append(c)
    if floats:
        values = np.stack([columns[c][start:stop] for c in floats])
        keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
        parts.append((kernels.format_sci(keys.view(np.float64)),
                      inverse.reshape(values.shape), floats))
    if others:
        texts = []
        for c in others:
            column = columns[c][start:stop]
            texts += column if set(map(type, column)) == {str} else map(str, column)
        parts.append((kernels.text_table(texts),
                      np.arange(len(texts)).reshape(len(others), -1), others))
    indices = np.empty((len(columns), stop - start), dtype=np.int64)
    data, offsets = [], [np.zeros(1, dtype=np.int64)]
    n_entries = n_bytes = 0
    for (part_data, part_offsets), rows, at in parts:
        indices[at] = np.add(rows, n_entries)
        data.append(part_data)
        offsets.append(part_offsets[1:] + n_bytes)
        n_entries += len(part_offsets) - 1
        n_bytes += len(part_data)
    return (np.concatenate(data), np.concatenate(offsets)), indices


def write_csv(destination: TextIO, snapshot: Mapping, header: Sequence[str],
              columns: Sequence, trailer: Sequence[str] = ()) -> None:
    """Write one table in the CSV format every command prints.

    The format: one `# key=value` line per snapshot entry, sorted by key;
    the `header` row of column names; the data rows; then one `# ` line per
    trailer entry. The data come column by column, one per name, all of
    one length: a float64 ndarray prints in scientific notation with six
    significant digits (`sci`), as does a float snapshot value; an
    IndexedColumn prints the text of each row's index; any other column,
    a list of floats too, prints as `str` does. Lines end in LF, the last
    one too, so identical inputs give identical bytes.

    The rows are formatted and written in blocks of `BLOCK_ROWS`, each by
    one `kernels.write_rows` call over the block's text table (`_block`).
    The lengths are checked before anything is written, and so is the
    text of every snapshot entry and trailer line: one that holds a
    control character (U+0000-U+001F, U+007F-U+009F), U+2028 or U+2029
    raises ValueError.
    """
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} column names for {len(columns)} columns")
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal lengths {sorted(lengths)}")
    comments = [f"{key}={sci(value) if isinstance(value, float) else value}"
                for key, value in sorted(snapshot.items())]
    for text in (*comments, *trailer):
        if _LINE_BREAKING.search(text):
            raise ValueError(f"comment text {text!r} holds a control "
                             "character or line separator")
    tables = {id(column.texts): kernels.text_table(column.texts)
              for column in columns if isinstance(column, IndexedColumn)}
    pieces = [f"# {text}\n" for text in comments]
    pieces.append(",".join(header) + "\n")
    n_rows = max(lengths, default=0)
    for start in range(0, n_rows, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n_rows)
        pieces.append(kernels.write_rows(*_block(columns, start, stop, tables)))
        if stop < n_rows:
            destination.write("".join(pieces))
            pieces = []
    # the last block goes with the trailer, so a table of one block takes
    # one write (a second write to a StringIO copies the first)
    pieces.extend(f"# {text}\n" for text in trailer)
    destination.write("".join(pieces))


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
