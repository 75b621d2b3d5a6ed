"""Correctness checks on CLI output, run outside the timed region.

Output is parsed into a Table: `#` lines are skipped, the first remaining
line names the columns, every later line is a data row. Columns whose name
starts with ``cell`` hold cell ids; every other field must be a finite
number, and polarization columns (``polarization`` or ``*_P``) must stay
within [-1, 1].
"""

from __future__ import annotations

import gzip
import math
from dataclasses import dataclass
from pathlib import Path

# Golden values are compared numerically, so that a change of printed
# precision (up to the 6 significant digits printed today) is no failure.
GOLDEN_REL_TOL = 1e-5
GOLDEN_ABS_TOL = 1e-9    # times the column's largest magnitude


class CheckError(ValueError):
    pass


@dataclass(frozen=True)
class Table:
    columns: tuple
    rows: tuple          # tuples of str (id columns) or float

    def column(self, name: str) -> list:
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise CheckError(f"output has no column {name!r}") from None
        return [row[idx] for row in self.rows]


def _is_id(column: str) -> bool:
    return column.startswith("cell")


def _is_polarization(column: str) -> bool:
    return column == "polarization" or column.endswith("_P")


def parse_table(text: str) -> Table:
    """Parse CLI output; raise CheckError on a malformed or non-finite row."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    if not lines:
        raise CheckError("output has no column header")
    columns = tuple(lines[0].split(","))
    rows = []
    for lineno, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if len(fields) != len(columns):
            raise CheckError(f"data row {lineno} has {len(fields)} fields, "
                             f"expected {len(columns)}")
        row = []
        for name, field in zip(columns, fields):
            if _is_id(name):
                row.append(field)
                continue
            try:
                value = float(field)
            except ValueError:
                raise CheckError(f"data row {lineno}: {name}={field!r} is not a number") from None
            if not math.isfinite(value):
                raise CheckError(f"data row {lineno}: {name}={field} is not finite")
            if _is_polarization(name) and abs(value) > 1.0:
                raise CheckError(f"data row {lineno}: |{name}| = {abs(value)} exceeds 1")
            row.append(value)
        rows.append(tuple(row))
    if not rows:
        raise CheckError("output has no data rows")
    return Table(columns=columns, rows=tuple(rows))


def load_golden(path: Path) -> Table:
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        return parse_table(handle.read())


def compare_golden(table: Table, golden: Table) -> list[str]:
    """Data rows equal the golden rows: ids exactly, numbers within
    GOLDEN_REL_TOL (plus a tiny per-column absolute floor)."""
    if len(table.rows) != len(golden.rows) or len(table.columns) != len(golden.columns):
        return [f"shape {len(table.rows)}x{len(table.columns)} differs from golden "
                f"{len(golden.rows)}x{len(golden.columns)}"]
    for col, name in enumerate(golden.columns):
        want = [row[col] for row in golden.rows]
        got = [row[col] for row in table.rows]
        if _is_id(name):
            if got != want:
                return [f"column {name} differs from golden"]
            continue
        floor = GOLDEN_ABS_TOL * max(abs(v) for v in want)
        for k, (a, b) in enumerate(zip(got, want)):
            if not abs(a - b) <= GOLDEN_REL_TOL * abs(b) + floor:
                return [f"data row {k + 1}: {name}={a!r}, golden {b!r}"]
    return []


def bistable_residual(layout_path: Path, pols: dict, gamma: float) -> float:
    """Largest |f(E_i / 2 gamma) - P_i| over free cells, with E_i recomputed
    from kink_matrix and the printed polarizations (default radius)."""
    from qcasim.constants import PhysicalConstants
    from qcasim.electrostatics import kink_matrix
    from qcasim.engines import BistableParams
    from qcasim.geometry import parse_layout

    layout = parse_layout(layout_path.read_text(encoding="utf-8"))
    params = BistableParams(gamma=gamma)
    kink = kink_matrix(layout, params.radius_of_effect, PhysicalConstants.paper())
    fields = dict.fromkeys(pols, 0.0)
    for (i, j), energy in kink.pairs.items():
        fields[i] += energy * pols[j]
        fields[j] += energy * pols[i]
    worst = 0.0
    for cell in layout.cells:
        if cell.role == "fixed":
            continue
        x = fields[cell.id] / (2.0 * params.gamma)
        worst = max(worst, abs(x / math.sqrt(1.0 + x * x) - pols[cell.id]))
    return worst
