"""Cells, layouts, the .qcl file format and the built-in circuits.

Coordinates are in nanometers. A cell is a square with four dots; for
rotation 0 the dots sit on the square's diagonals, for rotation 45 at the
edge midpoints. Dot 1 is the dot with the greatest (x + y) (ties broken
toward +x), then counterclockwise. Polarization +1 puts the two mobile
electrons on dots 1 and 3, polarization -1 on dots 2 and 4.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

ROLES = ("normal", "input", "output", "fixed")

# Dot index pairs (0-based) occupied at each polarization sign.
DOTS_POSITIVE = (0, 2)
DOTS_NEGATIVE = (1, 3)


class LayoutError(ValueError):
    """A layout or cell violates a structural invariant."""


class ParseError(LayoutError):
    """A .qcl document is malformed; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Cell:
    id: str
    center_x: float
    center_y: float
    size: float = 18.0
    dot_offset: Optional[float] = None  # defaults to size / 4
    rotation: int = 0
    role: str = "normal"
    clock_zone: int = 0
    fixed_polarization: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.id or re.search(r"\s|=", self.id):
            raise LayoutError(f"invalid cell id {self.id!r}")
        if self.dot_offset is None:
            object.__setattr__(self, "dot_offset", self.size / 4)
        for name in ("center_x", "center_y", "size", "dot_offset"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise LayoutError(f"cell {self.id}: {name} must be finite, got {value}")
        if self.size <= 0:
            raise LayoutError(f"cell {self.id}: size must be > 0")
        if not (0 < self.dot_offset <= self.size / 2):
            raise LayoutError(f"cell {self.id}: dot_offset must be in (0, size/2]")
        if self.rotation not in (0, 45):
            raise LayoutError(f"cell {self.id}: rotation must be 0 or 45")
        if self.role not in ROLES:
            raise LayoutError(f"cell {self.id}: unknown role {self.role!r}")
        if self.clock_zone not in (0, 1, 2, 3):
            raise LayoutError(f"cell {self.id}: clock zone must be 0..3")
        if self.role == "fixed":
            if self.fixed_polarization is None:
                raise LayoutError(f"cell {self.id}: fixed cell requires a polarization")
            if not -1.0 <= self.fixed_polarization <= 1.0:
                raise LayoutError(f"cell {self.id}: fixed polarization outside [-1, 1]")
        elif self.fixed_polarization is not None:
            raise LayoutError(f"cell {self.id}: polarization only allowed on fixed cells")

    @property
    def center(self) -> tuple[float, float]:
        return (self.center_x, self.center_y)


def dot_offsets(cell: Cell) -> tuple[tuple[float, float], ...]:
    """The four dot positions relative to the cell center, dot 1 first."""
    d = cell.dot_offset
    if cell.rotation == 0:
        return ((d, d), (-d, d), (-d, -d), (d, -d))
    return ((d, 0.0), (0.0, d), (-d, 0.0), (0.0, -d))


def dot_positions(cell: Cell) -> list[tuple[float, float]]:
    """Return the four dot centers in fixed numbering order (dot 1 first)."""
    return [(cell.center_x + rx, cell.center_y + ry) for rx, ry in dot_offsets(cell)]


def electron_dots(polarization_sign: float) -> tuple[int, int]:
    """0-based dot indices occupied by the two electrons for a polarization sign."""
    if polarization_sign == 0:
        raise ValueError("polarization sign must be nonzero")
    return DOTS_POSITIVE if polarization_sign > 0 else DOTS_NEGATIVE


def edge_gaps(a: Cell, b: Cell) -> tuple[float, float]:
    """Per-axis edge-to-edge gap between the bounding boxes of two cells."""
    half = (a.size + b.size) / 2
    return (abs(a.center_x - b.center_x) - half,
            abs(a.center_y - b.center_y) - half)


def cells_overlap(a: Cell, b: Cell) -> bool:
    gx, gy = edge_gaps(a, b)
    return max(gx, gy) <= 0


# A bin as a complex number, column + 1j * row: the offsets of a cell's own
# bin and of four of its eight neighboring bins. Each of the other four
# pairs with this one from its own side.
_FORWARD = np.array([0, 1 - 1j, 1, 1 + 1j, 1j])[:, None]


def near_pairs(cells: Sequence[Cell], reach: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i < j, of cells whose centers may lie within
    `reach` of each other along both axes, as two int64 arrays in
    lexicographic (i, j) order.

    Every pair with |x_i - x_j| <= reach and |y_i - y_j| <= reach (as
    computed in floating point) is returned; some farther pairs may be too,
    so callers apply their exact test to each candidate. Centers are binned
    on a uniform grid and only neighboring bins are paired. The bin pitch
    exceeds `reach` by a margin far above the rounding error of the bin
    arithmetic, so a pair at exactly the reach always lands in neighboring
    bins. The same margin keeps every bin index within 2**41 in magnitude
    (subnormal pitches included), so a float holds it and its neighbors
    exactly. Bins are complex numbers, which numpy orders lexicographically.
    """
    n = len(cells)
    if n < 2:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    centers = np.array([[c.center_x for c in cells], [c.center_y for c in cells]])
    extent = float(np.abs(centers).max())
    pitch = reach + (reach + extent) * 2.0 ** -40
    column, row = np.floor(centers / pitch)
    key = column + 1j * row
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    target = key + _FORWARD
    starts = np.searchsorted(sorted_key, target, "left")
    # in its own bin a cell pairs only with the members after it
    starts[0, order] = np.arange(1, n + 1)
    counts = (np.searchsorted(sorted_key, target, "right") - starts).ravel()
    first = np.repeat(np.arange(5 * n) % n, counts)
    # run k of partners is sorted positions starts[k], starts[k] + 1, ...
    shift = np.repeat(starts.ravel() + counts - np.cumsum(counts), counts)
    second = order[shift + np.arange(len(first))]
    pair_key = np.minimum(first, second) * n + np.maximum(first, second)
    # stable: the default sort maps another 0.25 MB of numpy code into memory
    pair_key.sort(kind="stable")
    return np.divmod(pair_key, n)


def _first_overlap(cells: Sequence[Cell]) -> Optional[tuple[Cell, Cell]]:
    """The first pair (a, b), in index order, for which `cells_overlap`
    holds, or None. The test is `cells_overlap`'s, on arrays."""
    reach = max((c.size for c in cells), default=0.0)
    i, j = near_pairs(cells, reach)
    if not i.size:
        return None
    n = len(cells)
    x = np.fromiter((c.center_x for c in cells), np.float64, n)
    y = np.fromiter((c.center_y for c in cells), np.float64, n)
    size = np.fromiter((c.size for c in cells), np.float64, n)
    with np.errstate(over="ignore"):  # as Python floats, overflow gives inf
        half = (size[i] + size[j]) / 2
        overlap = np.maximum(np.abs(x[i] - x[j]) - half,
                             np.abs(y[i] - y[j]) - half) <= 0
    k = int(overlap.argmax())
    return (cells[i[k]], cells[j[k]]) if overlap[k] else None


@dataclass(frozen=True)
class Layout:
    name: str
    cells: tuple[Cell, ...]
    constants_mode: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(self.cells))
        seen: set[str] = set()
        for cell in self.cells:
            if cell.id in seen:
                raise LayoutError(f"duplicate cell id {cell.id!r}")
            seen.add(cell.id)
        if self.constants_mode not in (None, "paper", "codata"):
            raise LayoutError(f"unknown constants mode {self.constants_mode!r}")
        first = _first_overlap(self.cells)
        if first is not None:
            a, b = first
            raise LayoutError(f"cells {a.id!r} and {b.id!r} overlap")
        has_driven = any(c.role in ("normal", "output") for c in self.cells)
        has_driver = any(c.role in ("input", "fixed") for c in self.cells)
        if has_driven and not has_driver:
            raise LayoutError("layout has undriven cells but no input or fixed cell")

    def cell(self, cell_id: str) -> Cell:
        for c in self.cells:
            if c.id == cell_id:
                return c
        raise LayoutError(f"no cell with id {cell_id!r}")

    def output_cell(self) -> Cell:
        outs = [c for c in self.cells if c.role == "output"]
        if len(outs) != 1:
            raise LayoutError(f"layout {self.name!r} has {len(outs)} output cells, expected 1")
        return outs[0]


# --------------------------------------------------------------------------
# .qcl serialization

def _format_real(value: float) -> str:
    text = f"{value:.6f}".rstrip("0").rstrip(".")
    if text in ("-0", ""):
        text = "0"
    return text


def serialize_layout(layout: Layout) -> str:
    lines = ["qcl 1"]
    if layout.constants_mode is not None:
        lines.append(f"constants {layout.constants_mode}")
    for c in layout.cells:
        parts = [
            f"cell id={c.id}",
            f"x={_format_real(c.center_x)}",
            f"y={_format_real(c.center_y)}",
            f"size={_format_real(c.size)}",
            f"offset={_format_real(c.dot_offset)}",
            f"rot={c.rotation}",
            f"role={c.role}",
            f"clock={c.clock_zone}",
        ]
        if c.fixed_polarization is not None:
            parts.append(f"pol={_format_real(c.fixed_polarization)}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


_CELL_KEYS = {"id", "x", "y", "size", "offset", "rot", "role", "clock", "pol"}


def parse_layout(text: str, name: str = "layout") -> Layout:
    """Parse a .qcl document into a validated Layout."""
    cells: list[Cell] = []
    constants_mode: Optional[str] = None
    saw_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not saw_header:
            if line != "qcl 1":
                raise ParseError(f"expected 'qcl 1' header, got {line!r}", lineno)
            saw_header = True
            continue
        tokens = line.split()
        if tokens[0] == "constants":
            if len(tokens) != 2 or tokens[1] not in ("paper", "codata"):
                raise ParseError("expected 'constants paper' or 'constants codata'", lineno)
            constants_mode = tokens[1]
            continue
        if tokens[0] != "cell":
            raise ParseError(f"unknown directive {tokens[0]!r}", lineno)
        fields: dict[str, str] = {}
        for token in tokens[1:]:
            if "=" not in token:
                raise ParseError(f"expected key=value, got {token!r}", lineno)
            key, _, value = token.partition("=")
            if key not in _CELL_KEYS:
                raise ParseError(f"unknown key {key!r}", lineno)
            if key in fields:
                raise ParseError(f"duplicate key {key!r}", lineno)
            fields[key] = value
        for required in ("id", "x", "y", "role"):
            if required not in fields:
                raise ParseError(f"missing required key {required!r}", lineno)
        try:
            size = float(fields.get("size", "18"))
            cell = Cell(
                id=fields["id"],
                center_x=float(fields["x"]),
                center_y=float(fields["y"]),
                size=size,
                dot_offset=float(fields["offset"]) if "offset" in fields else None,
                rotation=int(fields.get("rot", "0")),
                role=fields["role"],
                clock_zone=int(fields.get("clock", "0")),
                fixed_polarization=float(fields["pol"]) if "pol" in fields else None,
            )
        except LayoutError as exc:
            raise ParseError(str(exc), lineno) from exc
        except ValueError as exc:
            raise ParseError(f"bad numeric value ({exc})", lineno) from exc
        cells.append(cell)
    if not saw_header:
        raise ParseError("empty document (missing 'qcl 1' header)", 1)
    return Layout(name=name, cells=tuple(cells), constants_mode=constants_mode)


# --------------------------------------------------------------------------
# Built-in layouts

_WIRE_RE = re.compile(r"^wire\((\d+)\)$")

BUILTIN_NAMES = ("wire(n)", "majority", "inv2", "inv3")


def builtin_layout(name: str, gap: float = 2.0) -> Layout:
    """Return one of the standard layouts, built at cell size 18 nm.

    ``wire(n)``   n cells on a line, pitch = size + gap.
    ``majority``  three driver arms, a center cell and an output in a cross.
    ``inv2``      fixed driver plus an output diagonally offset by
                  (size+gap, size+gap); the diagonal coupling inverts.
    ``inv3``      driver, an in-line intermediate cell and an output placed
                  diagonally off the intermediate; the single diagonal hop
                  gives the inversion, the extra stage adds drive strength.
    """
    if gap <= 0:
        raise LayoutError("gap must be strictly positive")
    size = 18.0
    pitch = size + gap

    def cell(cid: str, x: float, y: float, role: str = "normal",
             pol: Optional[float] = None) -> Cell:
        return Cell(id=cid, center_x=x, center_y=y, size=size,
                    role=role, fixed_polarization=pol)

    match = _WIRE_RE.match(name)
    if match:
        n = int(match.group(1))
        if n < 2:
            raise LayoutError("wire needs at least 2 cells")
        cells = [cell("in", 0.0, 0.0, role="fixed", pol=1.0)]
        for i in range(1, n - 1):
            cells.append(cell(f"c{i}", i * pitch, 0.0))
        cells.append(cell("out", (n - 1) * pitch, 0.0, role="output"))
        return Layout(name=f"wire({n})", cells=tuple(cells))
    if name == "majority":
        cells = (
            cell("a", -pitch, 0.0, role="input"),
            cell("b", 0.0, pitch, role="input"),
            cell("c", 0.0, -pitch, role="input"),
            cell("m", 0.0, 0.0),
            cell("out", pitch, 0.0, role="output"),
        )
        return Layout(name="majority", cells=cells)
    if name == "inv2":
        cells = (
            cell("in", 0.0, 0.0, role="fixed", pol=1.0),
            cell("out", pitch, pitch, role="output"),
        )
        return Layout(name="inv2", cells=cells)
    if name == "inv3":
        cells = (
            cell("in", 0.0, 0.0, role="fixed", pol=1.0),
            cell("mid", pitch, 0.0),
            cell("out", 2 * pitch, pitch, role="output"),
        )
        return Layout(name="inv3", cells=cells)
    raise LayoutError(f"unknown builtin layout {name!r} (known: {', '.join(BUILTIN_NAMES)})")


# --------------------------------------------------------------------------
# Displacement

def previous_neighbor(layout: Layout, cell_id: str) -> Cell:
    """Nearest other cell by center distance; ties broken by lowest id."""
    target = layout.cell(cell_id)
    others = [c for c in layout.cells if c.id != cell_id]
    if not others:
        raise LayoutError(f"cell {cell_id!r} has no neighbor")
    return min(others, key=lambda c: (math.dist(c.center, target.center), c.id))


def displacement_axis(layout: Layout, cell_id: str) -> tuple[float, float]:
    """Unit direction from the previous neighbor toward the cell.

    Each component is active only where the bounding boxes are separated
    along that axis, so an in-line cell moves along its line and a diagonal
    cell moves along the diagonal.
    """
    target = layout.cell(cell_id)
    prev = previous_neighbor(layout, cell_id)
    half = (target.size + prev.size) / 2
    ax = ay = 0.0
    dx = target.center_x - prev.center_x
    dy = target.center_y - prev.center_y
    if abs(dx) > half:
        ax = math.copysign(1.0, dx)
    if abs(dy) > half:
        ay = math.copysign(1.0, dy)
    if ax == 0.0 and ay == 0.0:
        raise LayoutError(f"cell {cell_id!r} is not box-separated from its neighbor")
    norm = math.hypot(ax, ay)
    return (ax / norm, ay / norm)


def displace_cell(layout: Layout, cell_id: str, new_gap: float,
                  axis: tuple[float, float]) -> Layout:
    """Move one cell along `axis` so its per-axis edge gap to its previous
    neighbor equals `new_gap`; every other cell is untouched."""
    if new_gap <= 0:
        raise LayoutError("gap must be strictly positive")
    target = layout.cell(cell_id)
    prev = previous_neighbor(layout, cell_id)
    half = (target.size + prev.size) / 2
    eps = 1e-12
    new_x, new_y = target.center_x, target.center_y
    if abs(axis[0]) > eps:
        new_x = prev.center_x + math.copysign(half + new_gap, axis[0])
    if abs(axis[1]) > eps:
        new_y = prev.center_y + math.copysign(half + new_gap, axis[1])
    moved = replace(target, center_x=new_x, center_y=new_y)
    cells = tuple(moved if c.id == cell_id else c for c in layout.cells)
    return Layout(name=layout.name, cells=cells, constants_mode=layout.constants_mode)
