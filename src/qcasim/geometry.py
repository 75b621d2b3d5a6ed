"""Cells, layouts, the .qcl file format and the built-in circuits.

Coordinates are in nanometers. A cell is a square with four dots; for
rotation 0 the dots sit on the square's diagonals, for rotation 45 at the
edge midpoints. Dot 1 is the dot with the greatest (x + y) (ties broken
toward +x), then counterclockwise. Polarization +1 puts the two mobile
electrons on dots 1 and 3, polarization -1 on dots 2 and 4.

A `Layout` stores its cells as columns, in cell order: `ids` (a tuple of
str); `x`, `y`, `size` and `dot_offset` (float64); `rotation`, `zone` and
`role` (int64, a role being its index in ROLES); and `pol` (float64, a
fixed cell's polarization, NaN elsewhere). The kink matrix, the engines,
the sweeps and the CLI read the columns, and `Layout.id_order`, the
positions in ascending id order, sorted once per layout. `Layout.cells`
gives the same cells as `Cell` objects, built when first read.

The rules of a cell are one ordered table, `_rules`, shared by `Cell`,
which checks one cell's values, and by every layout builder, which checks
its columns in bulk (`_from_columns`). `parse_layout` builds the columns
in one pass over a document, which stops at the first line it cannot
read. It raises the first rule broken in document order: `line N: ...`,
or else the layout's own message.
"""

from __future__ import annotations

import inspect
import math
import re
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import kernels

ROLES = ("normal", "input", "output", "fixed")
NORMAL, INPUT, OUTPUT, FIXED = range(4)  # role codes: positions in ROLES
_ROLE_CODE = {role: code for code, role in enumerate(ROLES)}
# What an id may not hold, as it would break a .qcl line or a CSV row; nor
# may an id begin with `#`, which would turn its CSV row into a comment.
_BAD_ID = re.compile(r'[\s=,"\x00-\x1f\x7f-\x9f]')
_MAX = sys.float_info.max  # |v| <= _MAX holds for every finite v

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


def _valid_ids(ids):
    """Whether an id may name a cell; for an array of ids, where each may,
    or True if all may."""
    if not isinstance(ids, np.ndarray):
        return bool(ids) and ids[0] != "#" and not _BAD_ID.search(ids)
    ids = ids.tolist()
    if all(ids) and "#" not in [cid[0] for cid in ids] and not _BAD_ID.search("".join(ids)):
        return True
    return np.array([_valid_ids(cid) for cid in ids], dtype=bool)


def _rules(id, center_x, center_y, size, dot_offset, rotation, clock_zone,
           role, code, has_pol, pol) -> tuple:
    """The rules of a cell, in the order they are checked, as a flat tuple
    of pairs: whether the fields keep the rule, and the message, in the
    fields, of a cell that breaks it. The tests hold on one cell's Python
    scalars and on every cell's columns (`id` an object array) alike.
    `code` is the role's (-1 if unknown); `has_pol`, whether the cell has a
    polarization, is a fact apart from `pol`, which is NaN where not."""
    free = code != FIXED
    return (
        _valid_ids(id), "invalid cell id {id!r}",
        abs(center_x) <= _MAX, "cell {id}: center_x must be finite, got {center_x}",
        abs(center_y) <= _MAX, "cell {id}: center_y must be finite, got {center_y}",
        abs(size) <= _MAX, "cell {id}: size must be finite, got {size}",
        abs(dot_offset) <= _MAX, "cell {id}: dot_offset must be finite, got {dot_offset}",
        size > 0, "cell {id}: size must be > 0",
        (0 < dot_offset) & (dot_offset <= size / 2),
        "cell {id}: dot_offset must be in (0, size/2]",
        (rotation == 0) | (rotation == 45), "cell {id}: rotation must be 0 or 45",
        code >= 0, "cell {id}: unknown role {role!r}",
        (clock_zone == 0) | (clock_zone == 1) | (clock_zone == 2) | (clock_zone == 3),
        "cell {id}: clock zone must be 0..3",
        has_pol | free, "cell {id}: fixed cell requires a polarization",
        (abs(pol) <= 1) | free, "cell {id}: fixed polarization outside [-1, 1]",
        has_pol <= (code == FIXED), "cell {id}: polarization only allowed on fixed cells",
    )  # `<=` on bools is implication; `~` would negate no Python bool


def _first_broken(fields: tuple) -> Optional[tuple[int, str]]:
    """The position of the first cell that breaks a rule of `_rules`, and
    the message of the first rule it breaks; or None. `fields` are the
    arguments of `_rules`; one cell is at position 0."""
    rules = _rules(*fields)
    tests = rules[::2]
    if not isinstance(fields[0], np.ndarray):
        if all(tests):
            return None
        message = next(m for keeps, m in zip(tests, rules[1::2]) if not keeps)
        return 0, message.format(**dict(zip(inspect.signature(_rules).parameters, fields)))
    keep = np.ones(len(fields[0]), dtype=bool)
    for keeps in tests:
        keep &= keeps
    if keep.all():
        return None
    k = int(keep.argmin())
    return k, _first_broken(tuple(column[k] for column in fields))[1]


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
        if self.dot_offset is None:
            object.__setattr__(self, "dot_offset", self.size / 4)
        pol = self.fixed_polarization
        broken = _first_broken((
            self.id, self.center_x, self.center_y, self.size, self.dot_offset,
            self.rotation, self.clock_zone, self.role,
            ROLES.index(self.role) if self.role in ROLES else -1,
            pol is not None, math.nan if pol is None else pol))
        if broken is not None:
            raise LayoutError(broken[1])

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


def _first_overlap(x: np.ndarray, y: np.ndarray,
                   size: np.ndarray) -> Optional[tuple[int, int]]:
    """The first pair (i, j), in index order, of cells that overlap as
    `cells_overlap` decides, or None."""
    i, j = kernels.near_pairs(x, y, float(size.max(initial=0.0)))
    if not i.size:
        return None
    with np.errstate(over="ignore"):  # as Python floats, overflow gives inf
        half = (size[i] + size[j]) / 2
        overlap = np.maximum(np.abs(x[i] - x[j]) - half,
                             np.abs(y[i] - y[j]) - half) <= 0
    k = int(overlap.argmax())
    return (int(i[k]), int(j[k])) if overlap[k] else None


class Layout:
    """A named, checked set of cells, stored as columns (see the module
    docstring). `Layout(name, cells, constants_mode)` builds one from
    `Cell` objects; `==` compares the name, the cells and the mode."""

    def __init__(self, name: str, cells: Sequence[Cell],
                 constants_mode: Optional[str] = None) -> None:
        cells = tuple(cells)
        self._store(name, constants_mode, [c.id for c in cells],
                    [*zip(*[(c.center_x, c.center_y, c.size, c.dot_offset)
                            for c in cells])],
                    [*zip(*[(c.rotation, c.clock_zone, _ROLE_CODE[c.role])
                            for c in cells])],
                    [math.nan if c.fixed_polarization is None
                     else c.fixed_polarization for c in cells])
        self.cells = cells
        self._check()

    def _store(self, name, constants_mode, ids, reals, ints, pol) -> None:
        self.name, self.constants_mode, self.ids = name, constants_mode, tuple(ids)
        n = len(self.ids)
        self._reals = np.array(reals, dtype=np.float64).reshape(4, n)
        self._ints = np.array(ints, dtype=np.int64).reshape(3, n)
        self.pol = np.array(pol, dtype=np.float64).reshape(n)
        for array in (self._reals, self._ints, self.pol):
            array.flags.writeable = False
        self.x, self.y, self.size, self.dot_offset = self._reals
        self.rotation, self.zone, self.role = self._ints

    def _check(self) -> None:
        """`Layout`'s own rules, in the order they are reported."""
        if len(set(self.ids)) < len(self.ids):
            cid = next(c for k, c in enumerate(self.ids) if self.ids.index(c) < k)
            raise LayoutError(f"duplicate cell id {cid!r}")
        if self.constants_mode not in (None, "paper", "codata"):
            raise LayoutError(f"unknown constants mode {self.constants_mode!r}")
        first = _first_overlap(self.x, self.y, self.size)
        if first is not None:
            i, j = first
            raise LayoutError(f"cells {self.ids[i]!r} and {self.ids[j]!r} overlap")
        driver = self.driver_mask
        if not driver.all() and not driver.any():
            raise LayoutError("layout has undriven cells but no input or fixed cell")

    @cached_property
    def cells(self) -> tuple[Cell, ...]:
        """The cells as `Cell` objects, built when first read."""
        rotation, zone, role = self._ints.tolist()
        return tuple(map(Cell, self.ids, *self._reals.tolist(), rotation,
                         [ROLES[r] for r in role], zone,
                         [p if r == FIXED else None for r, p in zip(role, self.pol.tolist())]))

    @cached_property
    def id_order(self) -> np.ndarray:
        """The cell positions in ascending id order (int64, read-only)."""
        ids = self.ids
        order = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.int64)
        order.flags.writeable = False
        return order

    @property
    def driver_mask(self) -> np.ndarray:
        """True at the input and fixed cells, in cell order."""
        return (self.role == INPUT) | (self.role == FIXED)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Layout):
            return NotImplemented
        return ((self.name, self.cells, self.constants_mode)
                == (other.name, other.cells, other.constants_mode))

    def __repr__(self) -> str:
        return (f"Layout(name={self.name!r}, cells={self.cells!r}, "
                f"constants_mode={self.constants_mode!r})")

    def index(self, cell_id: str) -> int:
        """Position of the cell `cell_id`."""
        try:
            return self.ids.index(cell_id)
        except ValueError:
            raise LayoutError(f"no cell with id {cell_id!r}") from None

    def cell(self, cell_id: str) -> Cell:
        return self.cells[self.index(cell_id)]

    def output_id(self) -> str:
        """Id of the one output cell."""
        outs = np.flatnonzero(self.role == OUTPUT)
        if len(outs) != 1:
            raise LayoutError(f"layout {self.name!r} has {len(outs)} output cells, expected 1")
        return self.ids[outs[0]]

    def output_cell(self) -> Cell:
        return self.cell(self.output_id())


def _from_columns(name: str, constants_mode: Optional[str], ids, reals, ints,
                  roles, has_pol, pol, lines: Optional[list[int]] = None,
                  error: Optional[ParseError] = None) -> Layout:
    """A layout from columns in cell order: `ids` and `roles` (str), `reals`
    (x, y, size, dot_offset), `ints` (rotation, zone), `has_pol` and `pol`
    (NaN where a cell has none). The first cell that breaks a rule of a
    cell raises its message, as `line N: ...` with N from `lines` if given;
    then `error`, a later line's diagnostic, if given; then `Layout`'s own
    rules."""
    n = len(ids)
    reals = np.array(reals, dtype=np.float64).reshape(4, n)
    try:
        ints = np.array(ints, dtype=np.int64).reshape(2, n)
    except OverflowError:  # a rotation or zone beyond int64, which breaks its rule
        ints = np.array(ints, dtype=object).reshape(2, n)
    codes = np.array([_ROLE_CODE.get(role, -1) for role in roles], dtype=np.int64)
    pol = np.array(pol, dtype=np.float64).reshape(n)
    broken = _first_broken((np.array(ids, dtype=object), *reals, *ints, roles, codes,
                            np.array(has_pol, dtype=bool).reshape(n), pol))
    if broken is not None:
        k, message = broken
        raise LayoutError(message) if lines is None else ParseError(message, lines[k])
    if error is not None:
        raise error
    layout = Layout.__new__(Layout)
    layout._store(name, constants_mode, ids, reals, (*ints, codes), pol)
    layout._check()
    return layout


# --------------------------------------------------------------------------
# .qcl serialization

def _format_real(value: float) -> str:
    """Six decimals at most, trailing zeros cut, where that text reads back
    as `value`; else `repr(value)`, which always does."""
    text = f"{value:.6f}".rstrip("0").rstrip(".")
    if text in ("-0", ""):
        text = "0"
    return text if float(text) == value else repr(value)


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
    """Parse a .qcl document into a validated Layout: one pass builds the
    columns and each cell's line number, and stops at the first line it
    cannot read, whose diagnostic `_from_columns` raises unless a cell
    before it breaks a rule. Numbers go through Python's `float` and
    `int`: numpy's conversions accept other texts."""
    header, constants_mode, error = False, None, None
    ids, x, y, size, offset, rotation, zone, role, has_pol, pol, lines = columns = [
        [] for _ in range(11)]
    try:
        for lineno, raw in enumerate(text.splitlines(), 1):
            tokens = raw.split()
            if not tokens or tokens[0][0] == "#":
                continue
            if header and tokens[0] == "cell":
                try:
                    fields = dict([token.split("=", 1) for token in tokens[1:]])
                    # no duplicate or unknown key
                    if len(fields) != len(tokens) - 1 or not fields.keys() <= _CELL_KEYS:
                        raise ValueError
                    ids.append(fields["id"])
                    x.append(float(fields["x"]))
                    y.append(float(fields["y"]))
                    size.append(float(fields.get("size", "18")))
                    offset.append(float(fields["offset"]) if "offset" in fields
                                  else size[-1] / 4)
                    rotation.append(int(fields.get("rot", "0")))
                    zone.append(int(fields.get("clock", "0")))
                    role.append(fields["role"])
                    has_pol.append("pol" in fields)
                    pol.append(float(fields.get("pol", "nan")))
                    lines.append(lineno)
                except (KeyError, ValueError):
                    for column in columns:  # drop the line's partial cell
                        del column[len(lines):]
                    raise _cell_error(tokens, lineno) from None
            elif not header:
                if raw.strip() != "qcl 1":
                    raise ParseError(f"expected 'qcl 1' header, got {raw.strip()!r}", lineno)
                header = True
            elif tokens[0] != "constants":
                raise ParseError(f"unknown directive {tokens[0]!r}", lineno)
            elif len(tokens) == 2 and tokens[1] in ("paper", "codata"):
                constants_mode = tokens[1]
            else:
                raise ParseError("expected 'constants paper' or 'constants codata'", lineno)
        if not header:
            raise ParseError("empty document (missing 'qcl 1' header)", 1)
    except ParseError as exc:
        error = exc
    return _from_columns(name, constants_mode, ids, (x, y, size, offset),
                         (rotation, zone), role, has_pol, pol, lines, error)


def _cell_error(tokens: list[str], lineno: int) -> ParseError:
    """The diagnostic of a cell line that `parse_layout` cannot read: a
    token that is not key=value or has an unknown or repeated key, a
    missing key or a bad number, the first found."""
    fields: dict[str, str] = {}
    for token in tokens[1:]:
        key, equals, value = token.partition("=")
        if not equals:
            return ParseError(f"expected key=value, got {token!r}", lineno)
        if key not in _CELL_KEYS:
            return ParseError(f"unknown key {key!r}", lineno)
        if key in fields:
            return ParseError(f"duplicate key {key!r}", lineno)
        fields[key] = value
    for required in ("id", "x", "y", "role"):
        if required not in fields:
            return ParseError(f"missing required key {required!r}", lineno)
    try:  # size first, then the rest in field order
        for key, convert in (("size", float), ("x", float), ("y", float), ("offset", float),
                             ("rot", int), ("clock", int), ("pol", float)):
            if key in fields:
                convert(fields[key])
    except ValueError as exc:
        return ParseError(f"bad numeric value ({exc})", lineno)


# --------------------------------------------------------------------------
# Built-in layouts

_WIRE_RE = re.compile(r"^wire\((\d+)\)$")

BUILTIN_NAMES = ("wire(n)", "majority", "inv2", "inv3")
# The most cells `wire(n)` takes, checked before anything is allocated:
# 100 times the largest layout of the tests and benchmarks (10,000 cells).
MAX_WIRE_CELLS = 10**6


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
    match = _WIRE_RE.match(name)
    if match:
        try:
            n = int(match.group(1).lstrip("0") or 0)
        except ValueError:  # more digits than int() reads: over the bound
            n = MAX_WIRE_CELLS + 1
        if n < 2:
            raise LayoutError("wire needs at least 2 cells")
        if n > MAX_WIRE_CELLS:
            raise LayoutError(f"wire needs at most {MAX_WIRE_CELLS} cells")
        name = f"wire({n})"
        cells = [("in", 0.0, 0.0, "fixed"),
                 *((f"c{i}", i * pitch, 0.0, "normal") for i in range(1, n - 1)),
                 ("out", (n - 1) * pitch, 0.0, "output")]
    elif name == "majority":
        cells = [("a", -pitch, 0.0, "input"), ("b", 0.0, pitch, "input"),
                 ("c", 0.0, -pitch, "input"), ("m", 0.0, 0.0, "normal"),
                 ("out", pitch, 0.0, "output")]
    elif name == "inv2":
        cells = [("in", 0.0, 0.0, "fixed"), ("out", pitch, pitch, "output")]
    elif name == "inv3":
        cells = [("in", 0.0, 0.0, "fixed"), ("mid", pitch, 0.0, "normal"),
                 ("out", 2 * pitch, pitch, "output")]
    else:
        raise LayoutError(f"unknown builtin layout {name!r} (known: {', '.join(BUILTIN_NAMES)})")
    ids, x, y, roles = zip(*cells)
    n = len(ids)
    fixed = [role == "fixed" for role in roles]
    return _from_columns(name, None, ids, (x, y, (size,) * n, (size / 4,) * n),
                         ((0,) * n, (0,) * n), roles, fixed,
                         [1.0 if f else math.nan for f in fixed])


# --------------------------------------------------------------------------
# Displacement

def _neighbors(layout: Layout, cell_id: str) -> tuple[int, int]:
    """Positions of the cell `cell_id` and of its previous neighbor."""
    k = layout.index(cell_id)
    x, y = layout.x.tolist(), layout.y.tolist()
    others = [j for j in range(len(x)) if j != k]
    if not others:
        raise LayoutError(f"cell {cell_id!r} has no neighbor")
    return k, min(others, key=lambda j: (math.dist((x[j], y[j]), (x[k], y[k])),
                                         layout.ids[j]))


def previous_neighbor(layout: Layout, cell_id: str) -> str:
    """Id of the nearest other cell by center distance; ties broken by
    lowest id."""
    return layout.ids[_neighbors(layout, cell_id)[1]]


def displacement_axis(layout: Layout, cell_id: str) -> tuple[float, float]:
    """Unit direction from the previous neighbor toward the cell.

    Each component is active only where the bounding boxes are separated
    along that axis, so an in-line cell moves along its line and a diagonal
    cell moves along the diagonal.
    """
    k, j = _neighbors(layout, cell_id)
    x, y, size = layout.x.tolist(), layout.y.tolist(), layout.size.tolist()
    half = (size[k] + size[j]) / 2
    ax = ay = 0.0
    dx = x[k] - x[j]
    dy = y[k] - y[j]
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
    k, j = _neighbors(layout, cell_id)
    reals = layout._reals.copy()
    x, y, size = reals[0].tolist(), reals[1].tolist(), reals[2].tolist()
    half = (size[k] + size[j]) / 2
    eps = 1e-12
    if abs(axis[0]) > eps:
        reals[0, k] = x[j] + math.copysign(half + new_gap, axis[0])
    if abs(axis[1]) > eps:
        reals[1, k] = y[j] + math.copysign(half + new_gap, axis[1])
    return _from_columns(layout.name, layout.constants_mode, layout.ids, reals,
                         layout._ints[:2], [ROLES[r] for r in layout.role.tolist()],
                         layout.role == FIXED, layout.pol)
