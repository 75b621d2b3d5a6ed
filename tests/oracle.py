"""Independent brute-force references.

Recomputes configuration and kink energies from first principles (explicit
dot enumeration, double loop over dot pairs) without touching any of the
package's electrostatics code paths. Used to cross-check kink_matrix
(`assert_brute_force_energies`).

`reference_bistable_relax` is the bistable engine written against the
kink matrix's pair dict alone: every field sums over all other cells in
sorted id order, reading each energy with `kink_energy`. The engine's
neighbor-list sweeps must match it bit for bit.

`kink_energy`, `kink_matrix_from_pairs`, `clock_gamma` and
`write_csv_rows` are test conveniences: the energy of one pair read from
`KinkMatrix.pairs`, a `KinkMatrix` built from a dict like `pairs`, the
clock of one zone as the engines compute it, and the row-template CSV
writer that the column-wise `sweeps.write_csv` must match byte for byte.
`SCI_EDGES` holds the doubles whose six-digit text is hardest to get
right, for the tests of `kernels.format_sci` and `write_csv`.

`reference_parse_layout` reads a .qcl document line by line, checking each
cell line with `reference_cell_error`, its own copy of the rules of a cell,
and builds the `Layout` from the cells: `geometry.parse_layout` must return
the same layout bit for bit, or raise the same exception type and text.
`Cell(...)` must raise what `reference_cell_error` returns, or accept the
fields where it returns None.
"""

import math
import re
from typing import Optional

import numpy as np

from qcasim import kernels
from qcasim.electrostatics import KinkMatrix
from qcasim.engines import ConvergenceError, resolve_drives
from qcasim.geometry import _CELL_KEYS, Cell, Layout, LayoutError, ParseError
from qcasim.sweeps import sci

NM = 1e-9


def brute_dots(cell):
    d = cell.dot_offset
    if cell.rotation == 0:
        rel = [(d, d), (-d, d), (-d, -d), (d, -d)]
    else:
        rel = [(d, 0.0), (0.0, d), (-d, 0.0), (0.0, -d)]
    return [(cell.center_x + x, cell.center_y + y) for x, y in rel]


def brute_charges(sign, e, model):
    occupied = {0, 2} if sign > 0 else {1, 3}
    if model == "electron":
        return [-e if i in occupied else 0.0 for i in range(4)]
    return [-e / 2 if i in occupied else e / 2 for i in range(4)]


def brute_config_energy(cell_a, pol_a, cell_b, pol_b, k, e, model):
    total = 0.0
    for (xa, ya), qa in zip(brute_dots(cell_a), brute_charges(pol_a, e, model)):
        for (xb, yb), qb in zip(brute_dots(cell_b), brute_charges(pol_b, e, model)):
            if qa == 0.0 or qb == 0.0:
                continue
            r = math.hypot(xa - xb, ya - yb) * NM
            total += k * qa * qb / r
    return total


def brute_kink(cell_a, cell_b, k, e, model):
    if cell_b.id < cell_a.id:
        cell_a, cell_b = cell_b, cell_a
    return (brute_config_energy(cell_a, +1, cell_b, -1, k, e, model)
            - brute_config_energy(cell_a, +1, cell_b, +1, k, e, model))


def brute_kink_matrix(layout, radius, k, e, model):
    pairs = {}
    cells = list(layout.cells)
    for i, a in enumerate(cells):
        for b in cells[i + 1:]:
            dist = math.hypot(a.center_x - b.center_x, a.center_y - b.center_y)
            if dist <= radius:
                key = tuple(sorted((a.id, b.id)))
                pairs[key] = brute_kink(a, b, k, e, model)
    return pairs


def assert_brute_force_energies(matrix, layout, radius, constants):
    """The in-radius pairs and energies of `brute_kink_matrix`. Each energy
    is a difference of sums of Coulomb terms that may cancel to rounding
    noise, so it is compared to within 1e-12 of one term of its pair, at
    any length scale (pytest.approx's default absolute 1e-12 would accept
    any two energies in J)."""
    expected = brute_kink_matrix(layout, radius, constants.coulomb_k,
                                 constants.electron_charge, "neutralized")
    assert set(matrix.pairs) == set(expected)
    by_id = {c.id: c for c in layout.cells}
    for (a, b), value in expected.items():
        term = constants.coulomb_k * constants.electron_charge ** 2 / (
            math.dist(by_id[a].center, by_id[b].center) * 1e-9)
        assert abs(matrix.pairs[(a, b)] - value) <= 1e-12 * term


def reference_local_field(cell_id, polarizations, kink):
    total = 0.0
    for other in sorted(polarizations):
        if other == cell_id:
            continue
        energy = kink_energy(kink, cell_id, other)
        if energy != 0.0:
            total += energy * polarizations[other]
    return total


def reference_bistable_relax(layout, kink, params, inputs=None):
    drives = resolve_drives(layout, inputs)
    pols = {c.id: 0.0 for c in layout.cells}
    pols.update(drives)
    free = [c.id for c in layout.cells if c.id not in drives]
    two_gamma = 2.0 * params.gamma
    worst_id = None
    for _ in range(params.max_iterations):
        worst = 0.0
        worst_id = None
        for cid in free:
            x = reference_local_field(cid, pols, kink) / two_gamma
            if x * x == math.inf:  # the true value rounds to +-1
                new = math.copysign(1.0, x)
            else:
                new = x / math.sqrt(1.0 + x * x)
            change = abs(new - pols[cid])
            if change > worst:
                worst = change
                worst_id = cid
            pols[cid] = new
        if worst < params.convergence_tolerance:
            return pols
    raise ConvergenceError(
        f"bistable iteration did not converge in {params.max_iterations} sweeps; "
        f"worst cell {worst_id!r}")


def kink_energy(kink, cell_i, cell_j):
    """Kink energy of a pair, 0.0 if beyond the radius of effect."""
    key = (cell_i, cell_j) if cell_i < cell_j else (cell_j, cell_i)
    return kink.pairs.get(key, 0.0)


def kink_matrix_from_pairs(pairs, radius_of_effect):
    """A `KinkMatrix` from a dict of (id_i, id_j) with id_i < id_j ->
    energy in J, like `KinkMatrix.pairs`, its keys in any order."""
    assert all(a < b for a, b in pairs), "pair keys list the lower id first"
    ids = sorted({cid for key in pairs for cid in key})
    index = {cid: k for k, cid in enumerate(ids)}
    entries = sorted((index[a], index[b], energy)
                     for (a, b), energy in pairs.items())
    first, second, energies = zip(*entries) if entries else ((), (), ())
    return KinkMatrix.from_arrays(ids, np.array(first, dtype=np.int64),
                                  np.array(second, dtype=np.int64),
                                  np.array(energies, dtype=np.float64),
                                  radius_of_effect)


def clock_gamma(zone, t, params):
    """The clock tunneling energy of one zone at time t under `params`, as
    the engines compute it (`kernels.clock_value`)."""
    return kernels.clock_value(t, zone, float(params.clock_periods),
                               params.total_time, params.clock_shift,
                               params.clock_amplitude, params.clock_low,
                               params.clock_high)


def write_csv_rows(destination, snapshot, header, rows, trailer=()):
    """The CSV format written row by row with one `%` template: a column
    prints as `%.5e` when its value in the first row is a float, else as
    `%s`."""
    lines = [f"# {key}={sci(value) if isinstance(value, float) else value}"
             for key, value in sorted(snapshot.items())]
    lines.append(",".join(header))
    if rows:
        template = ",".join("%.5e" if isinstance(value, float) else "%s"
                            for value in rows[0])
        lines += [template % tuple(row) for row in rows]
    lines.extend(f"# {text}" for text in trailer)
    lines.append("")
    destination.write("\n".join(lines))


def _neighbors(values, ulps):
    """values and their neighbors up to `ulps` ulps away on either side
    (the largest double's upward neighbor is inf)."""
    out = [values]
    with np.errstate(over="ignore"):
        for direction in (math.inf, -math.inf):
            step = values
            for _ in range(ulps):
                step = np.nextafter(step, direction)
                out.append(step)
    return np.concatenate(out)


# NaNs with either sign and several payloads, by their bits.
NAN_BITS = (0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
            0x7FF4000000000123, 0xFFFFFFFFFFFFFFFF)

# Doubles whose six-digit text is hardest to get right, of both signs:
# - the doubles nearest the ties 9.999995e<k> (whose rounding carries into
#   the exponent), 1.234565e<k> and 1.234575e<k>, for k in -40..40, with
#   their neighbors up to 2 ulps away;
# - exact ties, which `%` rounds half to even: 7-digit integers ending in
#   5, and half-, quarter- and eighth-integers with 7 digits, the carry at
#   999999.5 among them;
# - the ends of the normal range, subnormals, the ends of the range that
#   qcasim_format_sci certifies (1e-38 and 1e38), +-inf and NaNs;
# - +-0, which qcasim_format_sci writes as the exact case it is.
SCI_EDGES = np.concatenate([
    _neighbors(np.array([float(f"{digits}e{k}") for digits in
                         ("9.999995", "1.234565", "1.234575")
                         for k in range(-40, 41)]), 2),
    np.array([1234565.0, 1234575.0, 9999995.0, 1000005.0, 12345650.0,
              12345.25, 12345.75, 1234.125, 1234.375]),
    np.arange(100000.5, 100100.0), np.arange(999900.5, 1000000.0),
    _neighbors(np.array([2.2250738585072014e-308, 1.7976931348623157e308,
                         5e-324, 2.225073858507201e-308, 1e-310,
                         1e-38, 1e38]), 2),
    np.array([0.0, math.inf]),
    np.array(NAN_BITS, dtype=np.uint64).view(np.float64),
])
SCI_EDGES = np.concatenate([SCI_EDGES, -SCI_EDGES])


def reference_cell_error(id, center_x, center_y, size=18.0, dot_offset=None, rotation=0,
                         role="normal", clock_zone=0,
                         fixed_polarization=None) -> Optional[LayoutError]:
    """The error `Cell(...)` raises on these fields, or None: the rules of
    a cell checked one by one, in order, apart from the package's code."""
    if not id or id[0] == "#" or re.search(r'[\s=,"\x00-\x1f\x7f-\x9f]', id):
        return LayoutError(f"invalid cell id {id!r}")
    if dot_offset is None:
        dot_offset = size / 4
    for name, value in (("center_x", center_x), ("center_y", center_y), ("size", size),
                        ("dot_offset", dot_offset)):
        if not math.isfinite(value):
            return LayoutError(f"cell {id}: {name} must be finite, got {value}")
    if size <= 0:
        return LayoutError(f"cell {id}: size must be > 0")
    if not (0 < dot_offset <= size / 2):
        return LayoutError(f"cell {id}: dot_offset must be in (0, size/2]")
    if rotation not in (0, 45):
        return LayoutError(f"cell {id}: rotation must be 0 or 45")
    if role not in ("normal", "input", "output", "fixed"):
        return LayoutError(f"cell {id}: unknown role {role!r}")
    if clock_zone not in (0, 1, 2, 3):
        return LayoutError(f"cell {id}: clock zone must be 0..3")
    if role == "fixed":
        if fixed_polarization is None:
            return LayoutError(f"cell {id}: fixed cell requires a polarization")
        if not -1.0 <= fixed_polarization <= 1.0:
            return LayoutError(f"cell {id}: fixed polarization outside [-1, 1]")
    elif fixed_polarization is not None:
        return LayoutError(f"cell {id}: polarization only allowed on fixed cells")
    return None


def reference_parse_layout(text: str, name: str) -> Layout:
    """Parse a document line by line into cells: the parse that reports
    the first rule broken, with its line number."""
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
            cell = dict(
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
        except ValueError as exc:
            raise ParseError(f"bad numeric value ({exc})", lineno) from exc
        error = reference_cell_error(**cell)
        if error is not None:
            raise ParseError(str(error), lineno) from error
        cells.append(Cell(**cell))
    if not saw_header:
        raise ParseError("empty document (missing 'qcl 1' header)", 1)
    return Layout(name=name, cells=tuple(cells), constants_mode=constants_mode)
