"""Pairwise Coulomb configuration energies and kink energies.

The kink energy between two cells is the electrostatic cost of holding
them at opposite rather than equal polarization:

    E_kink(A, B) = E_config(A:+1, B:-1) - E_config(A:+1, B:+1)

Two charge models are available for the configuration energy:

``neutralized`` (default)
    Every dot carries its electron occupancy charge plus a +e/2
    neutralizing background, i.e. -e/2 on the occupied diagonal and +e/2
    on the empty one. Each cell is then a pure quadrupole, the kink energy
    is exactly symmetric in its arguments for any cell rotations, and
    in-line couplings dominate diagonal ones (which is what makes the
    majority gate compute a majority).

``electron``
    Only the two mobile electrons carry charge (-e each); the 2x2
    electron-electron sum. Simpler, but diagonal couplings come out
    stronger than in-line ones.

Positive kink energy means equal polarization is favored (wire-like
coupling); negative means opposite polarization is favored (inverting
coupling, e.g. diagonally placed cells).

All energies are in joules; distances between dots are taken in meters.
"""

from __future__ import annotations

import math
from functools import cached_property
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from . import kernels
from .constants import PhysicalConstants
from .geometry import Cell, Layout, cells_overlap, dot_offsets, electron_dots

NM_TO_M = 1e-9

CHARGE_MODELS = ("neutralized", "electron")
DEFAULT_CHARGE_MODEL = "neutralized"


class ElectrostaticsError(ValueError):
    """Degenerate geometry or invalid physical arguments."""


def coulomb_pair(q1: float, q2: float, r: float, constants: PhysicalConstants) -> float:
    """Coulomb energy k*q1*q2/(eps_r*r) of two point charges r meters apart."""
    if r <= 0:
        raise ElectrostaticsError(f"distance must be strictly positive, got {r}")
    return constants.coulomb_k * q1 * q2 / (constants.relative_permittivity * r)


def _dot_charges(cell: Cell, polarization_sign: float, model: str,
                 constants: PhysicalConstants) -> list[float]:
    e = constants.electron_charge
    occupied = electron_dots(polarization_sign)
    if model == "electron":
        return [-e if i in occupied else 0.0 for i in range(4)]
    if model == "neutralized":
        return [-e / 2 if i in occupied else e / 2 for i in range(4)]
    raise ElectrostaticsError(f"unknown charge model {model!r}")


def config_energy(cell_a: Cell, pol_a: float, cell_b: Cell, pol_b: float,
                  constants: PhysicalConstants,
                  charge_model: str = DEFAULT_CHARGE_MODEL) -> float:
    """Intercellular electrostatic energy for one polarization assignment.

    Sums coulomb_pair over all cross-cell dot pairs carrying charge, in
    fixed order (cell with the lower id first, dots in numbering order) so
    the result is bit-for-bit deterministic. Dot positions are taken in the
    frame of the lower-id cell, so the energy depends on the centers only
    through their difference: pairs with the same relative geometry get
    the same bits wherever they sit.
    """
    if cells_overlap(cell_a, cell_b):
        raise ElectrostaticsError(f"cells {cell_a.id!r} and {cell_b.id!r} overlap")
    if cell_b.id < cell_a.id:
        cell_a, pol_a, cell_b, pol_b = cell_b, pol_b, cell_a, pol_a
    dx = cell_b.center_x - cell_a.center_x
    dy = cell_b.center_y - cell_a.center_y
    dots_a = dot_offsets(cell_a)
    dots_b = [(dx + x, dy + y) for x, y in dot_offsets(cell_b)]
    charges_a = _dot_charges(cell_a, pol_a, charge_model, constants)
    charges_b = _dot_charges(cell_b, pol_b, charge_model, constants)
    total = 0.0
    for (xa, ya), qa in zip(dots_a, charges_a):
        if qa == 0.0:
            continue
        for (xb, yb), qb in zip(dots_b, charges_b):
            if qb == 0.0:
                continue
            r = math.hypot(xa - xb, ya - yb) * NM_TO_M
            if r == 0.0:
                raise ElectrostaticsError(
                    f"coincident dots between cells {cell_a.id!r} and {cell_b.id!r}")
            total += coulomb_pair(qa, qb, r, constants)
    return total


def kink_energy_pair(cell_a: Cell, cell_b: Cell, constants: PhysicalConstants,
                     charge_model: str = DEFAULT_CHARGE_MODEL) -> float:
    """Kink energy, Eq-style opposite-minus-same configuration energies.

    Evaluated with the lower-id cell as the reference so the result is
    symmetric under argument swap regardless of charge model.
    """
    if cell_b.id < cell_a.id:
        cell_a, cell_b = cell_b, cell_a
    opposite = config_energy(cell_a, +1.0, cell_b, -1.0, constants, charge_model)
    same = config_energy(cell_a, +1.0, cell_b, +1.0, constants, charge_model)
    return opposite - same


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class KinkMatrix:
    """Sparse symmetric map of pairwise kink energies within a cutoff radius.

    Stored as arrays over `ids`, the cell ids in ascending order: pair k
    couples `ids[first[k]]` and `ids[second[k]]`, first[k] < second[k],
    with kink energy `energies[k]` in J, pairs in lexicographic (first,
    second) order, that is in id order. `index` and `pairs` (dicts) derive
    from the arrays, each once, when first read; `engines.coupling` turns
    the arrays into the neighbor list the engines read.
    """

    @classmethod
    def from_arrays(cls, ids: Sequence[str], first: np.ndarray,
                    second: np.ndarray, energies: np.ndarray,
                    radius_of_effect: float) -> "KinkMatrix":
        """From the stored form itself; `ids` ascending, pairs in
        lexicographic (first, second) order with first < second."""
        matrix = cls()
        matrix.ids = tuple(ids)
        matrix.first = _frozen(np.asarray(first, dtype=np.int64))
        matrix.second = _frozen(np.asarray(second, dtype=np.int64))
        matrix.energies = _frozen(np.asarray(energies, dtype=np.float64))
        matrix.radius_of_effect = radius_of_effect  # nm
        return matrix

    @cached_property
    def index(self) -> dict:
        """cell id -> position in `ids`."""
        return {cid: k for k, cid in enumerate(self.ids)}

    @cached_property
    def pairs(self) -> dict:
        """(id_i, id_j) with id_i < id_j -> energy in J, in id order."""
        lower, higher = self.pair_ids()
        return dict(zip(zip(lower, higher), self.energies.tolist()))

    def pair_ids(self) -> tuple[list, list]:
        """The lower and the higher id of every pair, in pair order."""
        ids = np.array(self.ids, dtype=object)
        return ids[self.first].tolist(), ids[self.second].tolist()

    def __len__(self) -> int:
        return len(self.energies)


def _within(dx: np.ndarray, dy: np.ndarray, radius: float) -> np.ndarray:
    """math.dist(a.center, b.center) <= radius for each pair (a, b) whose
    centers differ by (dx, dy): math.dist takes the absolute differences,
    so it reads math.hypot(dx, dy).

    The squares decide where r**2 lies between 2**-900 and 2**900 and a
    pair's squared distance differs from it by more than 2**-40 of it: that
    margin dwarfs their rounding error (a few ulp, plus at most 2**-1074
    lost to underflow), and a square that overflows is far outside. The
    other pairs, all of them when r**2 leaves that range, are decided by
    math.hypot, once per distinct (|dx|, |dy|).
    """
    d2 = dx * dx + dy * dy
    r2 = radius * radius
    within = d2 <= r2
    if 2.0 ** -900 <= r2 <= 2.0 ** 900:
        unsure = np.abs(d2 - r2) <= r2 * 2.0 ** -40
    else:
        unsure = np.ones(len(d2), dtype=bool)
    if unsure.any():
        # (|dx|, |dy|) as one complex number (set part by part: 1j * inf
        # has a nan real part)
        absolute = np.empty(np.count_nonzero(unsure), dtype=complex)
        absolute.real, absolute.imag = np.abs(dx[unsure]), np.abs(dy[unsure])
        distinct, inverse = np.unique(absolute, return_inverse=True)
        decided = [math.hypot(z.real, z.imag) <= radius for z in distinct.tolist()]
        within[unsure] = np.array(decided)[inverse]
    return within


def _bits(values: np.ndarray) -> np.ndarray:
    """The bit patterns of `values + 0.0`, as int64: equal where the values
    are equal, -0.0 and 0.0 included (the values are never NaN)."""
    return (values + 0.0).view(np.int64)


def kink_matrix(layout: Layout, radius_of_effect: float,
                constants: PhysicalConstants,
                charge_model: str = DEFAULT_CHARGE_MODEL) -> KinkMatrix:
    """Kink energies for every unordered pair within the radius of effect.

    The radius cutoff applies to center-to-center distance in nm, as
    `math.dist` computes it. The candidates, the pairs within the radius
    along both axes, come from `kernels.near_pairs` over the cells in id
    order, so the result is deterministic. `kink_energy_pair` runs once
    per distinct relative geometry (center difference, then size, dot
    offset and rotation of the lower-id and of the higher-id cell, grouped
    by `kernels.group_keys`), in the order of each geometry's first pair;
    it depends on nothing else, so a shared energy is the one a direct
    call returns.
    """
    if not (math.isfinite(radius_of_effect) and radius_of_effect > 0):
        raise ElectrostaticsError("radius_of_effect must be finite and strictly positive")
    ids = layout.ids
    by_id = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.int64)
    x, y = layout.x[by_id], layout.y[by_id]
    first, second = kernels.near_pairs(x, y, radius_of_effect)
    with np.errstate(over="ignore"):  # as Python floats, overflow gives inf
        dx, dy = x[second] - x[first], y[second] - y[first]
        within = _within(dx, dy, radius_of_effect)
    first, second, dx, dy = first[within], second[within], dx[within], dy[within]
    # a kind of cell: one size, dot offset and rotation
    kind, _ = kernels.group_keys(np.stack(
        (layout.rotation[by_id], _bits(layout.dot_offset[by_id]),
         _bits(layout.size[by_id])), axis=1))
    geometry, representative = kernels.group_keys(np.stack(
        (kind[second], kind[first], _bits(dy), _bits(dx)), axis=1))
    energy = np.empty(len(representative))
    for g, k in enumerate(representative.tolist()):
        energy[g] = kink_energy_pair(_site(layout, by_id[first[k]]),
                                     _site(layout, by_id[second[k]]),
                                     constants, charge_model)
    return KinkMatrix.from_arrays([ids[k] for k in by_id.tolist()], first, second,
                                  energy[geometry], radius_of_effect)


def _site(layout: Layout, k: int) -> SimpleNamespace:
    """Cell k of `layout` with the attributes `kink_energy_pair` reads,
    taken from the columns, so that no `Cell` is built."""
    return SimpleNamespace(id=layout.ids[k], center_x=layout.x[k].item(),
                           center_y=layout.y[k].item(), size=layout.size[k].item(),
                           dot_offset=layout.dot_offset[k].item(),
                           rotation=layout.rotation[k].item())
