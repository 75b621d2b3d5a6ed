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


def _check_apart(cell_a: Cell, cell_b: Cell) -> None:
    if cells_overlap(cell_a, cell_b):
        raise ElectrostaticsError(f"cells {cell_a.id!r} and {cell_b.id!r} overlap")


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
    _check_apart(cell_a, cell_b)
    if cell_b.id < cell_a.id:
        cell_a, pol_a, cell_b, pol_b = cell_b, pol_b, cell_a, pol_a
    (energy,) = _config_energies(cell_a, pol_a, cell_b, (pol_b,), constants,
                                 charge_model)
    return energy


def _config_energies(cell_a: Cell, pol_a: float, cell_b: Cell,
                     pols_b: Sequence[float], constants: PhysicalConstants,
                     charge_model: str) -> list[float]:
    """config_energy(cell_a, pol_a, cell_b, pol_b) for each pol_b in
    `pols_b`, of two cells that do not overlap, cell_a the one with the
    lower id (or the same id): the distance of each dot of cell_b to each
    charged dot of cell_a is computed once for them all. A distance of 0.0
    raises only where both dots carry charge. Each term is coulomb_pair's,
    the same operations in the same order, with k * q_a taken once per dot
    of cell_a."""
    k, eps = constants.coulomb_k, constants.relative_permittivity
    dx = cell_b.center_x - cell_a.center_x
    dy = cell_b.center_y - cell_a.center_y
    dots_b = [(dx + x, dy + y) for x, y in dot_offsets(cell_b)]
    # (k * charge, distances to the dots of cell_b in m) per charged dot of
    # cell_a
    rows = [(k * qa, [math.hypot(xa - xb, ya - yb) * NM_TO_M for xb, yb in dots_b])
            for (xa, ya), qa in zip(dot_offsets(cell_a),
                                    _dot_charges(cell_a, pol_a, charge_model, constants))
            if qa != 0.0]
    energies = []
    for pol_b in pols_b:
        charges_b = _dot_charges(cell_b, pol_b, charge_model, constants)
        total = 0.0
        for k_qa, distances in rows:
            for qb, r in zip(charges_b, distances):
                if qb == 0.0:
                    continue
                if r == 0.0:
                    raise ElectrostaticsError(
                        f"coincident dots between cells {cell_a.id!r} and {cell_b.id!r}")
                total += k_qa * qb / (eps * r)
        energies.append(total)
    return energies


def kink_energy_pair(cell_a: Cell, cell_b: Cell, constants: PhysicalConstants,
                     charge_model: str = DEFAULT_CHARGE_MODEL) -> float:
    """Kink energy, Eq-style opposite-minus-same configuration energies.

    Evaluated with the lower-id cell as the reference so the result is
    symmetric under argument swap regardless of charge model.
    """
    if cell_b.id < cell_a.id:
        cell_a, cell_b = cell_b, cell_a
    _check_apart(cell_a, cell_b)
    opposite, same = _config_energies(cell_a, +1.0, cell_b, (-1.0, +1.0),
                                      constants, charge_model)
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


def kink_matrix(layout: Layout, radius_of_effect: float,
                constants: PhysicalConstants,
                charge_model: str = DEFAULT_CHARGE_MODEL) -> KinkMatrix:
    """Kink energies for every unordered pair within the radius of effect.

    The radius cutoff applies to center-to-center distance in nm, as
    `math.dist` computes it. The pairs and their relative geometries come
    from `kernels.kink_pairs` over the cells in id order, so the result is
    deterministic: in C, one pass from the cells to the pairs within the
    radius and their geometry groups, handing back to `math.hypot` the
    pairs that squares cannot decide; in numpy where no compiler works.
    `kink_energy_pair` runs once per distinct relative geometry (center
    difference, then size, dot offset and rotation of the lower-id and of
    the higher-id cell), in the order of each geometry's first pair; it
    depends on nothing else, so a shared energy is the one a direct call
    returns.
    """
    if not (math.isfinite(radius_of_effect) and radius_of_effect > 0):
        raise ElectrostaticsError("radius_of_effect must be finite and strictly positive")
    ids, by_id = layout.ids, layout.id_order
    first, second, geometry, representative = kernels.kink_pairs(
        layout.x[by_id], layout.y[by_id], radius_of_effect,
        layout.rotation[by_id], layout.dot_offset[by_id], layout.size[by_id])
    # the lower-id and the higher-id cell of each geometry's first pair
    lower, higher = (_sites(layout, by_id[pair[representative]]) for pair in (first, second))
    energy = np.array([kink_energy_pair(a, b, constants, charge_model)
                       for a, b in zip(lower, higher)], dtype=np.float64)
    return KinkMatrix.from_arrays([ids[k] for k in by_id.tolist()], first, second,
                                  energy[geometry], radius_of_effect)


def _sites(layout: Layout, rows: np.ndarray) -> list[SimpleNamespace]:
    """Cells `rows` of `layout` with the attributes `kink_energy_pair`
    reads, taken from the columns, so that no `Cell` is built."""
    columns = (layout.x, layout.y, layout.size, layout.dot_offset, layout.rotation)
    return [SimpleNamespace(id=layout.ids[k], center_x=x, center_y=y, size=size,
                            dot_offset=dot_offset, rotation=rotation)
            for k, x, y, size, dot_offset, rotation
            in zip(rows.tolist(), *(column[rows].tolist() for column in columns))]
