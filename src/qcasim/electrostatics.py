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
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

from .constants import PhysicalConstants
from .geometry import Cell, Layout, cells_overlap, dot_offsets, electron_dots, near_pairs

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


class NeighborList(NamedTuple):
    """CSR-style neighbor list: the neighbors of cell `ids[i]` are
    `indices[offsets[i]:offsets[i + 1]]` (positions in `ids`), in ascending
    id order, with their kink energies at the same positions of
    `energies`."""

    ids: tuple      # ascending cell ids
    index: dict     # cell id -> position in ids
    offsets: list
    indices: list
    energies: list


@dataclass(frozen=True)
class KinkMatrix:
    """Sparse symmetric map of pairwise kink energies within a cutoff radius.

    `pairs` is the source of truth. `neighbors` derives from it, once, a
    `NeighborList` over the cell ids that appear in `pairs`; zero energies
    are left out of it.
    """

    pairs: dict  # (id_i, id_j) with id_i < id_j -> energy in J
    radius_of_effect: float  # nm

    def get(self, cell_i: str, cell_j: str) -> float:
        """Kink energy of a pair, 0.0 if beyond the radius of effect."""
        key = (cell_i, cell_j) if cell_i < cell_j else (cell_j, cell_i)
        return self.pairs.get(key, 0.0)

    def sorted_pairs(self) -> list[tuple[str, str, float]]:
        return [(i, j, self.pairs[(i, j)]) for i, j in sorted(self.pairs)]

    def __len__(self) -> int:
        return len(self.pairs)

    @cached_property
    def neighbors(self) -> NeighborList:
        ids = tuple(sorted({cid for key in self.pairs for cid in key}))
        index = {cid: i for i, cid in enumerate(ids)}
        rows: list[list[tuple[int, float]]] = [[] for _ in ids]
        for (a, b), energy in self.pairs.items():
            if a < b and energy != 0.0:
                i, j = index[a], index[b]
                rows[i].append((j, energy))
                rows[j].append((i, energy))
        offsets, indices, energies = [0], [], []
        for row in rows:
            row.sort()
            indices.extend(j for j, _ in row)
            energies.extend(e for _, e in row)
            offsets.append(len(indices))
        return NeighborList(ids, index, offsets, indices, energies)

    def row(self, cell_id: str) -> list[tuple[str, float]]:
        """(neighbor id, energy) of a cell's neighbors, ascending id."""
        ids, index, offsets, indices, energies = self.neighbors
        i = index.get(cell_id)
        if i is None:
            return []
        start, end = offsets[i], offsets[i + 1]
        return [(ids[j], energies[k]) for k, j in enumerate(indices[start:end], start)]

    def rows(self, cell_ids: Sequence[str]) -> list[list[tuple[int, float]]]:
        """The neighbor list re-indexed to `cell_ids`: row k holds
        (position in `cell_ids`, energy) for each neighbor of `cell_ids[k]`
        that is itself in `cell_ids`, in ascending id order."""
        position = {cid: k for k, cid in enumerate(cell_ids)}
        return [[(position[other], energy) for other, energy in self.row(cid)
                 if other in position]
                for cid in cell_ids]


def kink_matrix(layout: Layout, radius_of_effect: float,
                constants: PhysicalConstants,
                charge_model: str = DEFAULT_CHARGE_MODEL) -> KinkMatrix:
    """Kink energies for every unordered pair within the radius of effect.

    The radius cutoff applies to center-to-center distance in nm. Candidate
    pairs come from `near_pairs`, and pairs are stored in sorted id order,
    so the result is deterministic. `kink_energy_pair` runs once per
    distinct relative geometry (center difference, then size, dot offset
    and rotation of the lower-id and of the higher-id cell); it depends on
    nothing else, so a cached energy is the one a direct call returns.
    """
    if not (math.isfinite(radius_of_effect) and radius_of_effect > 0):
        raise ElectrostaticsError("radius_of_effect must be finite and strictly positive")
    cells = sorted(layout.cells, key=lambda c: c.id)
    pairs: dict[tuple[str, str], float] = {}
    cache: dict[tuple, float] = {}
    for i, j in near_pairs(cells, radius_of_effect):
        a, b = cells[i], cells[j]
        if math.dist(a.center, b.center) <= radius_of_effect:
            key = (b.center_x - a.center_x, b.center_y - a.center_y,
                   a.size, a.dot_offset, a.rotation,
                   b.size, b.dot_offset, b.rotation)
            energy = cache.get(key)
            if energy is None:
                energy = cache[key] = kink_energy_pair(a, b, constants, charge_model)
            pairs[(a.id, b.id)] = energy
    return KinkMatrix(pairs=pairs, radius_of_effect=radius_of_effect)
