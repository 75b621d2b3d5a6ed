import math

import pytest

from conftest import random_layout
from oracle import assert_brute_force_energies, brute_kink, kink_energy
from qcasim.constants import PhysicalConstants
from qcasim.electrostatics import (ElectrostaticsError, config_energy,
                                   coulomb_pair, kink_energy_pair, kink_matrix)
from qcasim.geometry import Cell, Layout, builtin_layout

NM = 1e-9


def cell_at(cid, x, y, **kwargs):
    return Cell(id=cid, center_x=x, center_y=y, **kwargs)


class TestCoulombPair:
    def test_paper_value_at_1nm(self, paper):
        e = paper.electron_charge
        energy = coulomb_pair(e, e, 1 * NM, paper)
        assert energy == pytest.approx(2.304e-19, rel=1e-12, abs=0)

    def test_inverse_distance(self, paper):
        e = paper.electron_charge
        assert coulomb_pair(e, e, 2 * NM, paper) == pytest.approx(
            coulomb_pair(e, e, 1 * NM, paper) / 2, rel=1e-12, abs=0)

    def test_sign_rule(self, paper):
        e = paper.electron_charge
        assert coulomb_pair(e, -e, 1 * NM, paper) < 0

    def test_paper_constant_for_any_distance(self, paper):
        e = paper.electron_charge
        for r_nm in (0.3, 0.5, 1.0, 7.0, 80.0):
            product = coulomb_pair(e, e, r_nm * NM, paper) * r_nm * NM
            assert product == pytest.approx(23.04e-29, rel=1e-12, abs=0)

    def test_zero_distance_rejected(self, paper):
        with pytest.raises(ElectrostaticsError):
            coulomb_pair(1e-19, 1e-19, 0.0, paper)


class TestConfigEnergy:
    # Hand-summed electron-model oracle for two rot-0 cells 20 nm apart:
    # electron-electron distances are 20, sqrt(202), sqrt(922), 20 nm for
    # equal polarizations and 11, sqrt(481), sqrt(481), 29 nm for opposite.
    SAME = 23.04e-20 * (1 / 20 + 1 / math.sqrt(202) + 1 / math.sqrt(922) + 1 / 20)
    OPP = 23.04e-20 * (1 / 11 + 1 / math.sqrt(481) + 1 / math.sqrt(481) + 1 / 29)

    def test_same_polarization_electron_model(self, paper):
        a, b = cell_at("a", 0, 0), cell_at("b", 20, 0)
        energy = config_energy(a, +1, b, +1, paper, charge_model="electron")
        assert energy == pytest.approx(self.SAME, rel=1e-12, abs=0)
        assert energy == pytest.approx(4.684e-20, rel=1e-3, abs=0)

    def test_opposite_polarization_electron_model(self, paper):
        a, b = cell_at("a", 0, 0), cell_at("b", 20, 0)
        energy = config_energy(a, +1, b, -1, paper, charge_model="electron")
        assert energy == pytest.approx(self.OPP, rel=1e-12, abs=0)
        assert energy == pytest.approx(4.990e-20, rel=1e-3, abs=0)

    def test_symmetric_in_arguments(self, paper):
        a, b = cell_at("a", 0, 0), cell_at("b", 20, 13, rotation=45)
        for model in ("electron", "neutralized"):
            assert config_energy(a, +1, b, -1, paper, model) == pytest.approx(
                config_energy(b, -1, a, +1, paper, model), rel=1e-15, abs=0)

    def test_decays_with_separation(self, paper):
        a = cell_at("a", 0, 0)
        energies = [abs(config_energy(a, +1, cell_at("b", x, 0), +1, paper))
                    for x in (20, 40, 80, 160, 320)]
        assert all(u > v for u, v in zip(energies, energies[1:]))
        assert energies[-1] < 1e-21

    def test_overlap_rejected(self, paper):
        with pytest.raises(ElectrostaticsError, match="overlap"):
            config_energy(cell_at("a", 0, 0), +1, cell_at("b", 5, 0), +1, paper)


class TestKinkEnergyPair:
    def test_collinear_positive(self, paper):
        a, b = cell_at("a", 0, 0), cell_at("b", 20, 0)
        energy = kink_energy_pair(a, b, paper)
        assert energy == pytest.approx(3.06e-21, rel=1e-2, abs=0)
        assert energy > 0

    def test_collinear_matches_electron_model(self, paper):
        # for equal-rotation pairs the neutralizing background cancels in
        # the opposite-minus-same difference
        a, b = cell_at("a", 0, 0), cell_at("b", 20, 0)
        assert kink_energy_pair(a, b, paper) == pytest.approx(
            kink_energy_pair(a, b, paper, "electron"), rel=1e-9, abs=0)

    def test_diagonal_negative(self, paper):
        a, b = cell_at("a", 0, 0), cell_at("b", 20, 20)
        assert kink_energy_pair(a, b, paper) < 0

    def test_diagonal_electron_model_value(self, paper):
        a, b = cell_at("a", 0, 0), cell_at("b", 20, 20)
        energy = kink_energy_pair(a, b, paper, "electron")
        assert energy == pytest.approx(-3.45e-21, rel=1e-2, abs=0)

    def test_swap_symmetry(self, paper, rng):
        for _ in range(20):
            x, y = rng.uniform(25, 60, size=2)
            rot = int(rng.choice((0, 45)))
            a, b = cell_at("a", 0, 0), cell_at("b", x, y, rotation=rot)
            assert kink_energy_pair(a, b, paper) == kink_energy_pair(b, a, paper)

    def test_matches_brute_force(self, paper, rng):
        for _ in range(20):
            x, y = rng.uniform(25, 60, size=2)
            a = cell_at("a", 0, 0, rotation=int(rng.choice((0, 45))))
            b = cell_at("b", x, y, rotation=int(rng.choice((0, 45))))
            for model in ("electron", "neutralized"):
                expected = brute_kink(a, b, paper.coulomb_k,
                                      paper.electron_charge, model)
                assert kink_energy_pair(a, b, paper, model) == pytest.approx(
                    expected, rel=1e-12, abs=0)

    def test_translation_invariance(self, paper, rng):
        a, b = cell_at("a", 0, 0), cell_at("b", 20, 20)
        base = kink_energy_pair(a, b, paper)
        for _ in range(10):
            dx, dy = rng.uniform(-500, 500, size=2)
            shifted = kink_energy_pair(cell_at("a", dx, dy),
                                       cell_at("b", 20 + dx, 20 + dy), paper)
            assert shifted == pytest.approx(base, rel=1e-9, abs=0)

    def test_distance_scaling(self, paper):
        # scaling all pairwise distances by s scales every energy by 1/s
        s = 3.0
        a, b = cell_at("a", 0, 0), cell_at("b", 20, 0)
        a2 = cell_at("a", 0, 0, size=18 * s, dot_offset=4.5 * s)
        b2 = cell_at("b", 20 * s, 0, size=18 * s, dot_offset=4.5 * s)
        assert kink_energy_pair(a2, b2, paper) == pytest.approx(
            kink_energy_pair(a, b, paper) / s, rel=1e-12, abs=0)


class TestKinkMatrix:
    def test_wire3_all_pairs_within_radius(self, paper):
        matrix = kink_matrix(builtin_layout("wire(3)"), 80.0, paper)
        assert len(matrix) == 3

    def test_radius_cutoff(self, paper):
        matrix = kink_matrix(builtin_layout("wire(3)"), 25.0, paper)
        assert len(matrix) == 2
        assert kink_energy(matrix, "in", "out") == 0.0

    def test_single_cell_empty(self, paper):
        layout = Layout(name="one", cells=(cell_at("a", 0, 0, role="fixed",
                                                   fixed_polarization=1.0),))
        assert len(kink_matrix(layout, 80.0, paper)) == 0

    def test_symmetric_lookup(self, paper):
        matrix = kink_matrix(builtin_layout("inv3"), 80.0, paper)
        assert all(a < b for a, b in matrix.pairs)
        energy = kink_energy(matrix, "in", "mid")
        assert energy == kink_energy(matrix, "mid", "in") != 0.0

    def test_matches_brute_force_random_layouts(self, paper, rng):
        for _ in range(30):
            layout = random_layout(rng)
            matrix = kink_matrix(layout, 80.0, paper)
            assert_brute_force_energies(matrix, layout, 80.0, paper)

    def test_bad_radius(self, paper):
        with pytest.raises(ElectrostaticsError):
            kink_matrix(builtin_layout("inv2"), 0.0, paper)
