"""The index-based coupling core: candidate pairs from grid bins, kink
energies cached by relative geometry, and the neighbor list the engines
read.

Property tests compare each against an all-pairs reference; the bistable
engine, on each sweep kernel, is compared bit for bit with the pair-dict
reference in oracle.py.
"""

import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import (assert_brute_force_energies, kink_energy,
                    kink_matrix_from_pairs, reference_bistable_relax)

from qcasim import kernels
from qcasim.constants import PhysicalConstants
from qcasim.electrostatics import kink_energy_pair, kink_matrix
from qcasim.engines import (BistableParams, ConvergenceError, bistable_relax,
                            coupling, local_field)
from qcasim.geometry import (Cell, Layout, LayoutError, builtin_layout,
                             cells_overlap, near_pairs)

PAPER = PhysicalConstants.paper()
PROPERTY = settings(max_examples=150, deadline=None)


def fixed_cell(cid, x, y, size=18.0, rotation=0):
    return Cell(id=cid, center_x=x, center_y=y, size=size, rotation=rotation,
                role="fixed", fixed_polarization=1.0)


@st.composite
def lattice_layouts(draw, max_cells=24):
    """Non-overlapping layouts: distinct points of a square lattice whose
    pitch exceeds every cell size, at a random (negative, non-integer)
    origin, with mixed sizes and rotations and shuffled ids."""
    pitch = draw(st.floats(18.25, 40.0))
    origin = draw(st.tuples(st.floats(-500.0, 500.0), st.floats(-500.0, 500.0)))
    spots = draw(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
                          min_size=1, max_size=max_cells, unique=True))
    ids = draw(st.permutations(range(len(spots))))
    cells = []
    for k, (i, j) in enumerate(spots):
        size = draw(st.sampled_from((10.0, 14.0, 18.0)))
        cells.append(fixed_cell(f"c{ids[k]}", origin[0] + i * pitch,
                                origin[1] + j * pitch, size=size,
                                rotation=draw(st.sampled_from((0, 45)))))
    return Layout(name="lattice", cells=tuple(cells))


@st.composite
def layouts_and_radius(draw):
    """A lattice layout and a radius that is either arbitrary or exactly the
    center distance of one of its pairs."""
    layout = draw(lattice_layouts())
    cells = layout.cells
    if len(cells) > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, len(cells) - 1), min_size=2,
                             max_size=2, unique=True))
        radius = math.dist(cells[i].center, cells[j].center)
    else:
        radius = draw(st.floats(15.0, 150.0))
    return layout, radius


@st.composite
def scaled_layouts_and_radius(draw):
    """`layouts_and_radius` with every length scaled by a power of ten at
    which r**2 leaves the range where squares decide (1e150, 1e-150) or the
    squares themselves overflow or underflow (1e155, 1e-160). A radius
    taken from a pair is that pair's distance after scaling."""
    layout = draw(lattice_layouts(max_cells=16))
    scale = draw(st.sampled_from((1e150, 1e-150, 1e155, 1e-160)))
    cells = [replace(c, center_x=c.center_x * scale, center_y=c.center_y * scale,
                     size=c.size * scale, dot_offset=None)
             for c in layout.cells]
    if len(cells) > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, len(cells) - 1), min_size=2,
                             max_size=2, unique=True))
        radius = math.dist(cells[i].center, cells[j].center)
    else:
        radius = draw(st.floats(15.0, 150.0)) * scale
    return Layout(name="scaled", cells=tuple(cells)), radius


class TestNearPairs:
    @PROPERTY
    @given(st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
                    min_size=1, max_size=30),
           st.sampled_from((0.1, 0.5, 1.0, 3.7)), st.data())
    def test_every_pair_within_reach_is_a_candidate(self, points, step, data):
        cells = [fixed_cell(f"c{k}", x * step, y * step)
                 for k, (x, y) in enumerate(points)]
        pick = data.draw(st.integers(0, len(cells) - 1))
        # a reach equal to some per-axis difference puts pairs at exactly it
        reach = data.draw(st.one_of(
            st.floats(0.05, 20.0),
            st.just(abs(cells[pick].center_x - cells[0].center_x) or 1.0)))
        first, second = near_pairs(np.array([c.center_x for c in cells]),
                                   np.array([c.center_y for c in cells]), reach)
        assert first.dtype == second.dtype == np.int64
        candidates = list(zip(first.tolist(), second.tolist()))
        # exactly the pairs in the same or neighboring bins of the grid
        extent = max(max(abs(c.center_x), abs(c.center_y)) for c in cells)
        pitch = reach + (reach + extent) * 2.0 ** -40
        bins = [(math.floor(c.center_x / pitch), math.floor(c.center_y / pitch))
                for c in cells]
        assert candidates == [
            (i, j) for i, j in itertools.combinations(range(len(cells)), 2)
            if abs(bins[i][0] - bins[j][0]) <= 1 and abs(bins[i][1] - bins[j][1]) <= 1]
        for i in range(len(cells)):
            for j in range(i + 1, len(cells)):
                a, b = cells[i], cells[j]
                if (abs(a.center_x - b.center_x) <= reach
                        and abs(a.center_y - b.center_y) <= reach):
                    assert (i, j) in candidates

    def test_exact_reach_across_a_bin_edge(self):
        # 80 - (-1e-300) rounds to 80, but at a pitch of exactly 80 the two
        # centers would fall in bins -1 and 1
        cells = (fixed_cell("a", -1e-300, 0.0), fixed_cell("b", 80.0, 0.0))
        assert [a.tolist() for a in near_pairs(np.array([-1e-300, 80.0]),
                                               np.zeros(2), 80.0)] == [[0], [1]]
        assert list(kink_matrix(Layout(name="edge", cells=cells), 80.0, PAPER).pairs) == [
            ("a", "b")]


class TestOverlapCheck:
    @PROPERTY
    @given(st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12),
                              st.sampled_from((1.0, 2.0, 3.0, 4.0))),
                    min_size=1, max_size=14),
           st.sampled_from((0.5, 1.0, 0.1)))
    def test_agrees_with_all_pairs(self, specs, step):
        # half-unit coordinates and sizes make touching cells common
        cells = tuple(fixed_cell(f"c{k}", x * step, y * step, size=size)
                      for k, (x, y, size) in enumerate(specs))
        first = next(((a, b) for i, a in enumerate(cells) for b in cells[i + 1:]
                      if cells_overlap(a, b)), None)
        if first is None:
            Layout(name="l", cells=cells)
        else:
            with pytest.raises(LayoutError) as info:
                Layout(name="l", cells=cells)
            assert str(info.value) == f"cells {first[0].id!r} and {first[1].id!r} overlap"

    def test_touching_cells_overlap(self):
        with pytest.raises(LayoutError, match="overlap"):
            Layout(name="l", cells=(fixed_cell("a", 0.0, 0.0, size=10.0),
                                    fixed_cell("b", 14.0, 14.0, size=18.0)))


class TestKinkMatrixBinned:
    @PROPERTY
    @given(layouts_and_radius())
    def test_matches_brute_force(self, problem):
        layout, radius = problem
        matrix = kink_matrix(layout, radius, PAPER)
        assert_brute_force_energies(matrix, layout, radius, PAPER)
        assert list(matrix.pairs) == sorted(matrix.pairs)

    @PROPERTY
    @given(scaled_layouts_and_radius())
    def test_prefilter_exact_where_squares_fail(self, problem):
        layout, radius = problem
        assert_brute_force_energies(kink_matrix(layout, radius, PAPER),
                                    layout, radius, PAPER)

    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150, 1e155, 1e-160])
    def test_radius_at_a_pair_distance(self, scale):
        # the pair at exactly the radius is in, and every pair agrees with
        # the brute force, at scales where squares decide and where they
        # cannot
        cells = tuple(fixed_cell(f"c{k}", (k * 21.3 - 7.1) * scale,
                                 (k * k * 3.7) * scale, size=18.0 * scale)
                      for k in range(6))
        layout = Layout(name="line", cells=cells)
        for i, j in itertools.combinations(range(6), 2):
            radius = math.dist(cells[i].center, cells[j].center)
            matrix = kink_matrix(layout, radius, PAPER)
            assert (f"c{i}", f"c{j}") in matrix.pairs
            assert_brute_force_energies(matrix, layout, radius, PAPER)

    def test_center_differences_that_overflow(self):
        cells = (fixed_cell("a", -1e308, 0.0, size=1e307),
                 fixed_cell("b", 1e308, 0.0, size=1e307),
                 fixed_cell("c", 1e308, 1.5e307, size=1e307))
        layout = Layout(name="huge", cells=cells)
        for radius in (1.5e307, 1e308, 1.7e308):
            matrix = kink_matrix(layout, radius, PAPER)
            assert list(matrix.pairs) == [("b", "c")]
            assert_brute_force_energies(matrix, layout, radius, PAPER)

    def test_negative_zero_shares_a_geometry(self, monkeypatch):
        from qcasim import electrostatics

        calls = []
        original = electrostatics.kink_energy_pair
        monkeypatch.setattr(electrostatics, "kink_energy_pair",
                            lambda *args: calls.append(args) or original(*args))
        # a-b has dx = -0.0 - 0.0 = -0.0, b-c has dx = 0.0 - -0.0 = 0.0
        cells = (fixed_cell("a", 0.0, 0.0), fixed_cell("b", -0.0, 20.0),
                 fixed_cell("c", 0.0, 40.0))
        matrix = kink_matrix(Layout(name="col", cells=cells), 30.0, PAPER)
        assert list(matrix.pairs) == [("a", "b"), ("b", "c")]
        assert len(calls) == 1
        assert (kink_energy(matrix, "a", "b") == kink_energy(matrix, "b", "c")
                == original(cells[1], cells[2], PAPER))

    @PROPERTY
    @given(lattice_layouts(max_cells=16), st.sampled_from((40.0, 80.0)))
    def test_cached_energy_is_the_direct_one(self, layout, radius):
        matrix = kink_matrix(layout, radius, PAPER)
        by_id = {c.id: c for c in layout.cells}
        for (i, j), energy in matrix.pairs.items():
            assert energy == kink_energy_pair(by_id[i], by_id[j], PAPER)
            assert energy == kink_energy_pair(by_id[j], by_id[i], PAPER)

    @PROPERTY
    @given(st.integers(2, 30), st.floats(18.5, 40.0),
           st.floats(-300.0, 300.0), st.floats(-300.0, 300.0))
    def test_translated_copies_at_non_integer_pitch(self, n, pitch, x0, y0):
        cells = tuple(fixed_cell(f"c{k:02d}", x0 + k * pitch, y0 + (k % 2) * pitch,
                                 rotation=45 * (k % 3 == 0))
                      for k in range(n))
        matrix = kink_matrix(Layout(name="copies", cells=cells), 80.0, PAPER)
        for (i, j), energy in matrix.pairs.items():
            a, b = cells[int(i[1:])], cells[int(j[1:])]
            assert kink_energy(matrix, i, j) == energy == kink_energy_pair(a, b, PAPER)

    def test_one_evaluation_per_geometry(self, monkeypatch):
        from qcasim import electrostatics

        calls = []
        original = electrostatics.kink_energy_pair
        monkeypatch.setattr(electrostatics, "kink_energy_pair",
                            lambda *args: calls.append(args) or original(*args))
        matrix = kink_matrix(builtin_layout("wire(50)"), 80.0, PAPER)
        # neighbors at 1..4 pitches; in id order ("c10" < "c2") the lower-id
        # cell sits on either side, so there are 8 relative geometries
        assert len(matrix) == 49 + 48 + 47 + 46
        assert len(calls) <= 8

    def test_radius_must_be_finite(self):
        for radius in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match="finite and strictly positive"):
                kink_matrix(builtin_layout("inv2"), radius, PAPER)


class TestCoupling:
    @PROPERTY
    @given(lattice_layouts(max_cells=16))
    def test_rows_follow_pairs(self, layout):
        matrix = kink_matrix(layout, 60.0, PAPER)
        ids = sorted(c.id for c in layout.cells)
        energies, offsets, cols = coupling([matrix], ids)
        assert offsets[0] == 0 and offsets[-1] == len(cols) == energies.shape[1]
        for i, cid in enumerate(ids):
            row = cols[offsets[i]:offsets[i + 1]].tolist()
            assert row == sorted(set(row)) and i not in row  # ascending id
            assert row == [j for j, other in enumerate(ids)
                           if other != cid and kink_energy(matrix, cid, other) != 0.0]
            for j, k in zip(row, range(offsets[i], offsets[i + 1])):
                assert energies[0, k] == kink_energy(matrix, cid, ids[j]) != 0.0
        nonzero = sum(e != 0.0 for e in matrix.pairs.values())
        assert len(cols) == 2 * nonzero

    @PROPERTY
    @given(lattice_layouts(max_cells=16), st.randoms(use_true_random=False))
    def test_coupling_matches_pair_lookup(self, layout, rnd):
        matrix = kink_matrix(layout, 60.0, PAPER)
        cell_ids = [c.id for c in layout.cells]
        rnd.shuffle(cell_ids)
        energies, offsets, cols = coupling([matrix, matrix], cell_ids)
        assert offsets[0] == 0 and offsets[-1] == cols.size
        assert energies.shape == (2, cols.size)
        assert energies[0].tobytes() == energies[1].tobytes()
        entries = set()
        for i, a in enumerate(cell_ids):
            row = cols[offsets[i]:offsets[i + 1]].tolist()
            assert row == sorted(set(row)) and i not in row  # ascending position
            for k, j in enumerate(row, offsets[i]):
                assert energies[0, k] == kink_energy(matrix, a, cell_ids[j])
                entries.add((a, cell_ids[j]))
        nonzero = {key for key, energy in matrix.pairs.items() if energy != 0.0}
        assert entries == nonzero | {(b, a) for a, b in nonzero}

    def test_coupling_of_differing_points_shares_one_pattern(self):
        first = kink_matrix_from_pairs({("a", "b"): 2.0, ("b", "c"): 0.0}, 1.0)
        second = kink_matrix_from_pairs({("a", "c"): 3.0, ("b", "c"): 5.0}, 1.0)
        energies, offsets, cols = coupling([first, second, first], ["c", "b", "a"])
        # rows of c, b, a over the union of the pairs, ascending position
        assert offsets.tolist() == [0, 2, 4, 6]
        assert cols.tolist() == [1, 2, 0, 2, 0, 1]
        assert energies.tolist() == [[0.0, 0.0, 0.0, 2.0, 0.0, 2.0],
                                     [5.0, 3.0, 5.0, 0.0, 3.0, 0.0],
                                     [0.0, 0.0, 0.0, 2.0, 0.0, 2.0]]
        assert [a.dtype for a in (energies, offsets, cols)] == [
            np.float64, np.int64, np.int64]

    def test_zero_energy_dropped_and_unknown_ids_empty(self):
        matrix = kink_matrix_from_pairs({("a", "b"): 2.0, ("a", "c"): 0.0}, 1.0)
        energies, offsets, cols = coupling([matrix], ["b", "zz", "a", "c"])
        # rows of b, zz, a and c: zz is unknown, a-c has zero energy
        assert offsets.tolist() == [0, 1, 1, 2, 2]
        assert cols.tolist() == [2, 0]
        assert energies.tolist() == [[2.0, 2.0]]
        assert local_field("a", {"b": 0.5, "c": 1.0}, matrix) == 1.0
        assert local_field("a", {"c": 1.0}, matrix) == 0.0
        assert local_field("zz", {"a": 1.0, "b": 1.0}, matrix) == 0.0

    def test_coupling_without_entries(self):
        # isolated cells, and energies that are all zero (-0.0 included)
        far = kink_matrix(Layout(name="far", cells=(
            fixed_cell("a", 0.0, 0.0), fixed_cell("b", 200.0, 0.0))), 80.0, PAPER)
        zero = kink_matrix_from_pairs({("a", "b"): 0.0, ("b", "c"): -0.0}, 1.0)
        for kinks in ([far], [zero], [zero, far, zero]):
            energies, offsets, cols = coupling(kinks, ["c", "b", "a"])
            assert energies.shape == (len(kinks), 0)
            assert offsets.tolist() == [0, 0, 0, 0]
            assert cols.shape == (0,)
            assert [a.dtype for a in (energies, offsets, cols)] == [
                np.float64, np.int64, np.int64]

    def test_coupling_of_ids_no_matrix_has(self):
        first = kink_matrix_from_pairs({("a", "b"): 2.0}, 1.0)
        second = kink_matrix_from_pairs({("b", "c"): 3.0}, 1.0)
        # x and y are in neither matrix; c, second's neighbor of b, is not
        # among the cells
        energies, offsets, cols = coupling([first, second], ["x", "b", "y", "a"])
        assert offsets.tolist() == [0, 0, 1, 1, 2]
        assert cols.tolist() == [3, 1]
        assert energies.tolist() == [[2.0, 2.0], [0.0, 0.0]]
        energies, offsets, cols = coupling([first, second], ["x", "y"])
        assert (energies.shape, offsets.tolist(), cols.shape) == ((2, 0), [0, 0, 0], (0,))


# Ids whose order is easy to get wrong: a non-BMP character sorts after
# every BMP one, "\uffff" included (UTF-16 would put it last), and "10"
# sorts before "9".
ODD_IDS = ("9", "\uffff", "\U0001F600", "10", "a", "z\U00010000", "B", "b")


class TestIdOrder:
    def odd_layout(self):
        return Layout(name="odd", cells=tuple(
            fixed_cell(cid, (k % 3) * 20.0, (k // 3) * 20.0, rotation=45 * (k % 2))
            for k, cid in enumerate(ODD_IDS)))

    def test_pairs_and_pair_ids_in_id_order(self):
        matrix = kink_matrix(self.odd_layout(), 80.0, PAPER)
        assert len(matrix) == len(ODD_IDS) * (len(ODD_IDS) - 1) // 2
        assert list(matrix.pairs) == sorted(matrix.pairs)
        assert all(a < b for a, b in matrix.pairs)

        def listed(m):
            return list(zip(*m.pair_ids(), m.energies.tolist()))

        assert listed(matrix) == [(a, b, e) for (a, b), e
                                  in sorted(matrix.pairs.items())]
        assert [type(v) for v in matrix.pairs.values()] == [float] * len(matrix)
        rebuilt = kink_matrix_from_pairs(dict(reversed(matrix.pairs.items())),
                                         80.0)
        assert listed(rebuilt) == listed(matrix)

    def test_rows_and_neighbors_agree_with_get(self):
        matrix = kink_matrix(self.odd_layout(), 80.0, PAPER)
        assert matrix.ids == tuple(sorted(ODD_IDS))
        # in id order, and re-indexed to another order
        for order in (sorted(ODD_IDS), list(reversed(ODD_IDS))):
            energies, offsets, cols = coupling([matrix], order)
            for i, cid in enumerate(order):
                expected = [(j, kink_energy(matrix, cid, other))
                            for j, other in enumerate(order)
                            if other != cid and kink_energy(matrix, cid, other) != 0.0]
                k = slice(offsets[i], offsets[i + 1])
                assert list(zip(cols[k].tolist(), energies[0, k].tolist())) == expected


def block_layout(seed, rows=9, cols=11, vacancies=6):
    """A 2-D block driven by a fixed left column of one seeded sign, with
    seeded vacancies among the free cells."""
    rnd = random.Random(seed)
    sign = rnd.choice((-1.0, 1.0))
    free = [(r, c) for r in range(rows) for c in range(1, cols)]
    holes = set(rnd.sample(free, vacancies))
    cells = [Cell(id=f"r{r}c{c}", center_x=c * 20.0, center_y=r * 20.0,
                  role="fixed" if c == 0 else "normal",
                  fixed_polarization=sign if c == 0 else None)
             for r in range(rows) for c in range(cols) if (r, c) not in holes]
    return Layout(name="block", cells=tuple(cells))


def assert_same_relax(layout, params, inputs=None, kink=None):
    if kink is None:
        kink = kink_matrix(layout, params.radius_of_effect, PAPER)
    try:
        expected = reference_bistable_relax(layout, kink, params, inputs)
    except ConvergenceError as exc:
        with pytest.raises(ConvergenceError) as info:
            bistable_relax(layout, kink, params, inputs)
        assert str(info.value) == str(exc)
        return
    got = bistable_relax(layout, kink, params, inputs)
    assert list(got) == list(expected)
    assert [v.hex() for v in got.values()] == [v.hex() for v in expected.values()]


# the loop kernel, and the C kernel where the compiled library loads
SWEEP_KERNELS = {"loop": kernels.bistable_sweep_loop}
if kernels.kernel_path() == "c":
    SWEEP_KERNELS["c"] = kernels.bistable_sweep_c


@pytest.fixture(params=list(SWEEP_KERNELS))
def sweep_kernel(request, monkeypatch):
    """bistable_relax with its sweep run by one kernel."""
    monkeypatch.setattr(kernels, "bistable_sweep", SWEEP_KERNELS[request.param])


@pytest.mark.usefixtures("sweep_kernel")
class TestBistableMatchesReference:
    @pytest.mark.parametrize("n", [2, 3, 14, 40, 101])
    def test_wire(self, n):
        assert_same_relax(builtin_layout(f"wire({n})"), BistableParams())

    @pytest.mark.parametrize("seed", [1, 2, 7])
    @pytest.mark.parametrize("gamma", [9.8e-22, 6e-21])
    def test_block_with_vacancies(self, seed, gamma):
        assert_same_relax(block_layout(seed), BistableParams(gamma=gamma))

    def test_majority_rows(self):
        layout = builtin_layout("majority")
        for bits in range(8):
            inputs = {cid: 1.0 if bits >> k & 1 else -1.0
                      for k, cid in enumerate(("a", "b", "c"))}
            assert_same_relax(layout, BistableParams(), inputs)

    @pytest.mark.parametrize("seed", [1, 7])
    def test_same_convergence_error(self, seed):
        params = BistableParams(gamma=6e-21, max_iterations=3)
        layout = block_layout(seed)
        kink = kink_matrix(layout, params.radius_of_effect, PAPER)
        with pytest.raises(ConvergenceError):
            bistable_relax(layout, kink, params)
        assert_same_relax(layout, params)

    @pytest.mark.parametrize("order", [ODD_IDS, ODD_IDS[::-1]])
    @pytest.mark.parametrize("gamma", [9.8e-22, 6e-21])
    def test_free_cells_out_of_id_order(self, order, gamma):
        # layout order is not id order: each field sums in ascending
        # neighbor id, and the free cells are swept in layout order
        driver = Cell(id="0", center_x=-20.0, center_y=0.0, role="fixed",
                      fixed_polarization=-1.0)
        cells = (driver, *(Cell(id=cid, center_x=(k % 4) * 20.0,
                                center_y=(k // 4) * 20.0)
                           for k, cid in enumerate(order)))
        assert_same_relax(Layout(name="odd", cells=cells), BistableParams(gamma=gamma))

    def test_kink_from_another_cell_set(self):
        # cells the layout lacks never contribute; cells the kink matrix
        # lacks relax with no neighbors
        layout = builtin_layout("wire(6)")
        kink = kink_matrix(builtin_layout("wire(9)"), 80.0, PAPER)
        assert_same_relax(layout, BistableParams(), kink=kink)
        partial = kink_matrix_from_pairs(
            {k: v for k, v in kink.pairs.items() if "c2" not in k}, 80.0)
        assert_same_relax(layout, BistableParams(), kink=partial)

    def test_no_neighbor_list_entries(self):
        # nnz = 0: every field is +0.0, every free cell relaxes to 0.0
        layout = builtin_layout("wire(5)")
        params = BistableParams(radius_of_effect=1.0)
        kink = kink_matrix(layout, 1.0, PAPER)
        assert len(kink) == 0
        assert_same_relax(layout, params, kink=kink)
        got = bistable_relax(layout, kink, params)
        assert [v.hex() for v in got.values()][1:] == [(0.0).hex()] * 4

    def test_no_free_cell(self):
        layout = Layout(name="fixed", cells=(fixed_cell("b", 0.0, 0.0),
                                             fixed_cell("a", 20.0, 0.0)))
        assert_same_relax(layout, BistableParams())
        assert_same_relax(layout, BistableParams(), inputs={"a": -0.5})
        assert_same_relax(Layout(name="empty", cells=()), BistableParams())

    @pytest.mark.parametrize("gamma", [1e-300, 5e-324])
    def test_saturating_gamma(self, gamma):
        # E / (2 gamma) squared overflows: the true value rounds to +-1
        for name in ("inv3", "wire(14)", "majority"):
            inputs = {"a": 1.0, "b": -1.0, "c": 1.0} if name == "majority" else None
            assert_same_relax(builtin_layout(name), BistableParams(gamma=gamma),
                              inputs)
        got = bistable_relax(builtin_layout("inv3"),
                             kink_matrix(builtin_layout("inv3"), 80.0, PAPER),
                             BistableParams(gamma=gamma))
        assert got == {"in": 1.0, "mid": 1.0, "out": -1.0}

    def test_max_iterations_beyond_int64(self):
        assert_same_relax(block_layout(1), BistableParams(gamma=6e-21,
                                                          max_iterations=10**30))
