"""The index-based coupling core: the pairs within a per-axis reach, kink
energies cached by relative geometry, and the neighbor list the engines
read.

Property tests compare each against an all-pairs reference; the C pair
search is compared bit for bit with its numpy reference, the C kink pair
pass with its numpy transcription, the final kink pairs of both kernel
paths with the brute-force pairs of oracle.py, and the bistable engine, on
each sweep kernel, with the pair-dict reference there.
"""

import importlib
import itertools
import math
import random
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import (assert_brute_force_energies, kink_energy,
                    kink_matrix_from_pairs, reference_bistable_relax,
                    reference_kink_pairs)

from qcasim import kernels
from qcasim.constants import PhysicalConstants
from qcasim.electrostatics import kink_energy_pair, kink_matrix
from qcasim.engines import (BistableParams, ConvergenceError, bistable_relax,
                            coupling, local_field)
from qcasim.geometry import (Cell, Layout, LayoutError, builtin_layout,
                             cells_overlap, parse_layout)

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


# the numpy reference kernels, and the C kernels where the compiled library
# loads
COMPILED = kernels.kernel_path() == "c"
needs_cc = pytest.mark.skipif(not COMPILED, reason="no C compiler")
PAIR_KERNELS = [kernels.near_pairs, kernels.near_pairs_loop,
                *([kernels.near_pairs_c] if COMPILED else [])]


def brute_force_pairs(x, y, reach):
    """The pairs (i, j), i < j, within `reach` along both axes, in (i, j)
    order, from Python floats (a difference that overflows is inf)."""
    x, y = x.tolist(), y.tolist()
    return [(i, j) for i, j in itertools.combinations(range(len(x)), 2)
            if abs(x[i] - x[j]) <= reach and abs(y[i] - y[j]) <= reach]


def pair_list(pairs):
    first, second = pairs
    assert first.dtype == second.dtype == np.int64
    return list(zip(first.tolist(), second.tolist()))


class TestNearPairs:
    @PROPERTY
    @given(st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
                    min_size=1, max_size=30),
           st.sampled_from((0.1, 0.5, 1.0, 3.7)), st.data())
    def test_every_pair_within_reach_is_a_candidate(self, points, step, data):
        x = np.array([px * step for px, _ in points])
        y = np.array([py * step for _, py in points])
        pick = data.draw(st.integers(0, len(points) - 1))
        # a reach equal to some per-axis difference puts pairs at exactly it
        reach = data.draw(st.one_of(
            st.floats(0.05, 20.0), st.just(abs(x[pick] - x[0]) or 1.0)))
        # exactly the pairs within reach along both axes, no farther one
        expected = brute_force_pairs(x, y, reach)
        for kernel in PAIR_KERNELS:
            assert pair_list(kernel(x, y, reach)) == expected

    def test_exact_reach_across_a_bin_edge(self):
        # 80 - (-1e-300) rounds to 80, but at a pitch of exactly 80 the two
        # centers would fall in bins -1 and 1
        cells = (fixed_cell("a", -1e-300, 0.0), fixed_cell("b", 80.0, 0.0))
        for kernel in PAIR_KERNELS:
            assert pair_list(kernel(np.array([-1e-300, 80.0]), np.zeros(2),
                                    80.0)) == [(0, 1)]
        assert list(kink_matrix(Layout(name="edge", cells=cells), 80.0, PAPER).pairs) == [
            ("a", "b")]

    @pytest.mark.parametrize("reach", [0.0, -1.0, math.nan, math.inf])
    def test_reach_must_be_finite_and_positive(self, reach):
        for kernel in PAIR_KERNELS:
            with pytest.raises(ValueError, match="finite"):
                kernel(np.zeros(2), np.array([0.0, 1.0]), reach)
            # fewer than two cells pair with nothing, whatever the reach
            assert pair_list(kernel(np.zeros(1), np.zeros(1), reach)) == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_coordinates_must_be_finite(self, bad):
        for kernel in PAIR_KERNELS:
            with pytest.raises(ValueError, match="finite"):
                kernel(np.array([0.0, bad]), np.zeros(2), 1.0)


# Coordinates at the edges of the float range: signed zeros, huge and tiny
# values, subnormals and the smallest normal
EDGE_COORDINATES = (0.0, -0.0, 1e150, -1e150, 1e-160, -1e-160, 5e-324,
                    -5e-324, 1.5e-323, 2.2250738585072014e-308, 1e308, -1e308)
EDGE_SCALES = (1.0, 0.37, 1e150, 1e-160, 5e-324)


@st.composite
def pair_problems(draw):
    """Centers on a scaled integer grid, some at edge values, and a reach
    that is scaled, an edge value or a per-axis difference of two centers
    (so that pairs lie at exactly the reach)."""
    scale = draw(st.sampled_from(EDGE_SCALES))
    coordinate = st.one_of(st.integers(-12, 12).map(lambda k: k * scale),
                           st.sampled_from(EDGE_COORDINATES))
    points = draw(st.lists(st.tuples(coordinate, coordinate), max_size=40))
    x = np.array([p[0] for p in points], dtype=np.float64)
    y = np.array([p[1] for p in points], dtype=np.float64)
    reaches = [st.floats(0.5, 20.0).map(lambda r: r * scale or 5e-324),
               st.sampled_from((5e-324, 1e-160, 1.0, 1e150, 1.7e308))]
    if len(points) > 1:
        i, j = draw(st.lists(st.integers(0, len(points) - 1), min_size=2,
                             max_size=2, unique=True))
        with np.errstate(over="ignore"):
            difference = abs(float(draw(st.sampled_from((x, y)))[i]
                                   - draw(st.sampled_from((x, y)))[j]))
        if 0.0 < difference < math.inf:
            reaches.append(st.just(difference))
    return x, y, draw(st.one_of(*reaches))


def assert_same_arrays(got, expected):
    for a, b in zip(got, expected, strict=True):
        assert a.dtype == b.dtype == np.int64
        assert a.tobytes() == b.tobytes()


@needs_cc
class TestPairKernelsAgree:
    """The C pair search against its numpy reference, bit for bit, on drawn
    and edge inputs."""

    @PROPERTY
    @given(pair_problems())
    def test_near_pairs(self, problem):
        x, y, reach = problem
        got = kernels.near_pairs_c(x, y, reach)
        assert_same_arrays(got, kernels.near_pairs_loop(x, y, reach))
        assert pair_list(got) == brute_force_pairs(x, y, reach)

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("reach", [5e-324, 1.0, 1e150])
    def test_near_pairs_of_few_cells(self, n, reach):
        for x, y in itertools.product((np.zeros(n), np.full(n, -0.0),
                                       np.arange(n) * 1e-160,
                                       np.arange(n) * 5e-324), repeat=2):
            assert_same_arrays(kernels.near_pairs_c(x, y, reach),
                               kernels.near_pairs_loop(x, y, reach))

    def test_near_pairs_beyond_the_first_offer(self):
        # all 11,175 pairs of 150 close cells: more than 64 per cell
        rnd = np.random.default_rng(5)
        x, y = rnd.uniform(-1.0, 1.0, (2, 150))
        got = kernels.near_pairs_c(x, y, 2.0)
        assert len(got[0]) == 150 * 149 // 2
        assert_same_arrays(got, kernels.near_pairs_loop(x, y, 2.0))


class TestGroupKeysReference:
    @PROPERTY
    @given(st.integers(1, 4), st.data())
    def test_groups_of_equal_rows_in_first_row_order(self, n_cols, data):
        """The numpy grouping that ``kernels.kink_pairs_loop`` runs: the
        rows that == holds equal (a dict key does too) share a group, and
        the groups are numbered in the order of their first rows."""
        value = st.sampled_from((0.0, -0.0, 1.0, -1.0, 1e150, 1e-160, 5e-324,
                                 -5e-324, 20.0))
        rows = data.draw(st.lists(st.tuples(*[value] * n_cols), max_size=60))
        floats = np.array(rows, dtype=np.float64).reshape(len(rows), n_cols)
        numbers, firsts = {}, []
        for r, row in enumerate(rows):
            if row not in numbers:
                numbers[row] = len(firsts)
                firsts.append(r)
        group, first = kernels.group_keys_loop((floats + 0.0).view(np.int64))
        assert group.tolist() == [numbers[row] for row in rows]
        assert first.tolist() == firsts


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


def kink_columns(layout):
    """The columns of `layout` that ``kernels.kink_pairs`` reads, in id
    order, as ``kink_matrix`` passes them."""
    by_id = layout.id_order
    return (layout.x[by_id], layout.y[by_id], layout.rotation[by_id],
            layout.dot_offset[by_id], layout.size[by_id])


def kink_pairs_of(kernel, columns, radius):
    x, y, *kinds = columns
    return kernel(x, y, radius, *kinds)


def loop_path():
    """The dispatchers on the loop kernels, as where no compiler works."""
    return mock.patch.object(kernels, "_library", lambda: None)


def assert_same_pairs(columns, radius):
    """The kink pair pass on both kernel paths: ``kink_pairs_c`` against its
    numpy transcription ``kink_pairs_loop``, all five arrays bit for bit,
    and the final pairs, groups and first pairs of ``kink_pairs`` on each
    path against ``reference_kink_pairs``. Returns the C pass's own result,
    hand-back included."""
    fused = kink_pairs_of(kernels.kink_pairs_c, columns, radius)
    assert_same_arrays(fused, kink_pairs_of(kernels.kink_pairs_loop, columns, radius))
    expected = kink_pairs_of(reference_kink_pairs, columns, radius)
    assert_same_arrays(kink_pairs_of(kernels.kink_pairs, columns, radius), expected)
    with loop_path():
        assert_same_arrays(kink_pairs_of(kernels.kink_pairs, columns, radius), expected)
    return fused


def assert_same_kink(layout, radius):
    """``assert_same_pairs`` on the columns of `layout`, and the pairs and
    energies of the kink matrix that each kernel path builds, bit for bit.
    Returns the C pass's own result."""
    fused = assert_same_pairs(kink_columns(layout), radius)
    matrix = kink_matrix(layout, radius, PAPER)
    with loop_path():
        reference = kink_matrix(layout, radius, PAPER)
    assert_same_arrays((matrix.first, matrix.second), (reference.first, reference.second))
    assert matrix.energies.tobytes() == reference.energies.tobytes()
    return fused


def handed_back(fused):
    """The numbers of pairs and of groups that the C pass hands back."""
    _, _, group, _, unsure = fused
    return int(np.isin(group, unsure).sum()), len(unsure)


def grid_layout(rows, cols, pitch, size):
    return Layout(name="grid", cells=tuple(
        fixed_cell(f"r{r}c{c}", c * pitch, r * pitch, size=size)
        for r in range(rows) for c in range(cols)))


@needs_cc
class TestKinkPairsAgree:
    """The pass from cells to the pairs and geometry groups of the kink
    matrix on both kernel paths (``assert_same_pairs``): the C pass against
    its numpy transcription, and ``kink_pairs``, the groups they hand back
    decided by math.hypot, against the brute-force ``reference_kink_pairs``;
    and, for a layout, the kink matrix of each path (``assert_same_kink``)."""

    @PROPERTY
    @given(layouts_and_radius())
    def test_drawn_layouts(self, problem):
        assert_same_kink(*problem)

    @PROPERTY
    @given(scaled_layouts_and_radius())
    def test_every_group_handed_back_where_squares_cannot_decide(self, problem):
        layout, radius = problem
        assert not 2.0 ** -900 <= radius * radius <= 2.0 ** 900
        fused = assert_same_kink(layout, radius)
        assert handed_back(fused) == (len(fused[0]), len(fused[3]))

    @PROPERTY
    @given(pair_problems(), st.data())
    def test_edge_centers_and_kinds(self, problem, data):
        # centers at edge values, differences that overflow, coincident
        # cells, and kinds whose offsets differ only in the sign of zero
        x, y, reach = problem
        kinds = data.draw(st.lists(st.sampled_from(
            ((0, 4.5, 18.0), (45, 4.5, 18.0), (0, 0.0, 18.0), (0, -0.0, 18.0),
             (45, -0.0, 10.0), (0, 2.5, 1e-160))), min_size=len(x), max_size=len(x)))
        columns = (x, y, np.array([k[0] for k in kinds], dtype=np.int64),
                   np.array([k[1] for k in kinds], dtype=np.float64),
                   np.array([k[2] for k in kinds], dtype=np.float64))
        assert_same_pairs(columns, reach)

    @pytest.mark.parametrize("pitch, size", [(20.0, 18.0), (18.5, 18.0), (0.1, 0.09)])
    @pytest.mark.parametrize("multiple", [1, 2, 3, 4, 5])
    def test_radius_at_multiples_of_the_pitch(self, pitch, size, multiple):
        # pairs k pitches apart along an axis, and (3, 4) pitches apart,
        # lie on the circle, where the squares hand them back
        fused = assert_same_kink(grid_layout(8, 9, pitch, size), multiple * pitch)
        assert handed_back(fused)[0] > 0

    def test_center_differences_that_overflow(self):
        cells = (fixed_cell("a", -1e308, 0.0, size=1e307),
                 fixed_cell("b", 1e308, 0.0, size=1e307),
                 fixed_cell("c", 1e308, 1.5e307, size=1e307))
        layout = Layout(name="huge", cells=cells)
        for radius in (1.5e307, 1e308, 1.7e308):
            assert len(assert_same_kink(layout, radius)[0]) == 1

    def test_negative_zero_offsets_share_a_group(self):
        # a-b differ by -0.0 along one axis and b-c by 0.0
        for cells in ((fixed_cell("a", 0.0, 0.0), fixed_cell("b", -0.0, 20.0),
                       fixed_cell("c", 0.0, 40.0)),
                      (fixed_cell("a", 0.0, 0.0), fixed_cell("b", 20.0, -0.0),
                       fixed_cell("c", 40.0, 0.0))):
            fused = assert_same_kink(Layout(name="line", cells=cells), 30.0)
            assert fused[2].tolist() == [0, 0]
        # cells whose dot offsets are 0.0 and -0.0 are of one kind (no
        # layout holds either, but the columns may)
        columns = (np.arange(4) * 20.0, np.zeros(4), np.zeros(4, dtype=np.int64),
                   np.array([0.0, -0.0, 0.0, -0.0]), np.full(4, 18.0))
        assert assert_same_pairs(columns, 30.0)[2].tolist() == [0, 0, 0]

    def test_a_group_decided_out(self):
        # one ulp below 100 nm the squares cannot decide the pairs (60, 80)
        # and (80, 60) nm apart, and math.hypot puts them beyond the
        # radius: their four groups go, whole, and the later groups move up
        layout = grid_layout(5, 6, 20.0, 18.0)
        radius = math.nextafter(100.0, 0.0)
        fused = assert_same_kink(layout, radius)
        got = kink_pairs_of(kernels.kink_pairs, kink_columns(layout), radius)
        assert handed_back(fused) == (14, 4)
        assert len(fused[0]) - len(got[0]) == 14
        assert len(fused[3]) - len(got[3]) == 4
        assert fused[4][0] < len(got[3])  # a group after it moved up
        # at 100 nm they are in, with the pairs 100 nm apart along a row
        assert handed_back(assert_same_kink(layout, 100.0)) == (19, 5)
        assert len(kink_matrix(layout, 100.0, PAPER)) == len(got[0]) + 19

    def test_pairs_at_the_margin_of_the_squares(self):
        # cells (60, 80) (1 + e) nm from the first, on both sides of the
        # margin 2**-40 r**2 (|d2 - r2| is about 2 |e| r2): both kernels
        # hand back the four nearest the circle and decide the others by
        # squares, and math.hypot puts the two outside it beyond the radius
        steps = [sign * 2.0 ** -k for k in (25, 35, 39, 41, 45) for sign in (1, -1)]
        n = len(steps) + 1
        scale = np.array([0.0] + [1.0 + e for e in steps])
        columns = (60.0 * scale, 80.0 * scale, np.zeros(n, dtype=np.int64),
                   np.full(n, 4.5), np.full(n, 18.0))
        fused = assert_same_pairs(columns, 100.0)
        assert handed_back(fused) == (4, 4)
        assert len(kink_pairs_of(kernels.kink_pairs, columns, 100.0)[0]) == len(fused[0]) - 2

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("radius", [5e-324, 1.0, 20.0, 1e150])
    def test_few_cells(self, n, radius):
        assert_same_kink(grid_layout(1, n, 20.0, 18.0), radius)

    def test_many_geometries_and_kinds(self):
        # thousands of geometries and hundreds of kinds: both hash tables
        # grow many times over
        rnd = np.random.default_rng(9)
        n = 600
        x, y = rnd.uniform(-300.0, 300.0, (2, n))
        size = rnd.integers(1, 400, n).astype(np.float64)
        columns = (x, y, rnd.choice([0, 45], n), size / 4.0, size)
        assert len(assert_same_pairs(columns, 60.0)[3]) > 5000

    def test_beyond_the_first_offer(self):
        # all 11,175 pairs of 150 close cells: more than 64 per cell
        rnd = np.random.default_rng(5)
        x, y = rnd.uniform(-1.0, 1.0, (2, 150))
        columns = (x, y, np.zeros(150, dtype=np.int64), np.full(150, 0.1), np.full(150, 0.4))
        assert len(assert_same_pairs(columns, 3.0)[0]) == 150 * 149 // 2

    @pytest.mark.parametrize("seed, pairs, handed", [(1, 25_569, (2_083, 2)),
                                                     (7, 25_484, (2_077, 2))])
    def test_benchmark_block(self, seed, pairs, handed, tmp_path, monkeypatch):
        """The 1,240-cell block of the kink-large benchmark, read as the CLI
        reads it: the pairs exactly 80 nm apart along an axis, in two
        groups, are the only ones handed back."""
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        workloads = importlib.import_module("workloads")
        inputs = workloads._kink_large(seed, tmp_path)
        layout = parse_layout(inputs.files[0].read_text(encoding="utf-8"), name="large")
        fused = assert_same_kink(layout, 80.0)
        assert len(fused[0]) == pairs
        assert handed_back(fused) == handed


@st.composite
def coupling_problems(draw):
    """Points over a layout's cells and the cell ids to list them on. The
    points draw, with repeats, from several distinct kink matrices: the
    layout's own, and pair dicts that share some of its pairs at other
    energies, 0.0 and -0.0 among them. The cell ids are a permuted subset
    of the layout's with ids that no matrix has, possibly none at all."""
    layout = draw(lattice_layouts(max_cells=12))
    own = kink_matrix(layout, 60.0, PAPER)
    matrices = [own]
    pairs = list(itertools.combinations(sorted(layout.ids), 2))
    energies = st.one_of(st.sampled_from((0.0, -0.0, 1e-21, -2e-21)),
                         st.floats(-1e-20, 1e-20))
    for _ in range(draw(st.integers(1, 3)) if pairs else 0):
        shared = draw(st.lists(st.sampled_from(list(own.pairs) or pairs), unique=True))
        other = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8))
        matrices.append(kink_matrix_from_pairs(
            {key: draw(energies) for key in {*shared, *other}}, 60.0))
    kinks = draw(st.permutations(
        matrices + draw(st.lists(st.sampled_from(matrices), max_size=3))))
    ids = draw(st.permutations(layout.ids))
    ids = ids[:draw(st.integers(0, len(ids)))]
    strangers = draw(st.lists(st.sampled_from(("x", "y", "zz")), unique=True))
    return kinks, draw(st.permutations(ids + strangers))


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
    @given(coupling_problems())
    def test_coupling_matches_pair_lookup(self, problem):
        kinks, cell_ids = problem
        energies, offsets, cols = coupling(kinks, cell_ids)
        n = len(cell_ids)
        assert [a.dtype for a in (energies, offsets, cols)] == [
            np.float64, np.int64, np.int64]
        assert offsets.shape == (n + 1,) and offsets[0] == 0
        assert offsets[-1] == cols.size and energies.shape == (len(kinks), cols.size)
        got = {}
        for i in range(n):
            row = cols[offsets[i]:offsets[i + 1]].tolist()
            assert row == sorted(set(row)) and i not in row  # ascending position
            for k, j in enumerate(row, offsets[i]):
                got[i, j] = energies[:, k].tolist()
        # every ordered pair of cells that some point couples, in (row, col)
        # order, with each point's energy; 0.0 where it lacks the pair
        expected = {}
        for i, j in itertools.permutations(range(n), 2):
            row = [kink_energy(kink, cell_ids[i], cell_ids[j]) for kink in kinks]
            if any(energy != 0.0 for energy in row):
                expected[i, j] = [energy if energy != 0.0 else 0.0 for energy in row]
        assert list(got) == sorted(expected)
        assert (np.array(list(got.values())).tobytes()
                == np.array([expected[key] for key in sorted(expected)]).tobytes())

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

    @pytest.mark.filterwarnings("error")
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
        # no cells at all: the keys are divided by n = 0, without a warning
        energies, offsets, cols = coupling([first, second, first], [])
        assert (energies.shape, offsets.tolist(), cols.shape) == ((3, 0), [0], (0,))
        assert [a.dtype for a in (energies, offsets, cols)] == [
            np.float64, np.int64, np.int64]


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
        layout = self.odd_layout()
        order = layout.id_order
        assert [layout.ids[k] for k in order.tolist()] == sorted(ODD_IDS)
        assert order.dtype == np.int64 and not order.flags.writeable
        assert layout.id_order is order  # sorted once per layout
        matrix = kink_matrix(layout, 80.0, PAPER)
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
