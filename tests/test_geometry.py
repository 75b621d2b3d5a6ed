import math

import pytest

from qcasim.geometry import (Cell, Layout, LayoutError, ParseError,
                             builtin_layout, displace_cell, displacement_axis,
                             dot_positions, electron_dots, parse_layout,
                             previous_neighbor, serialize_layout)


def make_cell(**kwargs):
    defaults = dict(id="c", center_x=0.0, center_y=0.0)
    defaults.update(kwargs)
    return Cell(**defaults)


class TestDotPositions:
    def test_rot0_defaults(self):
        dots = dot_positions(make_cell())
        assert dots == [(4.5, 4.5), (-4.5, 4.5), (-4.5, -4.5), (4.5, -4.5)]

    def test_rot45(self):
        dots = dot_positions(make_cell(rotation=45))
        assert dots == [(4.5, 0.0), (0.0, 4.5), (-4.5, 0.0), (0.0, -4.5)]

    def test_translation_equivariance(self, rng):
        for _ in range(50):
            x, y = rng.uniform(-100, 100, size=2)
            base = dot_positions(make_cell())
            moved = dot_positions(make_cell(center_x=x, center_y=y))
            for (bx, by), (mx, my) in zip(base, moved):
                assert mx == pytest.approx(bx + x, abs=1e-12)
                assert my == pytest.approx(by + y, abs=1e-12)

    @pytest.mark.parametrize("rotation,expected_dist", [(0, 4.5 * math.sqrt(2)), (45, 4.5)])
    def test_distance_from_center(self, rotation, expected_dist):
        cell = make_cell(rotation=rotation)
        for x, y in dot_positions(cell):
            assert math.hypot(x, y) == pytest.approx(expected_dist, rel=1e-12)


class TestCellValidation:
    def test_bad_size(self):
        with pytest.raises(LayoutError):
            make_cell(size=0)

    def test_bad_offset(self):
        with pytest.raises(LayoutError):
            make_cell(dot_offset=10.0)  # > size/2

    def test_bad_clock_zone(self):
        with pytest.raises(LayoutError):
            make_cell(clock_zone=5)

    def test_fixed_needs_polarization(self):
        with pytest.raises(LayoutError):
            make_cell(role="fixed")

    def test_polarization_only_on_fixed(self):
        with pytest.raises(LayoutError):
            make_cell(role="normal", fixed_polarization=1.0)

    def test_default_offset_is_quarter_size(self):
        assert make_cell(size=20.0).dot_offset == 5.0


class TestElectronDots:
    def test_positive_polarization_occupies_dots_1_and_3(self):
        assert electron_dots(+1) == (0, 2)

    def test_negative_polarization_occupies_dots_2_and_4(self):
        assert electron_dots(-1) == (1, 3)

    def test_zero_sign_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            electron_dots(0)


class TestLayoutValidation:
    def test_duplicate_ids(self):
        with pytest.raises(LayoutError, match="duplicate"):
            Layout(name="l", cells=(make_cell(id="a", role="fixed", fixed_polarization=1.0),
                                    make_cell(id="a", center_x=40.0)))

    def test_overlap(self):
        with pytest.raises(LayoutError, match="overlap"):
            Layout(name="l", cells=(make_cell(id="a"), make_cell(id="b", center_x=10.0)))

    def test_touching_counts_as_overlap(self):
        with pytest.raises(LayoutError, match="overlap"):
            Layout(name="l", cells=(make_cell(id="a"), make_cell(id="b", center_x=18.0)))

    def test_undriven_layout_needs_driver(self):
        with pytest.raises(LayoutError, match="no input or fixed"):
            Layout(name="l", cells=(make_cell(id="a"),))

    def test_single_fixed_cell_ok(self):
        layout = Layout(name="l", cells=(make_cell(id="a", role="fixed",
                                                   fixed_polarization=1.0),))
        assert len(layout.cells) == 1


class TestParseLayout:
    def test_minimal_document(self):
        layout = parse_layout("qcl 1\ncell id=in x=0 y=0 role=fixed pol=1\n")
        assert len(layout.cells) == 1
        assert layout.cells[0].role == "fixed"
        assert layout.cells[0].size == 18.0
        assert layout.cells[0].dot_offset == 4.5

    def test_roundtrip_builtin_inv2(self):
        layout = builtin_layout("inv2")
        again = parse_layout(serialize_layout(layout), name="inv2")
        assert len(again.cells) == 2
        assert [c.role for c in again.cells] == ["fixed", "output"]
        assert again.cells == layout.cells

    @pytest.mark.parametrize("name", ["wire(2)", "wire(5)", "majority", "inv2", "inv3"])
    def test_roundtrip_all_builtins(self, name):
        layout = builtin_layout(name)
        again = parse_layout(serialize_layout(layout), name=layout.name)
        assert again.cells == layout.cells

    def test_roundtrip_random_layouts(self, rng):
        from conftest import random_layout
        for _ in range(25):
            layout = random_layout(rng)
            again = parse_layout(serialize_layout(layout), name="random")
            assert again.cells == layout.cells

    def test_clock_out_of_range(self):
        with pytest.raises(ParseError, match="clock"):
            parse_layout("qcl 1\ncell id=a x=0 y=0 role=fixed pol=1 clock=5\n")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="qcl 1"):
            parse_layout("cell id=a x=0 y=0 role=fixed pol=1\n")

    def test_unknown_key_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_layout("qcl 1\n# comment\ncell id=a x=0 y=0 role=fixed pol=1 frob=2\n")

    def test_comments_and_blanks_ignored(self):
        text = "# header comment\nqcl 1\n\n# mid comment\ncell id=a x=0 y=0 role=fixed pol=1\n"
        assert len(parse_layout(text).cells) == 1

    def test_constants_line(self):
        layout = parse_layout("qcl 1\nconstants codata\ncell id=a x=0 y=0 role=fixed pol=1\n")
        assert layout.constants_mode == "codata"
        assert "constants codata" in serialize_layout(layout)

    def test_duplicate_id_rejected(self):
        with pytest.raises(LayoutError):
            parse_layout("qcl 1\ncell id=a x=0 y=0 role=fixed pol=1\n"
                         "cell id=a x=40 y=0 role=normal\n")

    def test_fixed_without_pol_rejected(self):
        with pytest.raises(ParseError):
            parse_layout("qcl 1\ncell id=a x=0 y=0 role=fixed\n")


class TestBuiltinLayouts:
    def test_wire_pitch(self):
        layout = builtin_layout("wire(3)", gap=2.0)
        assert [c.center_x for c in layout.cells] == [0.0, 20.0, 40.0]
        assert [c.center_y for c in layout.cells] == [0.0, 0.0, 0.0]

    def test_inv2_diagonal_output(self):
        layout = builtin_layout("inv2", gap=2.0)
        out = layout.cell("out")
        assert (out.center_x, out.center_y) == (20.0, 20.0)

    def test_inv3_three_cells_one_output(self):
        layout = builtin_layout("inv3", gap=2.0)
        assert len(layout.cells) == 3
        assert sum(c.role == "output" for c in layout.cells) == 1

    def test_inv2_exactly_one_output(self):
        assert builtin_layout("inv2").output_cell().id == "out"

    def test_majority_cross(self):
        layout = builtin_layout("majority")
        assert {c.id for c in layout.cells} == {"a", "b", "c", "m", "out"}
        assert layout.cell("m").center == (0.0, 0.0)

    def test_unknown_name(self):
        with pytest.raises(LayoutError, match="unknown builtin"):
            builtin_layout("nand")

    def test_bad_gap(self):
        with pytest.raises(LayoutError):
            builtin_layout("inv2", gap=0.0)

    def test_wire_too_short(self):
        with pytest.raises(LayoutError):
            builtin_layout("wire(1)")


class TestDisplaceCell:
    def test_wire_gap_arithmetic(self):
        layout = builtin_layout("wire(2)", gap=2.0)
        moved = displace_cell(layout, "out", 3.0, (1.0, 0.0))
        assert moved.cell("out").center_x == 21.0
        assert moved.cell("out").center_y == 0.0

    def test_identity_at_current_gap(self):
        layout = builtin_layout("inv2", gap=2.0)
        moved = displace_cell(layout, "out", 2.0, displacement_axis(layout, "out"))
        assert moved.cells == layout.cells

    def test_non_target_cells_untouched(self):
        layout = builtin_layout("inv3", gap=2.0)
        moved = displace_cell(layout, "out", 0.7, displacement_axis(layout, "out"))
        for before, after in zip(layout.cells, moved.cells):
            if before.id != "out":
                assert before == after
        assert len(moved.cells) == len(layout.cells)

    def test_diagonal_axis(self):
        layout = builtin_layout("inv2", gap=2.0)
        moved = displace_cell(layout, "out", 3.0, displacement_axis(layout, "out"))
        assert moved.cell("out").center == (21.0, 21.0)

    def test_zero_gap_rejected(self):
        layout = builtin_layout("inv2")
        with pytest.raises(LayoutError):
            displace_cell(layout, "out", 0.0, (1.0, 1.0))

    def test_unknown_id(self):
        with pytest.raises(LayoutError):
            displace_cell(builtin_layout("inv2"), "nope", 1.0, (1.0, 0.0))

    def test_previous_neighbor_ties_break_by_id(self):
        cells = (
            Cell(id="b", center_x=-20.0, center_y=0.0, role="fixed", fixed_polarization=1.0),
            Cell(id="a", center_x=20.0, center_y=0.0, role="fixed", fixed_polarization=1.0),
            Cell(id="t", center_x=0.0, center_y=0.0),
        )
        layout = Layout(name="tie", cells=cells)
        assert previous_neighbor(layout, "t").id == "a"
