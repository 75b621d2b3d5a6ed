import importlib
import math
import tracemalloc
from dataclasses import astuple
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracle import reference_cell_error, reference_parse_layout
from test_kernels import HAS_CC, needs_cc
from qcasim import kernels
from qcasim.geometry import (_BAD_ID, FIXED, MAX_WIRE_CELLS, ROLES, Cell, Layout,
                             LayoutError, ParseError, builtin_layout, displace_cell,
                             displacement_axis, dot_positions, electron_dots,
                             parse_layout, previous_neighbor, serialize_layout)


def reals(lo, hi):
    """Reals in [lo, hi]: with at most six decimals, which serialize_layout
    writes as such, or any float, which it must write exactly too."""
    return st.one_of(st.integers(round(lo * 10**6), round(hi * 10**6)).map(
        lambda k: k / 10**6), st.floats(lo, hi))


def cell_bits(cells):
    """Each field of each cell with its type, each float as its bit
    pattern."""
    def exact(value):
        return type(value).__name__, value.hex() if isinstance(value, float) else value
    return [tuple(map(exact, astuple(c))) for c in cells]


def bits(layout):
    """Everything a layout holds, each float as its bit pattern, each cell
    field with its type."""
    columns = (layout.x, layout.y, layout.size, layout.dot_offset,
               layout.rotation, layout.zone, layout.role, layout.pol)
    return (layout.name, layout.constants_mode, layout.ids,
            [(c.dtype.str, c.tobytes()) for c in columns], cell_bits(layout.cells))


CELL_IDS = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1,
                   max_size=6).filter(lambda s: s[0] != "#" and not _BAD_ID.search(s))


@st.composite
def layouts(draw):
    """Layouts that pass Layout's checks: cells near the points of a 25 nm
    grid, of mixed size, rotation, role and clock zone, any id."""
    spots = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                          min_size=1, max_size=8, unique=True))
    ids = draw(st.lists(CELL_IDS, min_size=len(spots), max_size=len(spots),
                        unique=True))
    cells = []
    for (gx, gy), cid in zip(spots, ids):
        size = draw(reals(5, 22))
        role = draw(st.sampled_from(ROLES))
        cells.append(dict(
            id=cid,
            center_x=draw(reals(gx * 25 - 3, gx * 25 + 3)),
            center_y=draw(reals(gy * 25 - 3, gy * 25 + 3)),
            size=size,
            dot_offset=draw(reals(0, size / 2).filter(lambda d: 0 < d <= size / 2)),
            rotation=draw(st.sampled_from((0, 45))),
            role=role,
            clock_zone=draw(st.integers(0, 3)),
            fixed_polarization=draw(reals(-1, 1)) if role == "fixed" else None))
    try:
        return Layout(name=draw(st.sampled_from(("random", "g"))),
                      cells=tuple(Cell(**cell) for cell in cells),
                      constants_mode=draw(st.sampled_from((None, "paper", "codata"))))
    except LayoutError:  # overlapping cells, or no input or fixed cell
        assume(False)


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

    @pytest.mark.parametrize("cid", ["", "a b", "a=b", "a,b", 'c"d', "#in", "a\x00b",
                                     "\x1b", "a\x7f", "\x85", "\u3000"])
    def test_ids_that_break_a_line_or_a_csv_row(self, cid):
        with pytest.raises(LayoutError, match="invalid cell id"):
            make_cell(id=cid)

    @pytest.mark.parametrize("cid", ["a#", "in#1", "é", "a-b", "'q'", "a;b"])
    def test_other_ids_kept(self, cid):
        assert make_cell(id=cid).id == cid

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.data())
    def test_against_reference(self, data):
        """`Cell(...)` raises the error of `reference_cell_error`, the same
        type and text, or accepts the fields where it returns None: a valid
        fixed cell with up to three fields drawn from their edge values."""
        fields = dict(id="c", center_x=1.5, center_y=-2.0, size=18.0, dot_offset=None,
                      rotation=0, role="fixed", clock_zone=1, fixed_polarization=0.5)
        odd = (math.nan, math.inf, -math.inf, 0.0, -0.0)
        spoilt = data.draw(st.sets(st.sampled_from(sorted(fields)), max_size=3))
        for name in [name for name in fields if name in spoilt]:  # size before offset
            size = fields["size"]
            fields[name] = data.draw(st.sampled_from({
                "id": ("é", "a#", "", "#a", "a b", "a=b", 'a"b', "a,b", "a\x00", "\x85"),
                "center_x": odd, "center_y": odd,
                "size": (5.5, 1e308, -18.0, *odd),
                "dot_offset": (size / 2, math.nextafter(size / 2, math.inf), size / 4,
                               -1.0, *odd),
                "rotation": (45, 45.0, 90, -45, 0.5, 10**30, -10**30),
                "role": ("normal", "input", "output", "bogus", "Fixed", ""),
                "clock_zone": (0, 3, 2.0, 1.5, 4, -1, 10**30, -10**30),
                "fixed_polarization": (None, math.nan, 1.0, -1.0, -0.0, 1.5, -1.5,
                                       math.inf),
            }[name]))
        expected = reference_cell_error(**fields)
        if expected is None:
            Cell(**fields)
            return
        with pytest.raises(LayoutError) as raised:
            Cell(**fields)
        assert type(raised.value) is type(expected)
        assert str(raised.value) == str(expected)


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

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(layouts())
    def test_cells_equal_those_cell_builds(self, layout):
        """`Layout.cells` builds its cells from checked columns without the
        rules: each is the `Cell` built from the same fields."""
        layout = parse_layout(serialize_layout(layout))
        rotation, zone, role = layout._ints.tolist()
        expected = tuple(
            Cell(*fields, ROLES[r], z, p if r == FIXED else None)
            for *fields, r, z, p in zip(layout.ids, *layout._reals.tolist(), rotation,
                                        role, zone, layout.pol.tolist()))
        assert cell_bits(layout.cells) == cell_bits(expected)
        assert layout.cells == expected
        assert list(map(hash, layout.cells)) == list(map(hash, expected))

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
        assert bits(again) == bits(layout)  # column for column

    def test_reals_serialize_exactly(self):
        """Six decimals would put b and a at 18 nm, which overlaps, and c
        at x = 20."""
        layout = Layout(name="l", cells=(
            Cell(id="a", center_x=0.0, center_y=0.0, role="fixed", fixed_polarization=1.0),
            Cell(id="b", center_x=18.0000001, center_y=0.0),
            Cell(id="c", center_x=20.0000004, center_y=40.0, size=18.25)))
        text = serialize_layout(layout)
        assert "x=18.0000001 " in text and "x=20.0000004 " in text
        assert "size=18.25 offset=4.5625 " in text
        assert bits(parse_layout(text, name="l")) == bits(layout)

    def test_texts_that_read_back_are_kept(self):
        assert serialize_layout(builtin_layout("inv2", gap=2.5)) == (
            "qcl 1\n"
            "cell id=in x=0 y=0 size=18 offset=4.5 rot=0 role=fixed clock=0 pol=1\n"
            "cell id=out x=20.5 y=20.5 size=18 offset=4.5 rot=0 role=output clock=0\n")

    def test_roundtrip_random_layouts(self, rng):
        from conftest import random_layout
        for _ in range(25):
            layout = random_layout(rng)
            again = parse_layout(serialize_layout(layout), name="random")
            assert again.cells == layout.cells

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_roundtrip_generated_layouts(self, data):
        layout = data.draw(layouts())
        assert parse_layout(serialize_layout(layout), name=layout.name) == layout

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

    @pytest.mark.parametrize("cid", ["a,b", 'c"d', "#in", "a\x00b", "\x7f"])
    def test_ids_that_break_a_csv_row(self, cid):
        text = f"qcl 1\ncell id=in x=0 y=0 role=fixed pol=1\ncell id={cid} x=20 y=0 role=normal\n"
        with pytest.raises(ParseError) as raised:
            parse_layout(text)
        assert str(raised.value) == f"line 3: invalid cell id {cid!r}"


ARABIC_DIGITS = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                             "\u0665\u0666\u0667\u0668\u0669")


@st.composite
def integer_texts(draw, k, real=True):
    """A text that Python's `int` (`float` where `real`) reads as k, in one
    of the forms numpy's conversions read otherwise or not at all."""
    digits = str(abs(k))
    form = draw(st.sampled_from(("plain", "underscore", "arabic")
                                + (("exponent", "point") if real else ())))
    if form == "underscore" and len(digits) > 1:
        cut = draw(st.integers(1, len(digits) - 1))
        digits = f"{digits[:cut]}_{digits[cut:]}"
    elif form == "arabic":
        digits = digits.translate(ARABIC_DIGITS)
    elif form == "exponent":
        digits = f"{digits}0e-1"
    elif form == "point":
        digits += ".0"
    return ("-" if k < 0 else draw(st.sampled_from(("", "+")))) + digits


def coordinate(spot):
    return st.one_of(integer_texts(spot * 25),
                     st.floats(spot * 25 - 1, spot * 25 + 1).map(repr))


# Each error class, as a change to the document's lines: a line is a str or
# a cell's list of [key, value] fields.
def _cell_fields(lines):
    return [line for line in lines if isinstance(line, list)]


def _set(key, value, position=-1):
    def corrupt(lines):
        fields = _cell_fields(lines)[position]
        for field in fields:
            if field[0] == key:
                field[1] = value
                return
        fields.append([key, value])
    return corrupt


def _undriven(lines):
    for fields in _cell_fields(lines):
        fields[:] = [f for f in fields if f[0] != "pol"]
        for field in fields:
            if field[0] == "role":
                field[1] = "normal"


def _copy_of_first(*keys):
    def corrupt(lines):
        first = _cell_fields(lines)[0]
        for key in keys:
            _set(key, dict(first)[key])(lines)
    return corrupt


CORRUPTIONS = {
    "header": lambda lines: lines.__setitem__(0, "qcl 2"),
    "directive": lambda lines: lines.append("wire id=w x=900 y=0 role=normal"),
    "constants": lambda lines: lines.insert(1, "constants exotic"),
    "constants arity": lambda lines: lines.insert(1, "constants paper codata"),
    "late constants": lambda lines: lines.append("constants exotic"),
    "late header": lambda lines: lines.append("qcl 1"),
    "token": lambda lines: _cell_fields(lines)[-1].append(["frob", None]),
    "unknown key": _set("frob", "1"),
    "duplicate key": lambda lines: _cell_fields(lines)[-1].append(["x", "900"]),
    "missing key": lambda lines: _cell_fields(lines)[-1].remove(
        next(f for f in _cell_fields(lines)[-1] if f[0] == "x")),
    "numeric": _set("x", "1.2.3"),
    "integer": _set("rot", "4.5e1"),
    "id": _set("id", "a=b"),
    "empty id": _set("id", ""),
    "not finite": _set("y", "nan"),
    "infinite size": _set("size", "inf"),
    "size": _set("size", "-18"),
    "offset": _set("offset", "0"),
    "large offset": lambda lines: (_set("size", "18")(lines),
                                   _set("offset", "9.5")(lines)),
    "rotation": _set("rot", "90"),
    "huge rotation": _set("rot", "9" * 25),
    "role": _set("role", "bogus"),
    "zone": _set("clock", "4"),
    "huge zone": _set("clock", "-" + "9" * 25),
    "fixed without pol": _set("role", "fixed", position=-1),
    "pol on a free cell": _set("pol", "1", position=-1),
    "pol range": _set("pol", "1.5", position=0),
    "pol nan": _set("pol", "nan", position=0),
    "duplicate id": _copy_of_first("id"),
    "overlap": _copy_of_first("x", "y"),
    "undriven": _undriven,
}


# Pairs (earlier, later) of error classes for `qcl_documents`, where a cell
# class changes the last cell (the first for "pol range").
CELL_RULES = ("id", "not finite", "size", "offset", "rotation", "huge zone", "role")
TOKEN_ERRORS = ("token", "unknown key", "duplicate key", "missing key", "numeric")
LINE_ERRORS = ("header", "directive", "constants", "late constants", "late header")
LAYOUT_RULES = ("duplicate id", "overlap", "undriven")
TWO_ERRORS = [
    *zip(CELL_RULES + ("pol range",), TOKEN_ERRORS * 2),
    *zip(TOKEN_ERRORS * 2, CELL_RULES + ("fixed without pol",)),
    *zip(CELL_RULES, LINE_ERRORS),
    *zip(TOKEN_ERRORS, LINE_ERRORS),
    *zip(TOKEN_ERRORS, LAYOUT_RULES),
    *zip(LAYOUT_RULES, ("directive", "token", "late header")),
]


@st.composite
def qcl_documents(draw, corruption=None, earlier=None):
    """A .qcl document of 2-6 cells near the points of a 25 nm grid: any
    ids, keys in any order, optional keys left out, numbers in every form
    that Python reads, comments, blank lines, `constants` lines and any
    whitespace; with the error class `earlier` put in the lines up to the
    first cell (in the whole document for a layout rule), then the error
    class `corruption` in the whole."""
    spots = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                          min_size=2, max_size=6, unique=True))
    ids = draw(st.lists(CELL_IDS, min_size=len(spots), max_size=len(spots),
                        unique=True))
    lines = ["qcl 1"]
    for k, ((gx, gy), cid) in enumerate(zip(spots, ids)):
        role = "fixed" if k == 0 else draw(st.sampled_from(ROLES[:3]))
        fields = [["id", cid], ["x", draw(coordinate(gx))],
                  ["y", draw(coordinate(gy))], ["role", role]]
        if draw(st.booleans()):
            fields.append(["size", draw(integer_texts(draw(st.integers(10, 22))))])
        if draw(st.booleans()):
            fields.append(["offset", draw(integer_texts(draw(st.integers(1, 5))))])
        if draw(st.booleans()):
            fields.append(["rot", draw(integer_texts(draw(st.sampled_from((0, 45))),
                                                     real=False))])
        if draw(st.booleans()):
            fields.append(["clock", draw(integer_texts(draw(st.integers(0, 3)),
                                                       real=False))])
        if role == "fixed":
            fields.append(["pol", draw(st.sampled_from(
                ("1", "-1", "+1", "0.5", "-0", "1e0", "1_0e-1", "-.25")))])
        lines.append(draw(st.permutations(fields)))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(
            ("", "   ", "# a comment", "  #cell id=x", "constants paper",
             "constants codata"))))
    if earlier is not None:
        end = len(lines) if earlier in LAYOUT_RULES else next(
            k for k, line in enumerate(lines) if isinstance(line, list)) + 1
        head = lines[:end]
        CORRUPTIONS[earlier](head)
        lines[:end] = head
    if corruption is not None:
        CORRUPTIONS[corruption](lines)
    space = st.sampled_from((" ", "  ", "\t", "\u3000"))
    text = [draw(st.sampled_from(("", "# first\n", "\n")))]
    for line in lines:
        if isinstance(line, list):
            tokens = ["cell"] + [key if value is None else f"{key}={value}"
                                 for key, value in line]
            line = draw(space).join(tokens) if draw(st.booleans()) else " ".join(tokens)
        text.append(line + draw(st.sampled_from(("", " ", "\t"))))
    return "".join(text[:1]) + draw(st.sampled_from(("\n", "\r\n"))).join(text[1:]) + "\n"


class TestAgainstReference:
    """`parse_layout` against the line-by-line `reference_parse_layout`:
    the same layout bit for bit, or the same exception type and text."""

    def check(self, text):
        try:
            expected = reference_parse_layout(text, "doc")
        except LayoutError as exc:
            with pytest.raises(LayoutError) as raised:
                parse_layout(text, "doc")
            assert type(raised.value) is type(exc)
            assert str(raised.value) == str(exc)
            return str(exc)
        assert bits(parse_layout(text, "doc")) == bits(expected)
        return None

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(qcl_documents())
    def test_valid_documents(self, text):
        assert self.check(text) is None

    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(st.data())
    def test_documents_with_an_error(self, name, data):
        assert self.check(data.draw(qcl_documents(name))) is not None

    @pytest.mark.parametrize("earlier, later", TWO_ERRORS)
    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(st.data())
    def test_the_first_of_two_errors_wins(self, earlier, later, data):
        assert self.check(data.draw(qcl_documents(later, earlier))) is not None


def outcome(text, loop_only=False):
    """What `parse_layout` gives for `text`: the layout's `bits`, or its
    exception's type and text; with `loop_only`, as where no library loads,
    which leaves every line to `parse_cells_loop`."""
    try:
        if loop_only:
            with mock.patch.object(kernels, "_library", return_value=None):
                return bits(parse_layout(text, "doc"))
        return bits(parse_layout(text, "doc"))
    except LayoutError as exc:
        return type(exc), str(exc)


def with_plain_header(text):
    """`text` with LF line ends from its first `qcl 1` line on, that line
    written exactly so, as the first: the C pass then reads on from it."""
    lines = text.replace("\r\n", "\n").split("\n")
    k = next((k for k, line in enumerate(lines) if line.strip() == "qcl 1"), None)
    return text if k is None else "\n".join(["qcl 1", *lines[k + 1:]])


def certified_lines(text):
    """The number of lines before the first that the C pass leaves to the
    loop."""
    return kernels.parse_cells(text)[4] - 1


DOCUMENT = ("qcl 1\n"
            "cell id=a x=0 y=0 role=fixed pol=1\n"
            "cell id=b x=20 y=0 role=output\n")


class TestCertifiedPass:
    """The C pass of `kernels.parse_cells`, which `parse_cells_loop`
    continues, against the loop alone: `parse_layout`'s layout bit for bit,
    or its exception type and text. Where no library loads, both sides run
    the loop alone; the tests of what the pass certifies need a compiler."""

    def check(self, text):
        expected = outcome(text, loop_only=True)
        assert outcome(text) == expected
        return expected

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(qcl_documents())
    def test_valid_documents(self, text):
        assert isinstance(self.check(text), tuple)
        self.check(with_plain_header(text))

    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(st.data())
    def test_documents_with_an_error(self, name, data):
        text = data.draw(qcl_documents(name))
        self.check(text)
        self.check(with_plain_header(text))

    # A value of the third cell (None: the key left out), and whether the C
    # pass certifies its line.
    @pytest.mark.parametrize("key, value, certified", [
        ("x", "9007199254740992", True),  # 2**53
        ("x", "9007199254740993", False),
        ("x", "-9007199254740992e-22", True),
        ("x", "1e22", True),
        ("x", "1e23", False),
        ("x", "123456789012345678e-22", False),
        ("x", "0.1000000000000000055511151231257827", False),
        ("x", "5.", True),
        ("x", ".5", True),
        ("x", "-0", True),
        ("x", "+0.0", True),
        ("x", "1e-400", False),
        ("x", "1E+000000002", True),
        ("x", "1e0000000002", False),  # ten exponent digits
        ("x", "1_0", False),
        ("x", "inf", False),
        ("x", "0x10", False),
        ("x", "\u0661", False),  # ARABIC-INDIC DIGIT ONE
        ("x", ".", False),
        ("x", "1e", False),
        ("size", "1.8e1", True),
        ("rot", "000000000000000045", True),  # 18 digits
        ("rot", "0000000000000000045", False),  # 19 digits
        ("rot", "999999999999999999", True),
        ("rot", "9999999999999999999", False),
        ("clock", "-0", True),
        ("clock", "+3", True),
        ("clock", "3.0", False),
        ("role", "fixed pol=-.5e0", True),
        ("role", "output\tid=c", False),  # a repeated key
        ("id", "c\tclock=2", True),
        ("id", "c=d", False),
        ("id", "\u00e7", False),
        ("id", "c\r", False),
        ("id", "c\x0c", False),
        ("id", "c\x1f", False),
        *((key, None, False) for key in ("id", "x", "y", "role")),
        ("size", None, True),
    ])
    def test_boundaries(self, key, value, certified):
        fields = {"id": "c", "x": "40", "y": "40", "role": "normal", key: value}
        if value is None:
            del fields[key]
        line = "cell " + " ".join(f"{k}={v}" for k, v in fields.items())
        for end in ("\n", ""):  # a last line without LF
            text = DOCUMENT + line + end
            result = self.check(text)
            if HAS_CC:
                assert certified_lines(text) == 3 + certified
            if key in ("x", "size") and value and len(result) == 5:  # a layout
                column = result[3][("x", "y", "size").index(key)][1]
                # the third cell's value has the bits of Python's float
                assert column[16:24] == np.float64(float(value)).tobytes()

    @needs_cc
    def test_stops_at_the_first_line_it_does_not_certify(self):
        lines = ["qcl 1", "", "  # any comment: x=1_0", "\t ", DOCUMENT.split("\n")[1],
                 "cell\tid=b x=20\t y=0   role=output  ", "constants paper",
                 "cell id=c x=40 y=0 role=normal"]
        text = "\n".join(lines) + "\n"
        assert certified_lines(text) == 6
        layout = parse_layout(text)
        assert (layout.ids, layout.constants_mode) == (("a", "b", "c"), "paper")
        self.check(text)
        # with no header line first, or another, the loop reads it all
        for other in ("\n" + text, "qcl 1 \n" + text[6:], "qcl 1\r\n" + text[6:]):
            assert certified_lines(other) == 0
            self.check(other)

    @needs_cc
    def test_arguments_checked_before_the_pointer_passes(self):
        for data, start in (("qcl 1\n", 6), (bytearray(b"qcl 1\n"), 6),
                            (b"qcl 1\n", 7), (b"qcl 1\n", -1)):
            with pytest.raises(ValueError, match="data must be bytes"):
                kernels.parse_cells_c(data, start, 2)

    @needs_cc
    def test_certifies_the_benchmark_documents(self, tmp_path, monkeypatch):
        """A block written as perfbench writes its layouts is certified to
        its end, so the C pass, not the loop, reads it."""
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        workloads = importlib.import_module("workloads")
        path = tmp_path / "block.qcl"
        workloads._write_qcl(path, workloads.block_cells(7, 4, 5, 2))
        text = path.read_text(encoding="utf-8")
        reals, ints, ids, start, lineno = kernels.parse_cells(text)
        assert (start, lineno) == (len(text), text.count("\n") + 1)
        assert len(ids) == 18
        self.check(text)


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

    @pytest.mark.parametrize("n", [str(MAX_WIRE_CELLS + 1), "9" * 20, "9" * 5000])
    def test_wire_too_long_is_rejected_before_allocating(self, n):
        tracemalloc.start()
        try:
            with pytest.raises(LayoutError, match=f"^wire needs at most "
                                                  f"{MAX_WIRE_CELLS} cells$"):
                builtin_layout(f"wire({n})")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16


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
        assert previous_neighbor(layout, "t") == "a"
