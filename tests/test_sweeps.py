import io
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcasim import sweeps
from qcasim.constants import PhysicalConstants
from qcasim.electrostatics import kink_matrix
from qcasim.engines import (BistableParams, CoherenceParams, bistable_relax,
                            simulate_coherence)
from qcasim.geometry import builtin_layout, displace_cell, displacement_axis
from qcasim.sweeps import (TABLE1_TEMPERATURES, TABLE23_GAPS, SweepError,
                           _pair_energy, _texts, compare_to_reference, emit_csv,
                           load_reference_table, rank_correlation, sweep_gap,
                           sweep_temperature, write_csv)

from oracle import NAN_BITS, SCI_EDGES, kink_energy, write_csv_rows

FAST = CoherenceParams(total_time=7.0e-13)


@pytest.fixture(scope="module")
def constants():
    return PhysicalConstants.paper()


class TestGrids:
    def test_temperature_grid(self):
        assert len(TABLE1_TEMPERATURES) == 15
        assert TABLE1_TEMPERATURES[0] == 0.0
        assert TABLE1_TEMPERATURES[-1] == 30.0
        assert all(b > a for a, b in zip(TABLE1_TEMPERATURES,
                                         TABLE1_TEMPERATURES[1:]))

    def test_gap_grid(self):
        assert TABLE23_GAPS == (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)


class TestSweepTemperature:
    def test_row_cardinality_and_order(self, constants):
        result = sweep_temperature(builtin_layout("inv2"), (1.0, 5.0, 10.0),
                                   FAST, constants)
        assert result.variable == "temperature"
        assert [r.value for r in result.rows] == [1.0, 5.0, 10.0]
        assert all(r.cell_id == "out" for r in result.rows)
        assert all(0.0 <= r.polarization <= 1.0 for r in result.rows)

    def test_singleton_matches_direct_run(self, constants):
        """Every point of the batched table-1 sweep equals its own run."""
        layout = builtin_layout("inv2")
        result = sweep_temperature(layout, TABLE1_TEMPERATURES, FAST, constants)
        kink = kink_matrix(layout, FAST.radius_of_effect, constants)
        assert result.values() == list(TABLE1_TEMPERATURES)
        for row in result.rows:
            trace = simulate_coherence(layout, kink,
                                       replace(FAST, temperature=row.value),
                                       constants=constants)
            assert row.polarization == abs(trace.final["out"])

    def test_integer_grid(self, constants):
        layout = builtin_layout("inv3")
        ints = sweep_temperature(layout, [0, 1, 2], FAST, constants)
        floats = sweep_temperature(layout, [0.0, 1.0, 2.0], FAST, constants)
        assert ([r.polarization for r in ints.rows]
                == [r.polarization for r in floats.rows])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_temperature(self, constants, bad):
        with pytest.raises(SweepError, match="finite"):
            sweep_temperature(builtin_layout("inv2"), (1.0, bad), FAST, constants)

    def test_integration_error_names_the_temperature(self, constants):
        unstable = replace(FAST, time_step=9.9e-16, relaxation_time=1e-15,
                           clock_high=1e-19, clock_low=1e-19, total_time=1e-13)
        with pytest.raises(SweepError, match="at temperature 0.0 K: coherence"):
            sweep_temperature(builtin_layout("inv3"), (0.0, 1.0), unstable,
                              constants)

    def test_empty_grid(self, constants):
        with pytest.raises(SweepError, match="empty"):
            sweep_temperature(builtin_layout("inv2"), (), FAST, constants)

    def test_unsorted_grid(self, constants):
        with pytest.raises(SweepError, match="strictly increasing"):
            sweep_temperature(builtin_layout("inv2"), (5.0, 1.0), FAST, constants)

    def test_negative_temperature(self, constants):
        with pytest.raises(SweepError, match="non-negative"):
            sweep_temperature(builtin_layout("inv2"), (-1.0, 5.0), FAST, constants)

    def test_snapshot_drops_swept_key(self, constants):
        result = sweep_temperature(builtin_layout("inv2"), (1.0,), FAST, constants)
        assert "temperature_K" not in result.snapshot
        assert result.snapshot["engine"] == "coherence"
        assert result.snapshot["layout"] == "inv2"


class TestSweepGap:
    def test_bistable_row_shape(self, constants):
        result = sweep_gap(builtin_layout("inv3"), "out", (1.0, 2.0, 3.0),
                           BistableParams(), constants)
        assert result.variable == "gap"
        assert [r.value for r in result.rows] == [1.0, 2.0, 3.0]
        assert all(r.kink_energy is not None for r in result.rows)

    def test_singleton_matches_direct_run(self, constants):
        layout = builtin_layout("inv3")
        params = BistableParams()
        result = sweep_gap(layout, "out", (1.5,), params, constants)
        displaced = displace_cell(layout, "out", 1.5,
                                  displacement_axis(layout, "out"))
        kink = kink_matrix(displaced, params.radius_of_effect, constants)
        pols = bistable_relax(displaced, kink, params)
        assert result.rows[0].polarization == abs(pols["out"])
        assert result.rows[0].kink_energy == kink_energy(kink, "out", "mid")

    @pytest.mark.parametrize("name,radius", [("inv3", 80.0), ("wire(3)", 25.0)])
    def test_pair_energy_reads_the_arrays(self, constants, name, radius):
        # wire(3) at 25 nm: in and out lie beyond the radius of effect
        kink = kink_matrix(builtin_layout(name), radius, constants)
        for a in kink.ids:
            for b in kink.ids:
                if a != b:
                    assert _pair_energy(kink, a, b) == kink_energy(kink, a, b)
        if name == "wire(3)":
            assert _pair_energy(kink, "in", "out") == 0.0

    def test_kink_energy_recomputed_per_gap(self, constants):
        result = sweep_gap(builtin_layout("inv3"), "out", (1.0, 2.0),
                           BistableParams(), constants)
        e1, e2 = (r.kink_energy for r in result.rows)
        assert abs(e1) > abs(e2)

    def test_coherence_points_match_direct_runs(self, constants):
        layout = builtin_layout("inv3")
        gaps = (1.0, 2.0, 3.0)
        result = sweep_gap(layout, "out", gaps, FAST, constants)
        axis = displacement_axis(layout, "out")
        for gap, row in zip(gaps, result.rows):
            displaced = displace_cell(layout, "out", gap, axis)
            kink = kink_matrix(displaced, FAST.radius_of_effect, constants)
            trace = simulate_coherence(displaced, kink, FAST, constants=constants)
            assert row.polarization == abs(trace.final["out"])
            assert row.kink_energy == kink_energy(kink, "out", "mid")

    def test_non_finite_gap(self, constants):
        with pytest.raises(SweepError, match="finite"):
            sweep_gap(builtin_layout("inv2"), "out", (1.0, math.nan),
                      BistableParams(), constants)

    def test_coherence_engine(self, constants):
        result = sweep_gap(builtin_layout("inv2"), "out", (2.0,), FAST, constants)
        assert result.engine == "coherence"
        assert 0.0 < result.rows[0].polarization < 1.0

    @pytest.mark.parametrize("params", [None, object()])
    def test_params_of_no_engine(self, constants, params):
        with pytest.raises(TypeError, match="no engine takes params"):
            sweep_gap(builtin_layout("inv2"), "out", (1.0,), params, constants)

    def test_non_positive_gap(self, constants):
        with pytest.raises(SweepError, match="positive"):
            sweep_gap(builtin_layout("inv2"), "out", (0.0, 1.0),
                      BistableParams(), constants)

    def test_error_names_offending_gap(self, constants):
        # gap 100 nm puts the output outside the 80 nm radius of effect:
        # its field is identically zero and the polarization stays at 0,
        # which is fine; instead force a failure with a tiny iteration cap
        params = BistableParams(max_iterations=1)
        with pytest.raises(SweepError, match="at gap 0.5 nm"):
            sweep_gap(builtin_layout("inv3"), "out", (0.5,), params, constants)


class TestReferenceTables:
    @pytest.mark.parametrize("identifier,rows,columns", [
        ("table1", 15, ("temperature_K", "inv2_P", "inv3_P")),
        ("table2", 6, ("gap_nm", "inv2_P", "inv3_P")),
        ("table3", 6, ("gap_nm", "inv2_Ek_J", "inv3_Ek_J")),
    ])
    def test_shape(self, identifier, rows, columns):
        table = load_reference_table(identifier)
        assert len(table.rows) == rows
        assert table.columns == columns

    def test_table1_grid_matches_constant(self):
        assert tuple(load_reference_table("table1").grid()) == TABLE1_TEMPERATURES

    def test_table2_grid_matches_constant(self):
        assert tuple(load_reference_table("table2").grid()) == TABLE23_GAPS

    def test_spot_values(self):
        table1 = load_reference_table("table1")
        assert table1.column("inv2_P")[1] == 0.562  # 1 K
        table3 = load_reference_table("table3")
        assert table3.column("inv3_Ek_J")[3] == 9.714e-20  # 2.00 nm

    def test_unknown_identifier(self):
        with pytest.raises(SweepError, match="unknown reference table"):
            load_reference_table("table9")


class TestRankCorrelation:
    def test_identical_series(self):
        assert rank_correlation([3.0, 2.0, 1.0], [3.0, 2.0, 1.0]) == 1.0

    def test_reversed_series(self):
        assert rank_correlation([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -1.0

    def test_monotone_with_ties_still_one(self):
        # both weakly decreasing, ties broken identically by row order
        assert rank_correlation([5.0, 5.0, 2.0, 1.0],
                                [9.0, 4.0, 4.0, 3.0]) == 1.0

    def test_sub_csv_precision_counts_as_tie(self):
        xs = [1.0, 1.0 + 1e-9, 0.5]
        ys = [2.0, 1.0, 0.5]
        assert rank_correlation(xs, ys) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(SweepError):
            rank_correlation([1.0], [1.0, 2.0])

    def test_too_short(self):
        with pytest.raises(SweepError):
            rank_correlation([1.0], [2.0])


class TestCompareToReference:
    def test_self_comparison_is_exact(self, constants):
        result = sweep_gap(builtin_layout("inv3"), "out", TABLE23_GAPS,
                           BistableParams(), constants)
        fake = load_reference_table("table2")
        report = compare_to_reference(result, fake, "inv3_P")
        assert [r.value for r in report.rows] == list(TABLE23_GAPS)
        for row in report.rows:
            assert row.abs_difference == abs(row.simulated - row.reference)

    def test_kink_column_uses_magnitudes(self, constants):
        result = sweep_gap(builtin_layout("inv3"), "out", TABLE23_GAPS,
                           BistableParams(), constants)
        report = compare_to_reference(result, load_reference_table("table3"),
                                      "inv3_Ek_J")
        for row, sweep_row in zip(report.rows, result.rows):
            assert row.simulated == abs(sweep_row.kink_energy)

    def test_grid_mismatch_rejected(self, constants):
        result = sweep_gap(builtin_layout("inv3"), "out", (1.0, 2.0),
                           BistableParams(), constants)
        with pytest.raises(SweepError, match="does not match"):
            compare_to_reference(result, load_reference_table("table2"), "inv3_P")


class TestEmitCsv:
    def test_temperature_header_and_rows(self, constants):
        result = sweep_temperature(builtin_layout("inv2"), (1.0, 5.0), FAST,
                                   constants)
        buffer = io.StringIO()
        emit_csv(result, buffer)
        lines = buffer.getvalue().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        data = [l for l in lines if not l.startswith("#")]
        assert comments == sorted(comments)
        assert data[0] == "temperature_K,cell_id,polarization"
        assert len(data) == 3
        assert data[1].startswith("1.00000e+00,out,")

    def test_gap_header(self, constants):
        result = sweep_gap(builtin_layout("inv3"), "out", (1.0,),
                           BistableParams(), constants)
        buffer = io.StringIO()
        emit_csv(result, buffer)
        data = [l for l in buffer.getvalue().splitlines()
                if not l.startswith("#")]
        assert data[0] == "gap_nm,cell_id,polarization,kink_energy_J"
        fields = data[1].split(",")
        assert fields[0] == "1.00000e+00"
        assert fields[1] == "out"
        assert not math.isnan(float(fields[3]))

    def test_integer_grid_prints_as_floats(self, constants):
        result = sweep_gap(builtin_layout("inv3"), "out", (1, 2),
                           BistableParams(), constants)
        buffer = io.StringIO()
        emit_csv(result, buffer)
        data = [l for l in buffer.getvalue().splitlines()
                if not l.startswith("#")]
        assert [row.split(",")[0] for row in data[1:]] == ["1.00000e+00",
                                                           "2.00000e+00"]

    def test_byte_identical_across_runs(self, constants):
        def render():
            result = sweep_gap(builtin_layout("inv3"), "out", TABLE23_GAPS,
                               BistableParams(), constants)
            buffer = io.StringIO()
            emit_csv(result, buffer)
            return buffer.getvalue()

        first, second = render(), render()
        assert first == second
        assert first.endswith("\n")
        assert "\r" not in first


# Doubles whose text a sloppy grouping would mix up: signed zeros, the
# infinities, the smallest and largest subnormals, the smallest normal, and
# NaNs with another sign or payload (given by their bits).
SPECIAL_FLOATS = (0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
                  2.225073858507201e-308, 2.2250738585072014e-308, 1e-310)


def bits_to_float(bits):
    return np.array([bits], dtype=np.uint64).view(np.float64)[0].item()


# the boundary values of the six-digit rounding too: near-ties, exact ties
# and the ends of the range the C formatter certifies
float_values = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS),
                         st.sampled_from(NAN_BITS).map(bits_to_float),
                         st.sampled_from(SCI_EDGES.tolist()))
text_values = st.text(st.characters(blacklist_categories=("Cs",),
                                    blacklist_characters=",\n\r"), max_size=6)


class Shouted(str):
    """A str whose `str` differs from its value."""

    def __str__(self):
        return self.upper() + "!"


@st.composite
def csv_tables(draw):
    """(header, columns as `write_csv` takes them, the same data as rows):
    float64 array columns drawn from a small pool, so values repeat;
    str, int, bool and mixed int/str list columns; str columns mixed with
    bools, with str subclasses (np.str_, one with its own `__str__`) and
    as tuples."""
    n_rows = draw(st.integers(0, 40))
    kinds = draw(st.lists(st.sampled_from(("float", "str", "int", "bool", "mixed",
                                           "str-bool", "str-subclass", "str-tuple")),
                          min_size=1, max_size=5))
    columns, values = [], []
    for kind in kinds:
        if kind == "float":
            pool = draw(st.lists(float_values, min_size=1, max_size=4))
            column = draw(st.lists(st.sampled_from(pool), min_size=n_rows,
                                   max_size=n_rows))
            columns.append(np.array(column, dtype=np.float64))
        else:
            element = {"str": text_values, "str-tuple": text_values,
                       "int": st.integers(), "bool": st.booleans(),
                       "mixed": st.one_of(st.integers(-1, 2),
                                          st.just("indeterminate")),
                       "str-bool": st.one_of(text_values, st.booleans()),
                       "str-subclass": st.one_of(text_values,
                                                 text_values.map(np.str_),
                                                 text_values.map(Shouted))}[kind]
            column = draw(st.lists(element, min_size=n_rows, max_size=n_rows))
            if kind == "str-tuple":
                column = tuple(column)
            columns.append(column)
        values.append(column)
    header = [f"c{k}" for k in range(len(kinds))]
    return header, columns, list(zip(*values))


def render(writer, *args, **kwargs):
    buffer = io.StringIO()
    writer(buffer, *args, **kwargs)
    return buffer.getvalue()


SNAPSHOT = {"layout": "inv2", "gamma_J": 9.8e-22, "max_iterations": 10_000,
            "temperature_K": -0.0}


BLOCK = sweeps.BLOCK_ROWS

# the characters that `write_csv` refuses in a snapshot or trailer text
LINE_BREAKING = {*map(chr, range(0x20)), *map(chr, range(0x7f, 0xa0)),
                 "\u2028", "\u2029"}


class CountingSink:
    """A destination that keeps only the count of characters written."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)


class TestWriteCsv:
    @settings(max_examples=300, deadline=None)
    @given(csv_tables(), st.lists(text_values, max_size=2), st.integers(1, 8))
    @example((["x"], [np.array([0.0, -0.0, 0.0, -0.0, 5e-324, math.inf])],
              [(0.0,), (-0.0,), (0.0,), (-0.0,), (5e-324,), (math.inf,)]), [], 4)
    @example((["x", "y"], [np.zeros(0), []], []), ["summary: 0/0 rows pass"], 1)
    def test_matches_row_template_writer(self, table, trailer, block_rows):
        # small blocks put block boundaries at every row count drawn
        header, columns, rows = table
        if any(ch in LINE_BREAKING for text in trailer for ch in text):
            sink = CountingSink()
            with pytest.raises(ValueError, match="control character"):
                write_csv(sink, SNAPSHOT, header, columns, trailer)
            assert sink.size == 0
            return
        expected = render(write_csv_rows, SNAPSHOT, header, rows, trailer)
        with mock.patch.object(sweeps, "BLOCK_ROWS", block_rows):
            assert render(write_csv, SNAPSHOT, header, columns, trailer) == expected

    @pytest.mark.parametrize("n_rows", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_block_boundaries(self, n_rows):
        # values repeat within and across blocks
        rng = np.random.default_rng(n_rows)
        pool = np.concatenate([SCI_EDGES, rng.normal(size=50)])
        columns = [rng.choice(pool, n_rows), [f"c{k % 7}" for k in range(n_rows)],
                   rng.choice(pool, n_rows)]
        rows = [(a, b, c) for a, b, c in zip(columns[0].tolist(), columns[1],
                                              columns[2].tolist())]
        text = render(write_csv, SNAPSHOT, "xyz", columns, ["end"])
        assert text == render(write_csv_rows, SNAPSHOT, "xyz", rows, ["end"])
        with mock.patch.object(sweeps, "BLOCK_ROWS", n_rows + 1):  # one block
            assert render(write_csv, SNAPSHOT, "xyz", columns, ["end"]) == text

    def test_memory_of_a_long_trace_is_one_block(self):
        # a 100,000-row trace: the texts of all rows would take about 19 MB
        n_rows = 100_000
        rng = np.random.default_rng(5)
        trace = np.empty((n_rows, 3))
        trace[:, 0] = np.arange(n_rows) * 1e-16
        trace[:, 1:] = np.tanh(rng.normal(size=(n_rows, 2)))
        sink = CountingSink()
        tracemalloc.start()
        try:
            write_csv(sink, SNAPSHOT, ("time_s", "a_P", "b_P"), list(trace.T))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.size > 3_000_000
        assert peak < 6 * 2**20

    def test_str_columns_pass_through(self):
        ids = ["c1", "c2", "c1"]
        assert _texts(ids) is ids
        assert _texts(["a", True, 0]) == ["a", "True", "0"]
        assert _texts([Shouted("a"), "b"]) == ["A!", "b"]

    def test_each_bit_pattern_prints_as_itself(self):
        column = np.array([0.0, -0.0, bits_to_float(NAN_BITS[1]), 1.5, -0.0])
        text = render(write_csv, {}, ("x",), [column])
        assert text == "x\n0.00000e+00\n-0.00000e+00\nnan\n1.50000e+00\n-0.00000e+00\n"

    def test_strided_views_print_like_their_copies(self):
        # the coherence trace passes the columns of 2-D arrays
        table = np.arange(12.0).reshape(3, 4) / 7.0
        views = render(write_csv, {}, "abcd", list(table.T))
        copies = render(write_csv, {}, "abcd", [c.copy() for c in table.T])
        assert views == copies
        assert views.splitlines()[1] == "0.00000e+00,1.42857e-01,2.85714e-01,4.28571e-01"

    def test_zero_rows_print_the_header_only(self):
        text = render(write_csv, {"b": 1.0, "a": "x"}, ("p", "q"), [np.zeros(0), []])
        assert text == "# a=x\n# b=1.00000e+00\np,q\n"

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(ValueError):
            render(write_csv, {}, ("p", "q"), [np.zeros(2), ["a"]])

    def test_one_name_per_column(self):
        with pytest.raises(ValueError, match="2 column names for 1 columns"):
            render(write_csv, {}, ("p", "q"), [np.zeros(2)])

    def test_line_breaking_comment_text_rejected(self):
        """A snapshot value, a snapshot key or a trailer line that holds a
        control character or line separator raises before anything is
        written; the characters next to those ranges print."""
        for char in sorted(LINE_BREAKING):
            for snapshot, trailer in (({"layout": f"a{char}b"}, ()),
                                      ({f"k{char}": 1}, ()),
                                      ({}, (f"end{char}",))):
                sink = io.StringIO()
                with pytest.raises(ValueError, match="control character"):
                    write_csv(sink, snapshot, ("p",), [np.zeros(2)], trailer)
                assert sink.getvalue() == ""
        assert render(write_csv, {"layout": "\x20~\xa0\u2027\u202a"}, ("p",),
                      [[]], ["\xa0"]) == "# layout= ~\xa0\u2027\u202a\np\n# \xa0\n"
