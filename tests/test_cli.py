import io
import math

import pytest

from qcasim.cli import run_cli
from qcasim.engines import BistableParams, CoherenceParams
from qcasim.geometry import builtin_layout, serialize_layout

FAST = ["--total-time", "7e-13"]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class TestKinkCommand:
    def test_inv3_pairs(self):
        code, out, err = run(["kink", "--layout", "builtin:inv3"])
        assert code == 0 and err == ""
        data = [l for l in out.splitlines() if not l.startswith("#")]
        assert data[0] == "cell_i,cell_j,kink_energy_J"
        assert len(data) == 4  # header + 3 pairs within 80 nm
        assert data[1].startswith("in,mid,")

    def test_radius_cutoff(self):
        code, out, _ = run(["kink", "--layout", "builtin:wire(3)",
                            "--radius", "25"])
        assert code == 0
        data = [l for l in out.splitlines() if not l.startswith("#")]
        assert len(data) == 3  # header + 2 adjacent pairs

    def test_constants_mode_echoed(self):
        code, out, _ = run(["kink", "--layout", "builtin:inv2",
                            "--constants", "codata"])
        assert code == 0
        assert "# constants=codata" in out.splitlines()


class TestSimulateCommand:
    def test_bistable_lists_every_cell(self):
        code, out, err = run(["simulate", "--layout", "builtin:majority"])
        # majority has input-role cells without drives: bistable needs them
        assert code == 1
        assert err.startswith("error: ")

    def test_bistable_wire(self):
        code, out, _ = run(["simulate", "--layout", "builtin:wire(4)"])
        assert code == 0
        data = [l for l in out.splitlines() if not l.startswith("#")]
        assert data[0] == "cell_id,polarization"
        assert len(data) == 5

    def test_coherence_trace_header(self):
        code, out, _ = run(["simulate", "--layout", "builtin:inv2",
                            "--engine", "coherence", *FAST, "--stride", "500"])
        assert code == 0
        data = [l for l in out.splitlines() if not l.startswith("#")]
        assert data[0] == ("time_s,clock0_J,clock1_J,clock2_J,clock3_J,"
                           "in_P,out_P")
        assert len(data) == 1 + 7000 // 500 + 1
        assert data[1].split(",")[0] == "0.00000e+00"


class TestTruthCommand:
    def test_inverter_passes(self):
        code, out, _ = run(["truth", "--layout", "builtin:inv2",
                            "--function", "inverter"])
        assert code == 0
        assert "# summary: 2/2 rows pass" in out

    def test_majority_passes(self):
        code, out, _ = run(["truth", "--layout", "builtin:majority",
                            "--function", "majority"])
        assert code == 0
        assert "# summary: 8/8 rows pass" in out
        data = [l for l in out.splitlines()
                if not l.startswith("#")]
        assert data[0] == "inputs,expected,observed,magnitude,result"
        assert all(l.endswith(",pass") for l in data[1:])

    def test_wrong_function_reports_failures(self):
        code, out, _ = run(["truth", "--layout", "builtin:inv2",
                            "--function", "buffer"])
        assert code == 0  # the report itself is the output, not an error
        assert "# summary: 0/2 rows pass" in out

    def test_unknown_function_is_usage_error(self):
        code, _, _ = run(["truth", "--layout", "builtin:inv2",
                          "--function", "xor"])
        assert code == 2


class TestSweepCommands:
    def test_sweep_temp_custom_grid(self):
        code, out, _ = run(["sweep-temp", "--layout", "builtin:inv2",
                            "--grid", "1,5,10", *FAST])
        assert code == 0
        data = [l for l in out.splitlines() if not l.startswith("#")]
        assert data[0] == "temperature_K,cell_id,polarization"
        assert len(data) == 4

    def test_sweep_gap_default_grid(self):
        code, out, _ = run(["sweep-gap", "--layout", "builtin:inv3"])
        assert code == 0
        data = [l for l in out.splitlines() if not l.startswith("#")]
        assert data[0] == "gap_nm,cell_id,polarization,kink_energy_J"
        assert len(data) == 7
        assert "# displaced_cell=out" in out.splitlines()

    def test_sweep_gap_explicit_cell(self):
        code, out, _ = run(["sweep-gap", "--layout", "builtin:inv3",
                            "--cell", "mid", "--grid", "1.0,2.0"])
        assert code == 0
        assert "# displaced_cell=mid" in out.splitlines()

    def test_bad_grid(self):
        code, _, err = run(["sweep-temp", "--layout", "builtin:inv2",
                            "--grid", "fast"])
        assert code == 1
        assert "bad grid" in err


class TestLayoutsCommand:
    def test_lists_builtins(self):
        code, out, _ = run(["layouts"])
        assert code == 0
        names = out.splitlines()
        assert "inv2" in names and "inv3" in names and "majority" in names


class TestExitCodes:
    def test_missing_file(self):
        code, out, err = run(["kink", "--layout", "/nonexistent/x.qcl"])
        assert code == 1
        assert err == "error: layout file not found: /nonexistent/x.qcl\n"
        assert out == ""

    def test_unknown_builtin(self):
        code, _, err = run(["kink", "--layout", "builtin:nand"])
        assert code == 1
        assert "unknown builtin" in err

    def test_no_arguments_is_usage_error(self):
        assert run([])[0] == 2

    def test_unknown_subcommand(self):
        assert run(["frobnicate"])[0] == 2

    def test_missing_required_layout(self):
        assert run(["kink"])[0] == 2


class TestNonFiniteInputs:
    """Each fails with the one-line exit-1 diagnostic, never a traceback or a
    NaN row."""

    def test_total_time_inf(self):
        code, out, err = run(["simulate", "--engine", "coherence", "--layout",
                              "builtin:inv2", "--total-time", "inf"])
        assert (code, out) == (1, "")
        assert err == "error: total_time must be finite, got inf\n"

    def test_temperature_nan(self):
        code, out, err = run(["simulate", "--engine", "coherence", "--layout",
                              "builtin:inv2", "--temperature", "nan", *FAST])
        assert (code, out) == (1, "")
        assert err == "error: temperature must be finite, got nan\n"

    def test_grid_nan(self):
        code, out, err = run(["sweep-temp", "--layout", "builtin:inv2",
                              "--grid", "nan", *FAST])
        assert (code, out) == (1, "")
        assert err == "error: temperatures must be finite\n"

    def test_zero_clock_and_zero_field_rows_are_finite(self):
        code, out, err = run(["simulate", "--engine", "coherence", "--layout",
                              "builtin:wire(2)", "--radius", "1",
                              "--clock-high", "0", "--clock-low", "0",
                              "--total-time", "1e-14"])
        assert code == 0 and err == ""
        rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
        assert rows
        values = [float(v) for row in rows for v in row.split(",")]
        assert all(math.isfinite(v) for v in values)
        assert rows[-1].endswith(",1.00000e+00,0.00000e+00")


class TestFilesAndDeterminism:
    def test_out_flag_writes_file(self, tmp_path):
        target = tmp_path / "kink.csv"
        code, out, _ = run(["kink", "--layout", "builtin:inv2",
                            "--out", str(target)])
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("#")

    def test_layout_file_roundtrip(self, tmp_path):
        path = tmp_path / "inv3.qcl"
        path.write_text(serialize_layout(builtin_layout("inv3")))
        from_file = run(["kink", "--layout", str(path)])
        builtin = run(["kink", "--layout", "builtin:inv3"])
        assert from_file[0] == builtin[0] == 0
        # identical except for the layout name comment
        strip = lambda text: [l for l in text.splitlines()
                              if not l.startswith("# layout=")]
        assert strip(from_file[1]) == strip(builtin[1])

    @pytest.mark.parametrize("argv", [
        ["kink", "--layout", "builtin:inv3"],
        ["simulate", "--layout", "builtin:wire(3)"],
        ["simulate", "--layout", "builtin:inv2", "--engine", "coherence", *FAST],
        ["truth", "--layout", "builtin:majority", "--function", "majority"],
        ["sweep-temp", "--layout", "builtin:inv2", "--grid", "1,5", *FAST],
        ["sweep-gap", "--layout", "builtin:inv3", "--grid", "1.0,2.0"],
        ["layouts"],
    ])
    def test_byte_identical_repeat_runs(self, argv):
        first, second = run(argv), run(argv)
        assert first[0] == second[0] == 0
        assert first[1] == second[1]


class TestHelpText:
    def test_simulate_help_lists_defaults(self, capsys):
        code = run_cli(["simulate", "--help"])
        assert code == 0
        text = capsys.readouterr().out
        defaults = CoherenceParams()
        for value in (defaults.temperature, defaults.relaxation_time,
                      defaults.time_step, defaults.total_time,
                      defaults.clock_high, defaults.clock_low,
                      defaults.radius_of_effect, defaults.layer_separation,
                      BistableParams().gamma):
            assert f"{value:.6e}" in text

    def test_top_level_help_lists_subcommands(self, capsys):
        code = run_cli(["--help"])
        assert code == 0
        text = capsys.readouterr().out
        for name in ("kink", "simulate", "truth", "sweep-temp", "sweep-gap",
                     "layouts"):
            assert name in text
