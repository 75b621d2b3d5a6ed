import io
import math
import re
from dataclasses import fields

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qcasim import cli, kernels
from qcasim.cli import run_cli
from qcasim.engines import (EXPECTED_FUNCTIONS, MAX_STEPS, BistableParams,
                            CoherenceParams)
from qcasim.geometry import (MAX_WIRE_CELLS, Cell, builtin_layout,
                             serialize_layout)
from qcasim.sweeps import sci

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

    def test_tiny_gamma_saturates(self):
        # E / (2 gamma) ~ 1e279: its square overflows, the answer is +-1
        code, out, err = run(["simulate", "--layout", "builtin:inv3",
                              "--gamma", "1e-300"])
        assert code == 0 and err == ""
        data = [l for l in out.splitlines() if not l.startswith("#")]
        assert data[1:] == ["in,1.00000e+00", "mid,1.00000e+00",
                            "out,-1.00000e+00"]

    def test_negative_exponent_value_after_a_space(self):
        argv = ["simulate", "--layout", "builtin:inv3", "--engine", "coherence",
                "--total-time", "1e-14"]
        spaced = run(argv + ["--clock-shift", "-1e-22"])
        joined = run(argv + ["--clock-shift=-1e-22"])
        assert spaced[0] == 0
        assert spaced == joined
        assert "# clock_shift_J=-1.00000e-22" in spaced[1].splitlines()


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

    @pytest.mark.parametrize("layout, function, message", [
        ("inv2", "and", "reads 2 drivers, layout 'inv2' has 1: in"),
        ("inv2", "or", "reads 2 drivers, layout 'inv2' has 1: in"),
        ("inv3", "majority", "reads 3 drivers, layout 'inv3' has 1: in"),
        ("majority", "inverter", "reads 1 driver, layout 'majority' has 3: a, b, c"),
    ])
    @pytest.mark.parametrize("engine", ["bistable", "coherence"])
    def test_function_must_read_every_driver(self, layout, function, message,
                                             engine):
        code, out, err = run(["truth", "--layout", f"builtin:{layout}",
                              "--function", function, "--engine", engine, *FAST])
        assert (code, out) == (1, "")
        assert err == f"error: function {function!r} {message}\n"


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

    @pytest.mark.filterwarnings("error")
    def test_huge_cells_overlap_without_a_warning(self, tmp_path):
        """The overlap check's bin pitch overflows to inf: numpy would warn
        on stderr before the diagnostic."""
        path = tmp_path / "huge.qcl"
        path.write_text("qcl 1\n"
                        "cell id=a x=0 y=0 role=fixed pol=1 size=1e308 offset=1e307\n"
                        "cell id=b x=1e308 y=0 role=output size=1e308\n")
        assert run(["kink", "--layout", str(path)]) == (
            1, "", "error: cells 'a' and 'b' overlap\n")

    def test_layout_name_that_breaks_a_line(self, tmp_path):
        """A file named a<LF>b,c.qcl would print `# layout=a`, then a
        data-looking `b,c` line."""
        path = tmp_path / "a\nb,c.qcl"
        path.write_text(serialize_layout(builtin_layout("inv2")))
        assert run(["kink", "--layout", str(path)]) == (
            1, "", "error: comment text 'layout=a\\nb,c' holds a control "
            "character or line separator\n")

    @pytest.mark.parametrize("argv, kernel", [
        (["kink", "--layout", "builtin:inv3"], "near_pairs"),
        (["simulate", "--layout", "builtin:inv3"], "bistable_sweep"),
        (["sweep-temp", "--layout", "builtin:inv3", *FAST], "coherence_euler"),
    ])
    @pytest.mark.parametrize("text, message", [
        ("the pair search could not allocate its scratch",
         "the pair search could not allocate its scratch"),
        ("", "out of memory"),  # as the allocator raises it
    ])
    def test_memory_error_is_one_line(self, monkeypatch, argv, kernel, text, message):
        def exhausted(*args):
            raise MemoryError(text)
        monkeypatch.setattr(kernels, kernel, exhausted)
        assert run(argv) == (1, "", f"error: {message}\n")

    def test_wire_beyond_the_bound(self):
        n = MAX_WIRE_CELLS + 1
        assert run(["simulate", "--layout", f"builtin:wire({n})"]) == (
            1, "", f"error: wire needs at most {MAX_WIRE_CELLS} cells\n")

    def test_no_arguments_is_usage_error(self):
        assert run([])[0] == 2

    def test_unknown_subcommand(self):
        assert run(["frobnicate"])[0] == 2

    def test_missing_required_layout(self):
        assert run(["kink"])[0] == 2

    def test_usage_error_goes_to_the_given_stderr(self, capsys):
        code, out, err = run(["simulate", "--bogus"])
        assert code == 2 and out == ""
        assert err.startswith("usage: qcasim simulate")
        assert err.endswith("error: the following arguments are required: --layout\n")
        assert capsys.readouterr() == ("", "")

    def test_help_goes_to_the_given_stdout(self, capsys):
        code, out, err = run(["simulate", "--help"])
        assert code == 0 and err == ""
        assert out.startswith("usage: qcasim simulate")
        assert capsys.readouterr() == ("", "")


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

    @pytest.mark.parametrize("fields, message", [
        ("x=nan y=0", "center_x must be finite, got nan"),
        ("x=40 y=inf", "center_y must be finite, got inf"),
        ("x=40 y=0 size=inf", "size must be finite, got inf"),
    ])
    def test_layout_field_not_finite(self, tmp_path, fields, message):
        path = tmp_path / "bad.qcl"
        path.write_text("qcl 1\ncell id=in x=0 y=0 role=fixed pol=1\n"
                        f"cell id=out {fields} role=output\n")
        code, out, err = run(["simulate", "--layout", str(path)])
        assert (code, out) == (1, "")
        assert err == f"error: line 3: cell out: {message}\n"

    def test_overflowing_gamma_fails_the_coherence_run(self, tmp_path):
        # the kink energy (~3e179 J) is finite but |Gamma|^2 is not; the
        # coherence engine reported P = 0 for b on every row, with exit 0
        path = tmp_path / "tiny.qcl"
        path.write_text("qcl 1\n"
                        "cell id=a x=0 y=0 role=fixed pol=1 size=1e-200\n"
                        "cell id=b x=2e-200 y=0 role=output size=1e-200\n")
        code, out, err = run(["simulate", "--engine", "coherence", "--layout",
                              str(path), "--total-time", "1e-14"])
        assert (code, out) == (1, "")
        assert err.startswith("error: coherence integration failed at step 0 ")
        assert "|Gamma|^2 overflowed" in err and err.count("\n") == 1
        code, out, err = run(["simulate", "--layout", str(path)])
        assert code == 0 and out.endswith("\nb,1.00000e+00\n")

    @pytest.mark.parametrize("radius", ["nan", "inf"])
    def test_kink_radius_not_finite(self, radius):
        code, out, err = run(["kink", "--layout", "builtin:inv3", "--radius", radius])
        assert (code, out) == (1, "")
        assert err == "error: radius_of_effect must be finite and strictly positive\n"

    @pytest.mark.parametrize("argv", [
        ["simulate", "--engine", "coherence", "--total-time", "1e300"],
        ["truth", "--engine", "coherence", "--function", "inverter",
         "--total-time", "1e300"],
        ["sweep-temp", "--total-time", "1e300"],
        ["sweep-gap", "--engine", "coherence", "--total-time", "1e300"],
        ["simulate", "--engine", "coherence", "--time-step", "1e-300"],
        ["simulate", "--engine", "coherence", "--total-time", "1e-17"],
    ])
    def test_step_count_out_of_range(self, argv):
        code, out, err = run([*argv, "--layout", "builtin:inv2"])
        assert (code, out) == (1, "")
        assert err.startswith(
            f"error: total_time / time_step must round to 1..{MAX_STEPS} Euler steps, got ")
        assert err.count("\n") == 1


class TestUnusedFlagsValidated:
    """Every engine command validates both engines' parameters, so a bad
    value of a flag that the chosen engine ignores fails too."""

    @pytest.mark.parametrize("command", [
        ["simulate", "--layout", "builtin:inv3"],
        ["truth", "--layout", "builtin:inv3", "--function", "inverter"],
        ["sweep-gap", "--layout", "builtin:inv3", "--grid", "1,2"],
        ["kink", "--layout", "builtin:inv3"],
    ])
    @pytest.mark.parametrize("flag, message", [
        ("--temperature=nan", "temperature must be finite, got nan"),
        ("--time-step=-1", "all times must be strictly positive"),
        ("--relaxation-time=nan", "relaxation_time must be finite, got nan"),
        ("--temperature=-1", "temperature must be non-negative"),
    ])
    def test_bistable_rejects_bad_coherence_flags(self, command, flag, message):
        code, out, err = run([*command, flag])
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command", [
        ["simulate", "--engine", "coherence", "--layout", "builtin:inv2", *FAST],
        ["sweep-temp", "--layout", "builtin:inv2", "--grid", "1", *FAST],
    ])
    def test_coherence_rejects_a_bad_gamma(self, command):
        code, out, err = run([*command, "--gamma=nan"])
        assert (code, out) == (1, "")
        assert err == "error: gamma must be finite, got nan\n"

    @pytest.mark.parametrize("flags, message", [
        (["--temperature=nan", "--gamma=-1"], "gamma must be strictly positive"),
        (["--gamma=nan"], "gamma must be finite, got nan"),
        (["--total-time=1e-17"], "total_time / time_step must round to "
                                 f"1..{MAX_STEPS} Euler steps, got 0.1"),
    ])
    def test_kink_rejects_bad_engine_flags(self, flags, message):
        code, out, err = run(["kink", "--layout", "builtin:inv3", *flags])
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    def test_sweep_temp_rejects_the_bistable_engine(self):
        code, out, err = run(["sweep-temp", "--layout", "builtin:inv2", "--engine",
                              "bistable", "--grid", "1", "--total-time", "1e-14"])
        assert (code, out) == (1, "")
        assert err == "error: sweep-temp runs the coherence engine only\n"
        code, out, err = run(["sweep-temp", "--layout", "builtin:inv2", "--engine",
                              "coherence", "--grid", "1", "--total-time", "1e-14"])
        assert (code, err) == (0, "") and "# engine=coherence\n" in out

    @pytest.mark.parametrize("engine", ["bistable", "coherence"])
    @pytest.mark.parametrize("stride", ["0", "-3"])
    def test_stride_below_one(self, engine, stride):
        code, out, err = run(["simulate", "--layout", "builtin:inv3", "--engine",
                              engine, *FAST, "--stride", stride])
        assert (code, out) == (1, "")
        assert err == "error: record_stride must be at least 1\n"

    def test_default_bistable_run_unchanged(self):
        code, out, err = run(["simulate", "--layout", "builtin:inv3"])
        assert (code, err) == (0, "")
        assert out.splitlines()[-4:] == ["cell_id,polarization", "in,1.00000e+00",
                                         "mid,8.56650e-01", "out,-2.88890e-01"]


class TestRecordingCap:
    def test_stride_one_at_the_step_cap(self):
        # 1e8 steps x (3 cells + a time + 4 clocks) x 8 B = 6.4 GB of
        # recording: refused up front
        code, out, err = run(["simulate", "--engine", "coherence", "--layout",
                              "builtin:inv3", "--total-time", "1e-8",
                              "--stride", "1"])
        assert (code, out) == (1, "")
        assert err == ("error: recording 100000001 steps of 3 cells x 1 points, "
                       "times and clocks takes 6.400e+09 bytes, over the limit "
                       "of 2.684e+08; use a larger --stride\n")

    def test_times_and_clocks_count(self, monkeypatch):
        # 1001 rows of inv2: the polarizations take 1001 x 2 x 8 B, the
        # times and clocks another 1001 x 5 x 8 B
        argv = ["simulate", "--engine", "coherence", "--layout", "builtin:inv2",
                *FAST, "--stride", "7"]
        monkeypatch.setattr("qcasim.engines.MAX_RECORD_BYTES", 1001 * 2 * 8)
        code, out, err = run(argv)
        assert (code, out) == (1, "")
        assert "takes 5.606e+04 bytes, over the limit of 1.602e+04" in err
        monkeypatch.setattr("qcasim.engines.MAX_RECORD_BYTES", 1001 * 7 * 8)
        code, _, err = run(argv)
        assert (code, err) == (0, "")

    def test_sweeps_and_truth_record_only_the_ends(self, monkeypatch):
        # they read only the final state, so no grid or step count trips the cap
        monkeypatch.setattr("qcasim.engines.MAX_RECORD_BYTES", 1000)
        code, _, err = run(["simulate", "--engine", "coherence", "--layout",
                            "builtin:inv2", *FAST])
        assert code == 1 and "over the limit of 1.000e+03" in err
        for argv in (["sweep-temp", "--grid", "1,5,10"],
                     ["sweep-gap", "--engine", "coherence"],
                     ["truth", "--engine", "coherence", "--function", "inverter"]):
            code, _, err = run([*argv, "--layout", "builtin:inv2", *FAST])
            assert (code, err) == (0, ""), argv

    def test_larger_stride_fits(self):
        code, out, err = run(["simulate", "--engine", "coherence", "--layout",
                              "builtin:inv2", "--total-time", "1e-13",
                              "--stride", "1"])
        assert (code, err) == (0, "")
        assert len(out.splitlines()) > 1000


class TestFilesAndDeterminism:
    def test_out_flag_writes_file(self, tmp_path):
        target = tmp_path / "kink.csv"
        code, out, _ = run(["kink", "--layout", "builtin:inv2",
                            "--out", str(target)])
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("#")

    @pytest.mark.parametrize("argv", [
        ["simulate", "--layout", "nosuch.qcl"],
        # every point leaves the unit ball: an integration failure
        ["sweep-temp", "--layout", "builtin:inv3", "--total-time", "1e-11",
         "--relaxation-time", "1e-12", "--time-step", "5e-14"]])
    def test_failing_command_leaves_out_path_alone(self, tmp_path, argv):
        expected = run(argv)
        assert expected[0] == 1 and expected[2].count("\n") == 1
        kept = tmp_path / "res.csv"
        kept.write_bytes(b"time_s\n1.00000e+00\n")
        assert run([*argv, "--out", str(kept)]) == expected
        assert kept.read_bytes() == b"time_s\n1.00000e+00\n"
        fresh = tmp_path / "fresh.csv"
        assert run([*argv, "--out", str(fresh)]) == expected
        assert not fresh.exists()

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
                      defaults.radius_of_effect, BistableParams().gamma):
            assert sci(value) in text

    def test_flag_defaults_are_the_params_defaults(self):
        args = cli.build_parser().parse_args(["simulate", "--layout", "builtin:inv2"])
        for params in (BistableParams(), CoherenceParams()):
            flagged = [f.name for f in fields(params) if f.name in cli.PARAM_FLAGS]
            assert flagged
            for name in flagged:
                assert getattr(args, name) == getattr(params, name), name
        # --radius sets the radius of effect of both engines
        assert (cli.PARAM_FLAGS["radius_of_effect"][0] == "--radius"
                and args.radius_of_effect == BistableParams().radius_of_effect
                == CoherenceParams().radius_of_effect)

    def test_top_level_help_lists_subcommands(self, capsys):
        code = run_cli(["--help"])
        assert code == 0
        text = capsys.readouterr().out
        for name in ("kink", "simulate", "truth", "sweep-temp", "sweep-gap",
                     "layouts"):
            assert name in text


SNAPSHOT_LINE = re.compile(r"# ([A-Za-z_0-9]+)=(.+)")
SCI = re.compile(r"-?[0-9]\.[0-9]{5}e[+-][0-9]{2,3}")
INTEGER = re.compile(r"-?[0-9]+")


def assert_sci_if_float(field):
    """A field that reads as a float and is not an integer is in `sci` form."""
    try:
        float(field)
    except ValueError:
        return
    assert INTEGER.fullmatch(field) or SCI.fullmatch(field), field


OUTPUT_FORMAT_ARGV = [
    ["kink", "--layout", "builtin:inv3", "--radius", "25"],
    ["simulate", "--layout", "builtin:wire(3)"],
    ["simulate", "--layout", "builtin:inv2", "--engine", "coherence", *FAST,
     "--stride", "500"],
    ["truth", "--layout", "builtin:majority", "--function", "majority"],
    ["truth", "--layout", "builtin:inv2", "--function", "inverter",
     "--engine", "coherence", *FAST],
    ["sweep-temp", "--layout", "builtin:inv2", "--grid", "1,5", *FAST],
    ["sweep-gap", "--layout", "builtin:inv3", "--grid", "1.0,2.0"],
    ["sweep-gap", "--layout", "builtin:inv2", "--grid", "1.0,2.0",
     "--engine", "coherence", *FAST],
]


class TestOutputFormat:
    """Every command writes the one CSV format: sorted `# key=value` snapshot
    lines, the column row, data rows, optional trailing `#` lines; floats in
    scientific notation with six significant digits; LF line endings."""

    @pytest.mark.parametrize("argv", OUTPUT_FORMAT_ARGV)
    def test_one_format(self, argv):
        code, out, err = run(argv)
        assert (code, err) == (0, "")
        assert out.endswith("\n") and not out.endswith("\n\n")
        assert "\r" not in out
        lines = out.splitlines()
        n_head = next(k for k, line in enumerate(lines) if not line.startswith("#"))
        snapshot = [SNAPSHOT_LINE.fullmatch(line) for line in lines[:n_head]]
        assert all(snapshot), lines[:n_head]
        keys = [m.group(1) for m in snapshot]
        assert keys == sorted(set(keys))
        for m in snapshot:
            assert_sci_if_float(m.group(2))
        body = lines[n_head + 1:]
        data = [line for line in body if not line.startswith("#")]
        assert body[:len(data)] == data  # `#` lines after the data only
        assert data
        for line in data:
            for field in line.split(","):
                assert_sci_if_float(field)

    @pytest.mark.parametrize("argv, line", [
        (["simulate", "--engine", "coherence", "--layout", "builtin:inv2", *FAST,
          "--clock-high", "5e-22"], "# clock_high_J=5.00000e-22"),
        (["truth", "--layout", "builtin:inv2", "--function", "inverter",
          "--gamma", "5e-22"], "# gamma_J=5.00000e-22"),
    ])
    def test_snapshot_records_the_params(self, argv, line):
        code, out, _ = run(argv)
        assert code == 0
        assert line in out.splitlines()


class TestColumnsOnly:
    def test_no_command_builds_a_cell(self, monkeypatch, tmp_path):
        """The commands read the layout's columns, parsed or built in."""
        path = tmp_path / "wire.qcl"
        path.write_text(serialize_layout(builtin_layout("wire(6)")))
        built = []
        monkeypatch.setattr(Cell, "__post_init__", lambda cell: built.append(cell))
        for argv in [*OUTPUT_FORMAT_ARGV, ["kink", "--layout", str(path)],
                     ["simulate", "--layout", str(path)],
                     ["simulate", "--layout", str(path), "--engine", "coherence", *FAST],
                     ["sweep-gap", "--layout", str(path), "--grid", "1,2"]]:
            assert run(argv)[0] == 0, argv
        assert built == []


class TestSharedParser:
    """`run_cli` builds its parser once per process; a sequence of calls
    on it prints what each call prints with a parser of its own."""

    @pytest.fixture
    def builds(self, monkeypatch):
        count = []
        build = cli.build_parser

        def counting():
            count.append(1)
            return build()
        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        yield count
        cli._parser.cache_clear()

    def test_sequence_matches_single_runs(self, builds):
        coherence = ["simulate", "--engine", "coherence", "--layout", "builtin:inv2",
                     *FAST, "--stride", "500"]
        sequence = [[*coherence, "--temperature", "5"], coherence, ["--help"],
                    ["simulate", "--help"], ["simulate", "--bogus"],
                    *OUTPUT_FORMAT_ARGV]
        shared = [run(argv) for argv in sequence]
        assert len(builds) == 1
        assert "# temperature_K=5.00000e+00" in shared[0][1].splitlines()
        assert "# temperature_K=1.00000e+00" in shared[1][1].splitlines()
        assert shared[4][0] == 2
        for argv, result in zip(sequence, shared):
            cli._parser.cache_clear()
            assert run(argv) == result, argv
        assert len(builds) == 1 + len(sequence)


EXTREME = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0,
                           1.0, 1e300, -1e300, 1e-300, 5e-324, 2.2e-308])
NUMBER = st.one_of(EXTREME, st.floats())
# total_time is drawn freely or as a multiple of time_step; examples between
# 300 Euler steps and the cap are skipped, as they would only take long
STEPS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0,
                                   10.0 * MAX_STEPS, 1e300]),
                  st.floats(min_value=0.0, max_value=300.0))
PHYSICAL_FLAGS = ("--temperature", "--relaxation-time", "--clock-high",
                  "--clock-low", "--clock-shift", "--amplitude-factor",
                  "--radius", "--gamma")


@st.composite
def numeric_argv(draw):
    command = draw(st.sampled_from([
        ["kink"], ["simulate"], ["simulate", "--engine", "coherence"],
        ["sweep-temp"], ["sweep-temp", "--engine", "bistable"],
        *(["truth", "--function", function, "--engine", engine]
          for function in EXPECTED_FUNCTIONS for engine in ("bistable", "coherence"))]))
    layout = draw(st.sampled_from(["builtin:inv2", "builtin:inv3",
                                   "builtin:wire(3)", "builtin:majority"]))
    argv = [*command, "--layout", layout]
    if command[0] == "simulate":
        argv.append(f"--stride={draw(st.integers(-2, 10**12))}")
    if command[0] == "sweep-temp":
        grid = draw(st.one_of(st.just("table1"), st.lists(NUMBER, min_size=1, max_size=3)
                              .map(lambda ts: ",".join(repr(t) for t in ts))))
        argv.append(f"--grid={grid}")
    for flag in draw(st.lists(st.sampled_from(PHYSICAL_FLAGS), unique=True,
                              max_size=3)):
        argv.append(f"{flag}={draw(NUMBER)!r}")
    time_step = draw(st.one_of(NUMBER, st.just(1e-16)))
    total_time = draw(st.one_of(NUMBER, STEPS.map(lambda n: n * time_step)))
    steps = total_time / time_step if time_step else math.inf
    assume(not 300 < steps <= MAX_STEPS)
    argv += [f"--time-step={time_step!r}", f"--total-time={total_time!r}"]
    return argv


class TestNeverTracebacks:
    @settings(max_examples=200, deadline=None)
    @given(numeric_argv())
    @example(["sweep-temp", "--layout", "builtin:inv2", "--engine", "bistable",
              "--grid", "1", "--total-time", "1e-14"])
    @example(["truth", "--function", "and", "--engine", "bistable",
              "--layout", "builtin:inv2"])
    @example(["simulate", "--layout", "builtin:inv3", "--stride=0"])
    def test_exit_code_and_one_line_diagnostic(self, argv):
        code, _, err = run(argv)
        assert code in (0, 1, 2), argv
        assert err.count("\n") <= 1, (argv, err)
        assert "Traceback" not in err
