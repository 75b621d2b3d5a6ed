import io
import itertools
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace

import numpy as np
import pytest

from qcasim import kernels
from qcasim.constants import PhysicalConstants
from qcasim.electrostatics import kink_matrix
from qcasim.engines import CoherenceParams, coupling, resolve_drives
from qcasim.geometry import Layout, builtin_layout
from qcasim.sweeps import TABLE1_TEMPERATURES

PAPER = PhysicalConstants.paper()
LOOP = kernels.coherence_euler_loop
HAS_CC = shutil.which((shlex.split(os.environ.get("CC") or "cc") or ["cc"])[0]) is not None
needs_cc = pytest.mark.skipif(not HAS_CC, reason="no C compiler")


def batch_problem(layout, temperatures, drive_rows=None, n_steps=2000,
                  stride=100, kink_scales=None, params=None, time_step=None):
    """Batched kernel arguments for one layout: one point per temperature
    (and drive row); recording arrays are fresh for every call."""
    params = params or CoherenceParams()
    dt = time_step or params.time_step
    batch = len(temperatures)
    drive_rows = drive_rows or [None] * batch
    kink_scales = kink_scales or [1.0] * batch
    ids = [c.id for c in layout.cells]
    energies, offsets, cols = coupling(
        [kink_matrix(layout, params.radius_of_effect, PAPER)], ids)
    drives = [resolve_drives(layout, row) for row in drive_rows]
    n_rec = n_steps // stride + 1

    def args():
        return (np.concatenate([energies * s for s in kink_scales]),
                np.array([c.clock_zone for c in layout.cells], dtype=np.int64),
                np.array([cid in drives[0] for cid in ids]),
                np.array([[d.get(cid, 0.0) for cid in ids] for d in drives]),
                n_steps, dt, n_steps * dt,
                float(params.clock_periods), params.clock_shift,
                params.clock_amplitude, params.clock_low, params.clock_high,
                params.relaxation_time, np.array(temperatures, dtype=float),
                PAPER.boltzmann_k, PAPER.hbar, stride,
                np.zeros(n_rec), np.zeros((n_rec, 4)),
                np.zeros((batch, n_rec, len(ids))), offsets.copy(), cols.copy())
    return args


def run(kernel, args):
    """(final, ok, bad_step, rec_times, rec_clocks, rec_pols) of one call."""
    call = args()
    final, ok, bad_step = kernel(*call)
    return (final, ok, bad_step) + call[17:20]


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()  # signed zeros and NaNs included


def compiled():
    """The C kernel where the compiled library loads, else nothing."""
    return [kernels.coherence_euler_c] if kernels.kernel_path() == "c" else []


def assert_batches_identical(args):
    """The C kernel, where it loads, against the loop kernel: finals,
    flags, bad steps and all three recordings, bit for bit, failed points
    included. Returns the loop kernel's results."""
    loop = run(LOOP, args)
    for kernel in compiled():
        for x, y in zip(run(kernel, args), loop):
            assert_same_bits(x, y)
    return loop


def zoned_wire():
    wire = builtin_layout("wire(6)")
    cells = tuple(replace(c, clock_zone=k % 4) for k, c in enumerate(wire.cells))
    return Layout(name="zones", cells=cells)


# no neighbor in range and a zero clock: |Gamma| = 0 everywhere
ZERO_FIELD = CoherenceParams(radius_of_effect=1.0, clock_high=0.0, clock_low=0.0)


class TestKernelParity:
    def test_entry_point_matches_loop_kernel(self):
        """The entry point and the C kernel at B=1 against the loop
        kernel."""
        args = batch_problem(builtin_layout("inv3"), [1.0])
        loop = run(LOOP, args)
        assert loop[1].all()
        for kernel in (kernels.coherence_euler, *compiled()):
            for x, y in zip(run(kernel, args), loop):
                assert_same_bits(np.asarray(x), np.asarray(y))

    def test_clock_value_matches_engine_wrapper(self):
        from qcasim.engines import clock_gamma
        params = CoherenceParams()
        for zone in range(4):
            for t in np.linspace(0.0, params.total_time, 37):
                direct = kernels.clock_value(
                    float(t), zone, 1.0, params.total_time, params.clock_shift,
                    params.clock_amplitude, params.clock_low, params.clock_high)
                assert direct == clock_gamma(zone, float(t), params)

    def test_instability_reported_not_raised(self):
        # a time step far beyond the relaxation time blows up the Euler update
        args = batch_problem(builtin_layout("inv3"), [1.0], n_steps=200,
                             time_step=1.0e-13)
        for kernel in (kernels.coherence_euler, LOOP, *compiled()):
            _, ok, bad, *_ = run(kernel, args)
            assert not ok[0]
            assert bad[0] >= 0
        assert_batches_identical(args)


class TestBatchedParity:
    """The C kernel against the loop kernel: finals, flags, bad steps and
    recordings, bit for bit."""

    @pytest.mark.parametrize("name", ["inv2", "inv3"])
    def test_table1_grid(self, name):
        assert TABLE1_TEMPERATURES[0] == 0.0
        finals = assert_batches_identical(
            batch_problem(builtin_layout(name), TABLE1_TEMPERATURES))[0]
        # the points really differ: |P_out| falls with temperature
        assert abs(finals[1, -1]) > abs(finals[-1, -1]) > 0.0

    def test_wire14_single_point_stride10(self):
        assert_batches_identical(batch_problem(
            builtin_layout("wire(14)"), [1.0], n_steps=1200, stride=10))

    def test_majority_drive_rows(self):
        rows = [dict(zip("abc", bits))
                for bits in itertools.product((-1.0, 1.0), repeat=3)]
        assert_batches_identical(batch_problem(
            builtin_layout("majority"), [1.0] * 8, drive_rows=rows))

    def test_mixed_clock_zones(self):
        assert_batches_identical(batch_problem(zoned_wire(), [0.0, 2.0, 7.0]))

    def test_only_some_elements_leave_the_unit_ball(self):
        # a strong field turns the coherence vector by more than the Euler
        # step can follow: the scaled points fail, at their own steps
        scales = [1.0, 3e3, 1.0, 3e4, 1.0]
        batched = assert_batches_identical(batch_problem(
            builtin_layout("inv3"), [0.0, 1.0, 2.0, 3.0, 4.0], n_steps=400,
            kink_scales=scales))
        ok, bad_step = batched[1], batched[2]
        assert ok.tolist() == [True, False, True, False, True]
        assert 0 < bad_step[3] < bad_step[1]
        assert bad_step[[0, 2, 4]].tolist() == [-1, -1, -1]

    def test_every_element_fails(self):
        batched = assert_batches_identical(batch_problem(
            builtin_layout("inv3"), [0.0, 1.0], n_steps=400,
            kink_scales=[3e3, 3e4]))
        assert not batched[1].any()

    def test_zero_field_has_zero_steady_state(self):
        batched = assert_batches_identical(batch_problem(
            builtin_layout("wire(2)"), [0.0, 1.0], n_steps=100,
            params=ZERO_FIELD))
        final, ok = batched[0], batched[1]
        assert ok.all()
        assert np.isfinite(batched[-1]).all()
        assert final[:, 1].tolist() == [0.0, 0.0]

    def test_nan_fails_the_unit_ball_guard(self):
        batched = assert_batches_identical(batch_problem(
            builtin_layout("inv2"), [1.0, 1.0], n_steps=50,
            kink_scales=[1.0, float("nan")]))
        assert batched[1].tolist() == [True, False]
        assert batched[2][1] == 0


class TestSinglePointParity:
    """B=1, the size of one simulate run: the C kernel against the loop
    kernel on the degenerate cases."""

    @pytest.mark.parametrize("problem", [
        lambda: batch_problem(builtin_layout("inv3"), [1.0], n_steps=400,
                              kink_scales=[3e4]),
        lambda: batch_problem(builtin_layout("inv2"), [1.0], n_steps=50,
                              kink_scales=[float("nan")]),
        lambda: batch_problem(builtin_layout("wire(2)"), [0.0], n_steps=100,
                              params=ZERO_FIELD),
        lambda: batch_problem(zoned_wire(), [2.0]),
        lambda: batch_problem(builtin_layout("wire(14)"), [0.0], n_steps=300,
                              stride=7),
        # 2 kB T underflows to 0.0: th = 1.0, as at T = 0
        lambda: batch_problem(builtin_layout("inv3"), [5e-324], n_steps=100),
    ], ids=["fails", "nan", "zero-field", "mixed-zones", "wire14-cold",
            "underflowing-T"])
    def test_single_point(self, problem):
        assert_batches_identical(problem())


@pytest.fixture
def own_cache(monkeypatch, tmp_path):
    """A library lookup with its own cache and temporary directories."""
    (tmp_path / "tmp").mkdir()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    kernels._library.cache_clear()
    yield tmp_path
    kernels._library.cache_clear()


def libraries(directory):
    return sorted(p.name for p in directory.glob("euler-*.so"))


class TestKernelChoice:
    @needs_cc
    def test_compiled_path_in_use_when_a_compiler_is_present(self):
        # a silent fallback to the loop kernel fails here
        assert kernels.kernel_path() == "c"

    def test_no_compiler_keeps_the_uncompiled_choice(self, own_cache, monkeypatch):
        monkeypatch.setenv("CC", str(own_cache / "nonexistent"))
        assert kernels._library() is None
        assert kernels.kernel_path() == "loop"
        args = batch_problem(builtin_layout("inv3"), [0.0, 1.0], n_steps=50)
        for x, y in zip(run(kernels.coherence_euler, args), run(LOOP, args)):
            assert_same_bits(x, y)
        assert not (own_cache / "cache").exists()

    @needs_cc
    def test_library_built_once_in_the_user_cache(self, own_cache):
        cache = own_cache / "cache" / "qcasim"
        assert kernels._library() is not None
        (name,) = libraries(cache)
        assert os.stat(cache).st_mode & 0o777 == 0o700
        assert os.listdir(cache) == [name]  # no partial build left behind
        built = os.stat(cache / name).st_mtime_ns
        kernels._library.cache_clear()
        assert kernels._library() is not None
        assert os.stat(cache / name).st_mtime_ns == built

    @needs_cc
    def test_cache_writable_by_others_is_not_used(self, own_cache):
        cache = own_cache / "cache" / "qcasim"
        cache.mkdir(parents=True)
        os.chmod(cache, 0o777)
        shared = own_cache / "tmp" / f"qcasim-{os.getuid()}"
        assert kernels._library() is not None
        assert libraries(cache) == [] and len(libraries(shared)) == 1
        # neither directory usable: a fresh temporary one, removed after loading
        os.chmod(shared, 0o777)
        for path in shared.iterdir():
            path.unlink()
        kernels._library.cache_clear()
        assert kernels._library() is not None
        assert libraries(cache) == libraries(shared) == []
        assert os.listdir(own_cache / "tmp") == [shared.name]

    @needs_cc
    def test_arrays_checked_before_pointers_pass(self):
        assert kernels.kernel_path() == "c"
        # inv2: two cells, each the other's only neighbor
        good = batch_problem(builtin_layout("inv2"), [1.0], n_steps=10, stride=1)
        assert good()[20].tolist() == [0, 1, 2] and good()[21].tolist() == [1, 0]
        kernels.coherence_euler_c(*good())
        bad = [
            (17, lambda a: a[::2], "rec_times"),              # too short
            (18, lambda a: a.astype(np.float32), "rec_clocks"),
            (19, lambda a: np.repeat(a, 2, axis=2)[:, :, ::2], "rec_pols"),
            (0, lambda a: a[:, :1], "energies"),              # shape
            (0, lambda a: a.astype(np.float32), "energies"),
            (0, lambda a: np.repeat(a, 2, axis=1)[:, ::2], "energies"),
            (1, lambda a: a.astype(np.int32), "zones"),
            (1, lambda a: a + 4, "clock zones"),              # out of 0..3
            (20, lambda a: a[:-1], "offsets"),                # shape
            (20, lambda a: a.astype(np.int32), "offsets"),
            (20, lambda a: np.repeat(a, 2)[::2], "offsets"),  # not C-contiguous
            (20, lambda a: a + 1, "offsets must start at 0"),
            (20, lambda a: np.array([0, 2, 1]), "never decrease"),
            (20, lambda a: a + [0, 0, 1], "cols"),            # ends past nnz
            (20, lambda a: a - [0, 0, 1], "cols"),            # ends before nnz
            (21, lambda a: a + 1, "cols must be cell positions"),  # 2 >= n
            (21, lambda a: a - 1, "cols must be cell positions"),  # -1 < 0
            (21, lambda a: a.astype(np.float64), "cols"),
            (21, lambda a: np.repeat(a, 2)[::2], "cols"),
        ]
        for index, spoil, message in bad:
            args = list(good())
            args[index] = spoil(args[index])
            with pytest.raises(ValueError, match=message):
                kernels.coherence_euler_c(*args)

    def test_no_compiler_process_gives_the_same_bytes(self):
        """A process whose CC does not exist runs the loop kernel and
        prints the bytes of this process on every criterion-7 argv."""
        from test_acceptance import CRITERION_7_ARGV
        from qcasim.cli import run_cli
        script = (
            "import io, json, sys\n"
            "from qcasim import kernels\n"
            "from qcasim.cli import run_cli\n"
            "outputs = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    out = io.StringIO()\n"
            "    assert run_cli(argv, stdout=out, stderr=io.StringIO()) == 0\n"
            "    outputs.append(out.getvalue())\n"
            "print(json.dumps({'path': kernels.kernel_path(), "
            "'outputs': outputs}))\n")
        env = dict(os.environ, CC="/nonexistent")
        proc = subprocess.run([sys.executable, "-c", script,
                               json.dumps(CRITERION_7_ARGV)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result["path"] == "loop"
        for argv, printed in zip(CRITERION_7_ARGV, result["outputs"], strict=True):
            out = io.StringIO()
            assert run_cli(argv, stdout=out, stderr=io.StringIO()) == 0
            assert printed == out.getvalue(), argv


class TestTracerContract:
    """perfbench/tracing.py reads the batch size B from the first argument
    of ``kernels.coherence_euler`` (``args[0].shape[0]``) and the step
    count from the fifth (``args[4]``)."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        entry = kernels.coherence_euler

        def spy(*args):
            seen.append(args)
            return entry(*args)
        monkeypatch.setattr(kernels, "coherence_euler", spy)
        return seen

    def test_sweep_and_single_run(self, calls):
        from qcasim.engines import simulate_coherence
        from qcasim.sweeps import sweep_temperature
        layout = builtin_layout("inv2")
        params = CoherenceParams(total_time=3.0e-14)
        sweep_temperature(layout, [1.0, 2.0, 5.0], params, PAPER)
        simulate_coherence(layout, kink_matrix(layout, 80.0, PAPER), params,
                           constants=PAPER, record_stride=7)
        assert [(args[0].shape[0], args[4]) for args in calls] == [(3, 300), (1, 300)]
