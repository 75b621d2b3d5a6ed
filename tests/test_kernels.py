import itertools
from dataclasses import replace

import numpy as np
import pytest

from qcasim import kernels
from qcasim.constants import PhysicalConstants
from qcasim.electrostatics import kink_matrix
from qcasim.engines import CoherenceParams, dense_kink, resolve_drives
from qcasim.geometry import Layout, builtin_layout
from qcasim.sweeps import TABLE1_TEMPERATURES

PAPER = PhysicalConstants.paper()
LOOP = kernels.coherence_euler_loop


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
    dense = dense_kink(kink_matrix(layout, params.radius_of_effect, PAPER), ids)
    drives = [resolve_drives(layout, row) for row in drive_rows]
    n_rec = n_steps // stride + 1

    def args():
        return (np.stack([dense * s for s in kink_scales]),
                np.array([c.clock_zone for c in layout.cells], dtype=np.int64),
                np.array([cid in drives[0] for cid in ids]),
                np.array([[d.get(cid, 0.0) for cid in ids] for d in drives]),
                n_steps, dt, n_steps * dt,
                float(params.clock_periods), params.clock_shift,
                params.clock_amplitude, params.clock_low, params.clock_high,
                params.relaxation_time, np.array(temperatures, dtype=float),
                PAPER.boltzmann_k, PAPER.hbar, stride,
                np.zeros(n_rec), np.zeros((n_rec, 4)),
                np.zeros((batch, n_rec, len(ids))))
    return args


def run(kernel, args):
    """(final, ok, bad_step, rec_times, rec_clocks, rec_pols) of one call."""
    call = args()
    final, ok, bad_step = kernel(*call)
    return (final, ok, bad_step) + call[-3:]


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()  # signed zeros and NaNs included


def assert_batches_identical(args):
    """Flags, bad steps, recorded times and clocks of the whole batch, and
    finals and recorded polarizations of the points that stayed inside the
    unit ball (a failed point's state after its bad step is unspecified)."""
    batched = run(kernels.coherence_euler_numpy, args)
    loop = run(LOOP, args)
    ok = loop[1]
    assert_same_bits(batched[1], ok)
    for k in (2, 3, 4):
        assert_same_bits(batched[k], loop[k])
    for k in (0, 5):
        assert_same_bits(batched[k][ok], loop[k][ok])
    return batched


class TestKernelParity:
    def test_entry_point_matches_loop_kernel(self):
        """The entry point at B=1 against the loop kernel."""
        args = batch_problem(builtin_layout("inv3"), [1.0])
        entry = run(kernels.coherence_euler, args)
        loop = run(LOOP, args)
        assert entry[1].all() and loop[1].all()
        for x, y in zip(entry, loop):
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
        for kernel in (kernels.coherence_euler, LOOP):
            _, ok, bad, *_ = run(kernel, args)
            assert not ok[0]
            assert bad[0] >= 0


class TestBatchedParity:
    """The vectorised batched kernel against the uncompiled loop kernel run
    once per point: finals, flags, bad steps and recordings, bit for bit."""

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
        wire = builtin_layout("wire(6)")
        cells = tuple(replace(c, clock_zone=k % 4) for k, c in enumerate(wire.cells))
        assert_batches_identical(batch_problem(
            Layout(name="zones", cells=cells), [0.0, 2.0, 7.0]))

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
        # no neighbor in range and a zero clock: |Gamma| = 0 everywhere
        params = CoherenceParams(radius_of_effect=1.0, clock_high=0.0,
                                 clock_low=0.0)
        batched = assert_batches_identical(batch_problem(
            builtin_layout("wire(2)"), [0.0, 1.0], n_steps=100, params=params))
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


class TestKernelChoice:
    def test_uncompiled_kernel_choice(self):
        # table-1 grid on inv3, one 14-cell wire: numpy; one inv2 run: loop
        assert kernels.uncompiled_kernel(15, 3, 2) is kernels.coherence_euler_numpy
        assert kernels.uncompiled_kernel(1, 14, 13) is kernels.coherence_euler_numpy
        assert kernels.uncompiled_kernel(1, 2, 1) is kernels.coherence_euler_loop
