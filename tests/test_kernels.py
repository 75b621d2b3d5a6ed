import io
import itertools
import json
import math
import os
import random
import shlex
import shutil
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcasim import kernels
from qcasim.constants import PhysicalConstants
from qcasim.electrostatics import KinkMatrix, kink_matrix
from qcasim.engines import (BistableParams, CoherenceParams, IntegrationError,
                            coupling, resolve_drives, simulate_coherence_batch)
from qcasim.geometry import Layout, builtin_layout, serialize_layout
from qcasim.sweeps import TABLE1_TEMPERATURES, sci

from oracle import SCI_EDGES
from test_cli import run as cli

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
    """(final, ok, bad_step, rec_times, rec_clocks, rec_pols) of one call,
    ok being bad_step < 0."""
    call = args()
    final, bad_step = kernel(*call)
    return (final, bad_step < 0, bad_step) + call[17:20]


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()  # signed zeros and NaNs included


def compiled():
    """The C kernel where the compiled library loads, else nothing."""
    return [kernels.coherence_euler_c] if kernels.kernel_path() == "c" else []


def chunked(batch):
    """The C kernel split into each chunk count from 1 to B, by patching
    the usable cores to that count, where the compiled library loads,
    else nothing."""
    def split(k):
        def kernel(*args):
            with mock.patch.object(kernels, "_usable_cores", lambda: k):
                return kernels.coherence_euler_c(*args)
        return kernel
    return [split(k) for k in range(1, batch + 1)] if compiled() else []


def assert_batches_identical(args):
    """The C kernel, where it loads, at every chunk count from 1 to B,
    against the loop kernel: finals, flags, bad steps and all three
    recordings, bit for bit, failed points included. Returns the loop
    kernel's results."""
    loop = run(LOOP, args)
    for kernel in chunked(len(loop[0])):
        for x, y in zip(run(kernel, args), loop):
            assert_same_bits(x, y)
    return loop


def sweep_problem(layout, params=BistableParams(), inputs=None, kink_scale=1.0):
    """Bistable sweep arguments for one layout, as bistable_relax builds
    them; the polarizations are fresh for every call."""
    drives = resolve_drives(layout, inputs)
    ids = [c.id for c in layout.cells]
    order = sorted(ids)
    energies, offsets, cols = coupling(
        [kink_matrix(layout, params.radius_of_effect, PAPER)], order)
    free = np.array([order.index(cid) for cid in ids if cid not in drives],
                    dtype=np.int64)

    def args():
        return (energies[0] * kink_scale, offsets.copy(), cols.copy(),
                np.array([drives.get(cid, 0.0) for cid in order]), free.copy(),
                2.0 * params.gamma, params.convergence_tolerance,
                params.max_iterations)
    return args


def sweep(kernel, args):
    """(converged, sweeps, worst, pols) of one call."""
    call = args()
    return (*kernel(*call), call[3])


def assert_sweeps_identical(args):
    """The C sweep kernel, where it loads, against the loop kernel: flag,
    sweep count, worst position and polarizations, bit for bit. Returns
    the loop kernel's results."""
    loop = sweep(kernels.bistable_sweep_loop, args)
    if kernels.kernel_path() == "c":
        got = sweep(kernels.bistable_sweep_c, args)
        assert got[:3] == loop[:3]
        assert_same_bits(got[3], loop[3])
    return loop


def zoned_wire():
    wire = builtin_layout("wire(6)")
    cells = tuple(replace(c, clock_zone=k % 4) for k, c in enumerate(wire.cells))
    return Layout(name="zones", cells=cells)


# no neighbor in range and a zero clock: |Gamma| = 0 everywhere
ZERO_FIELD = CoherenceParams(radius_of_effect=1.0, clock_high=0.0, clock_low=0.0)


def clamped(clocks, params):
    """Per recorded row and zone: -1 at clock_low, 1 at clock_high, 0 in
    between."""
    return (np.where(clocks == params.clock_high, 1, 0)
            - np.where(clocks == params.clock_low, 1, 0))


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

    def test_recorded_clocks_are_clock_value(self):
        """Every kernel records, at each recorded time, what `clock_value`
        gives for each zone, over a whole clock period."""
        params = CoherenceParams()
        n_steps = 2000
        args = batch_problem(builtin_layout("inv3"), [1.0], n_steps=n_steps,
                             stride=50)
        for kernel in (LOOP, *compiled()):
            _, ok, _, times, clocks, _ = run(kernel, args)
            assert ok.all()
            expected = [[kernels.clock_value(
                t, zone, float(params.clock_periods), n_steps * params.time_step,
                params.clock_shift, params.clock_amplitude, params.clock_low,
                params.clock_high) for zone in range(4)] for t in times.tolist()]
            assert clocks.tolist() == expected

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
        args = batch_problem(builtin_layout("inv3"), [0.0, 1.0], n_steps=400,
                             stride=1, kink_scales=[3e3, 3e4])
        _, ok, bad_step, *_ = assert_batches_identical(args)
        assert not ok.any()
        # the times and clocks of the rows after both points have failed
        # are recorded all the same, by every kernel at every chunk count
        call = args()
        dt, total_time, stride = call[5], call[6], call[16]
        clock = call[7:12]  # periods, shift, amplitude, low, high
        after = range(int(bad_step.max()) + 1, 401)
        assert len(after) > 300
        for kernel in (LOOP, *chunked(2)):
            _, _, _, times, clocks, _ = run(kernel, args)
            for r in after:
                assert times[r] == (r * stride) * dt
                assert clocks[r].tolist() == [
                    kernels.clock_value(times[r], zone, clock[0], total_time,
                                        *clock[1:]) for zone in range(4)]

    def test_first_points_fail_first(self):
        # at 2 and 3 chunks, chunk 0 holds only points that fail within a
        # few steps, while point 1 runs on: chunk 0 stops recording first,
        # yet the times and clocks of every later row are recorded
        _, ok, bad_step, times, clocks, _ = assert_batches_identical(
            batch_problem(builtin_layout("inv3"), [0.0, 1.0, 2.0],
                          n_steps=400, stride=1, kink_scales=[3e4, 1.0, 3e3]))
        assert ok.tolist() == [False, True, False]
        assert bad_step.tolist() == [4, -1, 7]
        assert times.tolist() == [s * CoherenceParams().time_step
                                  for s in range(401)]
        assert (clocks[5:] != 0.0).any(axis=1).all()

    def test_zero_field_has_zero_steady_state(self):
        batched = assert_batches_identical(batch_problem(
            builtin_layout("wire(2)"), [0.0, 1.0], n_steps=100,
            params=ZERO_FIELD))
        final, ok = batched[0], batched[1]
        assert ok.all()
        assert np.isfinite(batched[-1]).all()
        assert final[:, 1].tolist() == [0.0, 0.0]

    def test_no_neighbor_list_entries(self):
        # nnz = 0 under a running clock: every field is 0, lambda_z stays 0
        args = batch_problem(builtin_layout("inv3"), [0.0, 1.0, 5.0],
                             n_steps=200, params=CoherenceParams(radius_of_effect=1.0))
        energies, offsets, cols = (args()[k] for k in (0, 20, 21))
        assert energies.shape == (3, 0) and cols.shape == (0,)
        assert offsets.tolist() == [0, 0, 0, 0]
        final, ok = assert_batches_identical(args)[:2]
        assert ok.all()
        assert final[:, 1:].tolist() == [[0.0, 0.0]] * 3

    def test_overflowing_gamma_fails_the_point(self):
        # |Gamma| ~ 1e213 is finite, but its square overflows: lambda_ss
        # would read 0 and leave the output cell silently decoupled
        batched = assert_batches_identical(batch_problem(
            builtin_layout("inv2"), [1.0, 1.0, 1.0], n_steps=50,
            kink_scales=[1.0, 1e200, 1.0]))
        final, ok, bad_step = batched[:3]
        assert ok.tolist() == [True, False, True]
        assert bad_step.tolist() == [-1, 0, -1]
        assert final[1].tolist() == [1.0, 0.0]  # stopped before the update
        assert final[0].tobytes() == final[2].tobytes()

    def test_nan_fails_the_unit_ball_guard(self):
        batched = assert_batches_identical(batch_problem(
            builtin_layout("inv2"), [1.0, 1.0], n_steps=50,
            kink_scales=[1.0, float("nan")]))
        assert batched[1].tolist() == [True, False]
        assert batched[2][1] == 0

    # The C kernel reuses a cell's steady state while its clock term and
    # local field repeat bit for bit; the loop kernel recomputes it at
    # every step. These batches hold the clock clamped for many steps, each
    # with a T = 0 point.
    def test_clock_held_low_and_high(self):
        # an amplitude factor above ~2.08 reaches clock_high
        params = CoherenceParams(clock_amplitude_factor=3.0)
        clocks = assert_batches_identical(batch_problem(
            builtin_layout("inv3"), [0.0, 1.0, 5.0], stride=10,
            params=params))[4]
        zone0 = clamped(clocks, params)[:, 0].tolist()
        assert zone0.count(1) > 10 and zone0.count(-1) > 10 and 0 in zone0

    def test_one_zone_held_while_another_changes(self):
        params = CoherenceParams(clock_amplitude_factor=3.0)
        clocks = assert_batches_identical(batch_problem(
            zoned_wire(), [0.0, 1.0, 7.0], stride=10, params=params))[4]
        zones = clamped(clocks, params)
        held = (zones != 0).any(axis=1) & (zones == 0).any(axis=1)
        assert held.sum() > 20

    def test_point_fails_after_many_reused_steps(self):
        # a scale of 125 grows |lambda| slowly: the point leaves the unit
        # ball at step 1300, deep in the ~1000 steps of the clock held at
        # clock_low, while the other points run on
        params = CoherenceParams()
        _, ok, bad_step, _, clocks, pols = assert_batches_identical(
            batch_problem(builtin_layout("inv3"), [1.0, 1.0, 0.0],
                          kink_scales=[1.0, 125.0, 1.0], params=params))
        assert ok.tolist() == [True, False, True]
        assert bad_step.tolist() == [-1, 1300, -1]
        assert clocks[6:13, 0].tolist() == [params.clock_low] * 7  # steps 600-1200
        assert np.isfinite(pols[[0, 2]]).all() and (pols[1, 14:] == 0.0).all()

    def test_signed_zero_clock(self):
        # shift -0.0 plus 0.0 * cos gives -0.0 or 0.0, which no clamp
        # changes: gx alternates between 0.0 and -0.0, equal under ==
        params = CoherenceParams(clock_low=0.0, clock_high=0.0, clock_shift=-0.0)
        clocks = assert_batches_identical(batch_problem(
            builtin_layout("inv3"), [0.0, 1.0], stride=10, params=params))[4]
        assert (clocks == 0.0).all()
        signs = np.signbit(clocks[:, 0])
        assert signs.any() and not signs.all()


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
        lambda: batch_problem(builtin_layout("inv3"), [1.0], n_steps=50,
                              kink_scales=[1e200]),
    ], ids=["fails", "nan", "zero-field", "mixed-zones", "wire14-cold",
            "underflowing-T", "overflowing-gamma"])
    def test_single_point(self, problem):
        assert_batches_identical(problem())


@needs_cc
class TestChunkCount:
    """The C kernel splits a batch into min(B, usable cores) chunks, one
    thread for each chunk after the first."""

    @pytest.fixture
    def threads(self, monkeypatch):
        """The threads constructed, one entry per thread."""
        made = []

        class Counted(threading.Thread):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)
        monkeypatch.setattr(threading, "Thread", Counted)
        return made

    def cores(self, monkeypatch, count):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(count)), raising=False)

    def test_one_core_starts_no_thread(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread was constructed")
        self.cores(monkeypatch, 1)
        monkeypatch.setattr(threading, "Thread", refuse)
        args = batch_problem(builtin_layout("inv3"), TABLE1_TEMPERATURES,
                             n_steps=200)
        for x, y in zip(run(kernels.coherence_euler, args), run(LOOP, args)):
            assert_same_bits(x, y)

    def test_chunks_capped_at_the_batch(self, monkeypatch, threads):
        self.cores(monkeypatch, 4)
        args = batch_problem(builtin_layout("inv3"), [0.0, 1.0], n_steps=200)
        for x, y in zip(run(kernels.coherence_euler, args), run(LOOP, args)):
            assert_same_bits(x, y)
        assert len(threads) == 1

    def test_cpu_count_without_sched_getaffinity(self, monkeypatch, threads):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        args = batch_problem(builtin_layout("inv3"), TABLE1_TEMPERATURES,
                             n_steps=200)
        for x, y in zip(run(kernels.coherence_euler, args), run(LOOP, args)):
            assert_same_bits(x, y)
        assert len(threads) == 2

    def test_recording_is_not_copied(self, monkeypatch):
        # the chunks fill the caller's recordings in place: what a call
        # allocates does not grow with the recorded rows
        monkeypatch.setattr(kernels, "_usable_cores", lambda: 2)
        args = batch_problem(builtin_layout("inv2"), [0.0, 1.0],
                             n_steps=20_000, stride=1)
        kernels.coherence_euler_c(*args())  # loads the library
        call = args()
        tracemalloc.start()
        try:
            kernels.coherence_euler_c(*call)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sum(a.nbytes for a in call[17:20]) / 20

    def test_error_names_the_lower_index(self, monkeypatch, threads):
        # point 0 fails at step 7, point 1, in the other chunk, at step 4
        self.cores(monkeypatch, 2)
        layout = builtin_layout("inv3")
        kink = kink_matrix(layout, 80.0, PAPER)
        params = CoherenceParams(total_time=400 * CoherenceParams().time_step)
        points = [(KinkMatrix.from_arrays(kink.ids, kink.first, kink.second,
                                          scale * kink.energies, 80.0),
                   t, None)
                  for scale, t in ((3e3, 1.0), (3e4, 0.0))]
        with pytest.raises(IntegrationError, match="at step 7 ") as info:
            simulate_coherence_batch(layout, params, points, PAPER)
        assert info.value.point == 0
        assert len(threads) == 1

    @pytest.mark.parametrize("argv, batch, code", [
        ("sweep-temp --layout builtin:inv3 --total-time 1e-12", 15, 0),
        ("truth --layout builtin:majority --function majority "
         "--engine coherence", 8, 0),
        # the one batch whose points carry different kink energies
        ("sweep-gap --engine coherence --layout builtin:inv3 "
         "--total-time 1e-12", 6, 0),
        # every point fails: the same one-line error
        ("sweep-temp --layout builtin:inv3 --total-time 1e-11 "
         "--relaxation-time 1e-12 --time-step 5e-14", 15, 1),
    ])
    def test_output_independent_of_the_core_count(self, monkeypatch, threads,
                                                  argv, batch, code):
        """One chunk and one chunk per point print the same stdout and
        stderr, with the same exit code."""
        printed = []
        for cores in (1, batch):
            monkeypatch.setattr(kernels, "_usable_cores", lambda: cores)
            printed.append(cli(argv.split()))
        assert len(threads) == batch - 1  # one call, split into B chunks
        assert printed[0] == printed[1]
        assert printed[0][0] == code and printed[0][2].count("\n") == code


class TestSweepParity:
    """The C sweep kernel against the loop kernel where bistable_relax
    cannot compare them: the polarizations of sweeps that did not
    converge, degenerate energies and a tolerance met exactly."""

    @pytest.mark.parametrize("max_iterations", [1, 3, 10_000])
    def test_block_converged_or_not(self, max_iterations):
        from test_coupling import block_layout
        params = BistableParams(gamma=6e-21, max_iterations=max_iterations)
        converged, sweeps, worst, _ = assert_sweeps_identical(
            sweep_problem(block_layout(7), params))
        if max_iterations == 10_000:
            assert converged and 3 < sweeps < max_iterations
        else:
            assert not converged and sweeps == max_iterations
        assert worst >= 0

    @pytest.mark.parametrize("scale", [1e300, float("inf"), float("nan"), -0.0])
    def test_degenerate_energies(self, scale):
        assert_sweeps_identical(sweep_problem(
            builtin_layout("majority"), BistableParams(max_iterations=5),
            {"a": 1.0, "b": -1.0, "c": 1.0}, kink_scale=scale))

    def test_convergence_needs_a_change_below_the_tolerance(self):
        # inv2's free cell moves by |P| in the first sweep and by 0 in the
        # second: a tolerance of exactly |P| stops after the second
        first = assert_sweeps_identical(sweep_problem(
            builtin_layout("inv2"), BistableParams(max_iterations=1)))[3]
        params = BistableParams(convergence_tolerance=abs(first[1]))
        assert assert_sweeps_identical(
            sweep_problem(builtin_layout("inv2"), params))[:3] == (True, 2, -1)


# Kink energies that are not a multiple of two_gamma: signed zeros,
# subnormals, and values whose square, or whose field over two_gamma,
# overflows
SPECIAL_ENERGIES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                    1.5e154, -1e200, 1e300, -1.7e308)
# Starting polarizations that repeat, so that free cells tie for the
# largest change, among them the 0.0 of a free cell in bistable_relax
SPECIAL_POLS = (0.0, -0.0, 0.5, -0.5, 1.0, -1.0)


@st.composite
def sweep_problems(draw):
    """Arguments of one bistable sweep over a random neighbor list of n
    cells: each row a subset of the cells in ascending column, the free
    positions a subset in any order. The bulk is drawn from a Random
    seeded by hypothesis, which keeps each example cheap."""
    n = draw(st.integers(1, 12))
    two_gamma = draw(st.one_of(
        st.floats(1e-30, 1e-18), st.sampled_from((5e-324, 1e-300, 1.0, 1e300))))
    tolerance = draw(st.one_of(st.floats(1e-12, 1.0),
                               st.sampled_from((5e-324, 1e-300, 0.5, 2.0))))
    max_iterations = draw(st.integers(1, 30))
    rnd = random.Random(draw(st.integers(0, 2**64 - 1)))
    density = rnd.random()
    offsets, cols, energies = [0], [], []
    for _ in range(n):
        row = [j for j in range(n) if rnd.random() < density]
        cols += row
        offsets.append(len(cols))
        energies += [rnd.choice(SPECIAL_ENERGIES) if rnd.random() < 0.2
                     else rnd.uniform(-40.0, 40.0) * two_gamma for _ in row]
    pols = [rnd.choice(SPECIAL_POLS) if rnd.random() < 0.5 else rnd.uniform(-1.0, 1.0)
            for _ in range(n)]
    free = rnd.sample(range(n), rnd.randint(0, n))
    return (np.array(energies, dtype=np.float64), np.array(offsets, dtype=np.int64),
            np.array(cols, dtype=np.int64), np.array(pols), np.array(free, dtype=np.int64),
            two_gamma, tolerance, max_iterations)


class TestSweepDifferential:
    """The C sweep kernel against the loop kernel on generated problems."""

    @needs_cc
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(sweep_problems())
    def test_random_neighbor_lists(self, problem):
        args = lambda: tuple(a.copy() if isinstance(a, np.ndarray) else a
                             for a in problem)
        loop = sweep(kernels.bistable_sweep_loop, args)
        got = sweep(kernels.bistable_sweep_c, args)
        assert got[:3] == loop[:3]
        assert_same_bits(got[3], loop[3])


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
    return sorted(p.name for p in directory.glob("kernels-*.so"))


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
        args = sweep_problem(builtin_layout("inv3"))
        assert_same_bits(sweep(kernels.bistable_sweep, args)[3],
                         sweep(kernels.bistable_sweep_loop, args)[3])
        table = kernels.format_sci(SCI_EDGES)
        assert kernels.table_texts(table) == kernels.format_sci_loop(SCI_EDGES)
        indices = np.array([[0, 5, 0], [7, 7, 1]])
        assert kernels.write_rows(table, indices) == kernels.write_rows_loop(table, indices)
        assert not (own_cache / "cache").exists()
        # nor does it touch a cache that holds other builds
        cache = own_cache / "cache" / "qcasim"
        cache.mkdir(parents=True, mode=0o700)
        (cache / "kernels-00000000.so").touch()
        kernels._library.cache_clear()
        assert kernels._library() is None
        assert os.listdir(cache) == ["kernels-00000000.so"]

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
    def test_build_removes_superseded_libraries(self, own_cache):
        """A build removes the other libraries of the cache; a cache hit
        removes nothing, and files of other names stay."""
        cache = own_cache / "cache" / "qcasim"
        cache.mkdir(parents=True, mode=0o700)
        decoys = ("kernels-00000000.so", "kernels-0493b261ed9638578ead.so",
                  "euler-db32b684d0ccfadb86a1.so")
        kept = ("kernels-00000000.so.tmp", "notes.txt", "other-1.so", "kernels.so")
        for name in decoys + kept:
            (cache / name).touch()
        assert kernels._library() is not None
        (name,) = libraries(cache)
        assert name not in decoys
        assert sorted(os.listdir(cache)) == sorted((name, *kept))
        (cache / decoys[0]).touch()
        kernels._library.cache_clear()
        assert kernels._library() is not None
        assert sorted(os.listdir(cache)) == sorted((name, decoys[0], *kept))

    @needs_cc
    def test_cache_hit_runs_no_compiler(self):
        """A fresh process that finds the library in its cache loads it
        without starting the compiler: it never imports subprocess."""
        assert kernels.kernel_path() == "c"  # the cache is warm
        script = ("import sys\n"
                  "from qcasim import kernels\n"
                  "print(kernels.kernel_path(), 'subprocess' in sys.modules)\n")
        src = str(Path(kernels.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "c False\n"

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

    @needs_cc
    def test_sweep_arrays_checked_before_pointers_pass(self):
        assert kernels.kernel_path() == "c"
        # inv2: the fixed cell "in" at position 0, the free "out" at 1
        good = sweep_problem(builtin_layout("inv2"))
        assert good()[1].tolist() == [0, 1, 2] and good()[4].tolist() == [1]
        kernels.bistable_sweep_c(*good())

        def read_only(a):
            a.setflags(write=False)
            return a
        bad = [
            (4, lambda a: a + 1, "free must be cell positions"),   # 2 >= n
            (4, lambda a: a - 2, "free must be cell positions"),   # -1 < 0
            (4, lambda a: a.astype(np.int32), "free"),
            (4, lambda a: a[None], "free"),                        # 2-D
            (3, lambda a: a.astype(np.float32), "pols"),
            (3, lambda a: a[None], "pols"),                        # shape
            (3, lambda a: np.repeat(a, 2)[::2], "pols"),           # not C-contiguous
            (3, read_only, "pols"),
            (0, lambda a: a[:1], "energies"),
            (0, lambda a: a.astype(np.float32), "energies"),
            (1, lambda a: a[:-1], "offsets"),                      # shape
            (1, lambda a: a.astype(np.int32), "offsets"),
            (1, lambda a: np.repeat(a, 2)[::2], "offsets"),        # not C-contiguous
            (1, lambda a: a + 1, "offsets must start at 0"),
            (1, lambda a: np.array([0, 2, 1]), "never decrease"),
            (1, lambda a: a + [0, 0, 1], "cols"),                  # ends past nnz
            (2, lambda a: a + 1, "cols must be cell positions"),   # 2 >= n
            (2, lambda a: a - 1, "cols must be cell positions"),   # -1 < 0
            (2, lambda a: a.astype(np.float64), "cols"),
            (7, lambda a: 0, "max_iterations"),
        ]
        for index, spoil, message in bad:
            args = list(good())
            args[index] = spoil(args[index])
            with pytest.raises(ValueError, match=message):
                kernels.bistable_sweep_c(*args)

    def test_no_compiler_process_gives_the_same_bytes(self, tmp_path):
        """A process whose CC does not exist runs the loop kernels and `%`,
        and prints the stdout, stderr and exit code of this process: on
        every criterion-7 argv and, where this process runs the compiled
        kernels, on coherence runs that record every step or carry
        different kink energies per point, and on `kink` and bistable
        `simulate` of a 40-cell wire, built in and read from a file, and
        of a file whose cell ids are not ASCII."""
        from test_acceptance import CRITERION_7_ARGV
        argvs = list(CRITERION_7_ARGV)
        if kernels.kernel_path() == "c":
            qcl = tmp_path / "wire40.qcl"
            qcl.write_text(serialize_layout(builtin_layout("wire(40)")))
            wire = builtin_layout("wire(5)")
            ids = dict(zip(wire.ids, ("輸入", "zelle_ä", "ячейка", "café", "𝓍")))
            cells = tuple(replace(cell, id=ids[cell.id]) for cell in wire.cells)
            unicode = tmp_path / "unicode.qcl"
            unicode.write_text(serialize_layout(Layout(name="unicode", cells=cells)),
                               encoding="utf-8")
            coherence = ["--engine", "coherence", "--layout", "builtin:inv3",
                         "--total-time", "1e-12"]
            argvs += [["simulate", *coherence, "--stride", "1"],
                      ["sweep-gap", *coherence],
                      *([command, "--layout", layout]
                        for layout in ("builtin:wire(40)", str(qcl), str(unicode))
                        for command in ("kink", "simulate"))]
        script = (
            "import io, json, sys\n"
            "from qcasim import kernels\n"
            "from qcasim.cli import run_cli\n"
            "printed = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    out, err = io.StringIO(), io.StringIO()\n"
            "    code = run_cli(argv, stdout=out, stderr=err)\n"
            "    printed.append([code, out.getvalue(), err.getvalue()])\n"
            "print(json.dumps({'path': kernels.kernel_path(), "
            "'printed': printed}))\n")
        env = dict(os.environ, CC="/nonexistent")
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result["path"] == "loop"
        for argv, printed in zip(argvs, result["printed"], strict=True):
            assert tuple(printed) == cli(argv), argv


class TestFormatSci:
    """``kernels.format_sci`` against ``sweeps.sci`` (Python's `%`), bit
    for bit: the C formatter's certified texts, the values it hands back,
    and the dispatch that fills those in."""

    @staticmethod
    def assert_matches_sci(values):
        values = np.ascontiguousarray(values, dtype=np.float64)
        expected = [sci(v) for v in values.tolist()]
        assert kernels.table_texts(kernels.format_sci(values)) == expected
        if kernels.kernel_path() == "c":
            table, rejected = kernels.format_sci_c(values)
            assert (np.diff(rejected) > 0).all()
            for i in rejected.tolist():
                expected[i] = ""
            assert kernels.table_texts(table) == expected
            return rejected
        return None

    def test_edges(self):
        self.assert_matches_sci(SCI_EDGES)

    @needs_cc
    def test_ties_fall_back_and_still_match(self):
        ties = np.array([1234565.0, 1234575.0, 123456.5, 999999.5, -12345.25])
        table, rejected = kernels.format_sci_c(ties)
        assert rejected.tolist() == [0, 1, 2, 3, 4]
        assert kernels.table_texts(table) == [""] * 5
        assert kernels.table_texts(kernels.format_sci(ties)) == [
            "1.23456e+06", "1.23458e+06", "1.23456e+05", "1.00000e+06",
            "-1.23452e+04"]
        # the ends of the certified range are written in C; past them, `%`
        ends = np.array([1e-38, -1e38, np.nextafter(1e-38, 0.0),
                         np.nextafter(1e38, np.inf)])
        assert self.assert_matches_sci(ends).tolist() == [2, 3]

    @needs_cc
    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20261019)
        for chunk in range(8):
            bits = rng.integers(0, 2**64, 250_000, dtype=np.uint64)
            if chunk >= 2:
                # exponents from 2**-126 to 2**126 (not included), within
                # the certified range [1e-38, 1e38]
                exponent = rng.integers(1023 - 126, 1023 + 126, 250_000,
                                        dtype=np.uint64)
                bits = ((bits & ~np.uint64(0x7FF0000000000000))
                        | (exponent << np.uint64(52)))
            rejected = self.assert_matches_sci(bits.view(np.float64))
            if chunk >= 2:
                assert len(rejected) < 250  # only near-ties fall back

    @needs_cc
    @pytest.mark.parametrize("scale", [1e-22, 1e-21, 1e-13, 1.0])
    def test_physical_scales(self, scale):
        rng = np.random.default_rng(int(-math.log10(scale)))
        rejected = self.assert_matches_sci(rng.uniform(-scale, scale, 250_000))
        assert len(rejected) < 25

    @needs_cc
    def test_integers_and_half_integers(self):
        values = np.concatenate([
            np.arange(-100_000.0, 100_000.0, 0.5), np.arange(99_000.0, 101_000.0, 0.5),
            np.arange(999_000.0, 1_001_000.0, 0.5),
            np.arange(1_299_000.0, 1_301_000.0, 0.5)])
        values = np.concatenate([values, -values])
        rejected = self.assert_matches_sci(values)
        # only the exact ties fall back: half-integers from 1e5 to 1e6,
        # and 7-digit integers ending in 5
        size = np.abs(values)
        ties = (((size >= 1e5) & (size < 1e6) & (size % 1 == 0.5))
                | ((size >= 1e6) & (size < 1e7) & (size % 10 == 5)))
        assert rejected.tolist() == np.flatnonzero(ties).tolist()

    @needs_cc
    def test_signed_zeros_are_certified(self):
        table, rejected = kernels.format_sci_c(np.array([0.0, -0.0, 1.0, -0.0]))
        assert rejected.tolist() == []
        assert kernels.table_texts(table) == ["0.00000e+00", "-0.00000e+00",
                                              "1.00000e+00", "-0.00000e+00"]

    @needs_cc
    def test_empty_and_checked(self):
        table, rejected = kernels.format_sci_c(np.zeros(0))
        assert kernels.table_texts(table) == [] and rejected.tolist() == []
        for bad in (np.zeros(4, dtype=np.float32), np.zeros(8)[::2], np.zeros((2, 2))):
            with pytest.raises(ValueError, match="values"):
                kernels.format_sci_c(bad)


class TestWriteRows:
    """Text tables and both row writers; the differential test of
    ``write_rows_c`` against ``write_rows_loop`` over drawn tables is
    ``tests/test_sweeps.py::TestWriteCsv::test_c_row_writer_matches_loop``."""

    def test_text_tables_read_back(self):
        texts = ["", "a", "é€", "𝄞x", "\ud800", "a,b"]
        data, offsets = kernels.text_table(texts)
        assert data.dtype == np.uint8 and offsets.tolist() == [0, 0, 1, 6, 11, 14, 17]
        assert kernels.table_texts((data, offsets)) == texts
        assert kernels.table_texts(kernels.text_table([])) == []

    def test_rows(self):
        table = kernels.text_table(["x", "ÿ", ""])
        indices = np.array([[0, 1, 2], [2, 2, 1]])
        writers = [kernels.write_rows_loop]
        if kernels.kernel_path() == "c":
            writers.append(kernels.write_rows_c)
        for write_rows in writers:
            assert write_rows(table, indices) == "x,\nÿ,\n,ÿ\n"
            assert write_rows(table, indices[:1]) == "x\nÿ\n\n"
            assert write_rows(table, indices[:, :0]) == ""
            assert write_rows(table, np.zeros((0, 3), np.int64)) == ""

    @needs_cc
    def test_arrays_checked_before_pointers_pass(self):
        data, offsets = kernels.text_table(["ab", "c"])
        indices = np.array([[0, 1]])
        assert kernels.write_rows_c((data, offsets), indices) == "ab\nc\n"
        bad = [
            ((data.astype(np.int8), offsets), indices, "data"),
            ((data[::2], offsets), indices, "data"),
            ((data, offsets.astype(np.int32)), indices, "offsets"),
            ((data, np.array([1, 2, 3])), indices, "offsets must start at 0"),
            ((data, np.array([0, 2, 1])), indices, "never decrease"),
            ((data, np.array([0, 2, 4])), indices, "end within data"),
            ((data, np.zeros(0, np.int64)), indices, "offsets"),
            ((data, offsets), indices[0], "2-D"),
            ((data, offsets), indices.astype(np.int32), "indices"),
            ((data, offsets), np.array([[0, 1, 1, 0]])[:, ::2], "indices"),
            ((data, offsets), indices + 1, "table entries 0..1"),
            ((data, offsets), indices - 1, "table entries 0..1"),
        ]
        for table, spoiled, message in bad:
            with pytest.raises(ValueError, match=message):
                kernels.write_rows_c(table, spoiled)


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
