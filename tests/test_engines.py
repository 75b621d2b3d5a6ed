import math
import re
from dataclasses import replace

import numpy as np
import pytest

from qcasim import kernels
from qcasim.constants import PhysicalConstants
from qcasim.electrostatics import kink_matrix
from qcasim.engines import (BistableParams, CoherenceParams, ConvergenceError,
                            EngineError, IntegrationError, MAX_STEPS,
                            bistable_relax, local_field, resolve_drives,
                            simulate_coherence, simulate_coherence_batch,
                            steady_state_polarization, truth_table_check)
from qcasim.geometry import Layout, builtin_layout

from oracle import clock_gamma, kink_energy, kink_matrix_from_pairs

RADIUS = 80.0

# short runs for tests: same engine, two orders of magnitude fewer steps
FAST = CoherenceParams(total_time=7.0e-13)


def fixed_clock_params(gamma=9.8e-22, total_time=1.0e-13):
    return CoherenceParams(clock_high=gamma, clock_low=gamma, total_time=total_time)


@pytest.fixture(scope="module")
def constants():
    return PhysicalConstants.paper()


class TestCoherenceParams:
    def test_defaults(self):
        p = CoherenceParams()
        assert p.temperature == 1.0
        assert p.relaxation_time == 1.0e-15
        assert p.time_step == 1.0e-16
        assert p.total_time == 7.0e-11
        assert p.clock_high == 9.8e-22
        assert p.clock_low == 3.8e-23
        assert p.clock_shift == 0.0
        assert p.clock_amplitude_factor == 2.0
        assert p.radius_of_effect == 80.0
        assert p.clock_periods == 1
        assert p.n_steps == 700_000

    @pytest.mark.parametrize("total_time, time_step", [
        (1e300, 1e-16),             # inf steps
        (7e-11, 1e-300),            # ~7e289 steps
        (1.1e-16 * MAX_STEPS, 1e-16),
        (1e-17, 1e-16),             # rounds to 0 steps
    ])
    def test_step_count_bounded(self, total_time, time_step):
        with pytest.raises(ValueError, match=f"must round to 1..{MAX_STEPS} Euler steps"):
            CoherenceParams(total_time=total_time, time_step=time_step)

    def test_step_count_at_the_bounds(self):
        assert CoherenceParams(total_time=1e-16 * MAX_STEPS).n_steps == MAX_STEPS
        assert CoherenceParams(total_time=0.6e-16).n_steps == 1

    def test_time_step_must_be_below_relaxation_time(self):
        with pytest.raises(ValueError):
            CoherenceParams(time_step=1e-14)

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            CoherenceParams(temperature=-1.0)

    def test_clock_order(self):
        with pytest.raises(ValueError):
            CoherenceParams(clock_low=1e-21, clock_high=1e-22)

    @pytest.mark.parametrize("name", ["temperature", "total_time", "clock_high",
                                      "clock_shift", "radius_of_effect"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            CoherenceParams(**{name: value})

    def test_bistable_non_finite_rejected(self):
        for name in ("gamma", "convergence_tolerance", "radius_of_effect"):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                BistableParams(**{name: math.nan})

    @pytest.mark.parametrize("value", [2.5, 3.0, True, False, "3", None])
    def test_bistable_max_iterations_must_be_an_integer(self, value):
        # a sweep count is counted: range() takes no float, and a bool
        # would print as "True sweeps"
        message = f"max_iterations must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BistableParams(max_iterations=value)

    def test_integer_beyond_float_range_rejected(self):
        # 10**30 sweeps is clamped by the kernel; 10**400 has no float to
        # check finiteness with
        message = ("max_iterations must be finite, got an integer too large "
                   "for a float (1329 bits)")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BistableParams(max_iterations=10**400)
        assert BistableParams(max_iterations=10**30).max_iterations == 10**30

    @pytest.mark.parametrize("name", ["clock_periods", "total_time", "temperature"])
    @pytest.mark.parametrize("value", [10**400, -10**400])
    def test_coherence_integer_beyond_float_range_rejected(self, name, value):
        message = (f"{name} must be finite, got an integer too large for a "
                   "float (1329 bits)")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CoherenceParams(**{name: value})


class TestClockGamma:
    def test_unclamped_peak(self):
        # amplitude = 2 * (9.8e-22 - 3.8e-23) / 2 = 9.42e-22, below clock_high
        value = clock_gamma(0, 0.0, CoherenceParams())
        assert value == pytest.approx(9.42e-22, rel=1e-12, abs=0)

    def test_clamped_trough(self):
        p = CoherenceParams()
        assert clock_gamma(0, p.total_time / 2, p) == p.clock_low

    def test_always_within_bounds(self):
        p = CoherenceParams()
        for zone in range(4):
            for t in np.linspace(0, p.total_time, 400):
                value = clock_gamma(zone, float(t), p)
                assert p.clock_low <= value <= p.clock_high

    def test_quarter_period_phase_shift(self):
        p = CoherenceParams()
        quarter = p.total_time / 4
        for t in np.linspace(quarter, p.total_time, 50):
            assert clock_gamma(1, float(t), p) == pytest.approx(
                clock_gamma(0, float(t) - quarter, p), rel=1e-9, abs=0)


class TestLocalField:
    def test_single_neighbor(self, constants):
        layout = builtin_layout("wire(2)")
        kink = kink_matrix(layout, RADIUS, constants)
        field = local_field("out", {"in": 1.0, "out": 0.0}, kink)
        assert field == pytest.approx(kink_energy(kink, "in", "out"), rel=1e-15, abs=0)

    def test_zero_neighbors(self, constants):
        layout = builtin_layout("wire(3)")
        kink = kink_matrix(layout, RADIUS, constants)
        assert local_field("c1", {"in": 0.0, "c1": 0.0, "out": 0.0}, kink) == 0.0

    def test_linearity_under_negation(self, constants):
        layout = builtin_layout("majority")
        kink = kink_matrix(layout, RADIUS, constants)
        pols = {"a": 1.0, "b": -0.5, "c": 0.25, "m": 0.7, "out": 0.0}
        flipped = {k: -v for k, v in pols.items()}
        assert local_field("out", flipped, kink) == pytest.approx(
            -local_field("out", pols, kink), rel=1e-12, abs=0)


class TestResolveDrives:
    def test_fixed_cell_uses_own_polarization(self):
        layout = builtin_layout("inv2")
        assert resolve_drives(layout) == {"in": 1.0}

    def test_fixed_cell_can_be_overridden(self):
        layout = builtin_layout("inv2")
        assert resolve_drives(layout, {"in": -1.0}) == {"in": -1.0}

    def test_input_cell_requires_drive(self):
        layout = builtin_layout("majority")
        with pytest.raises(EngineError, match="no drive value"):
            resolve_drives(layout, {"a": 1.0})

    def test_unknown_drive_rejected(self):
        layout = builtin_layout("inv2")
        with pytest.raises(EngineError, match="unknown"):
            resolve_drives(layout, {"in": 1.0, "bogus": 1.0})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 5.0, -1.5])
    def test_drive_outside_unit_interval_rejected(self, value):
        with pytest.raises(EngineError, match=r"must be in \[-1, 1\]"):
            resolve_drives(builtin_layout("inv2"), {"in": value})

    @pytest.mark.parametrize("value", [math.nan, 5.0])
    def test_both_engines_reject_bad_drives(self, constants, value):
        layout = builtin_layout("majority")
        kink = kink_matrix(layout, RADIUS, constants)
        drives = {"a": value, "b": 1.0, "c": -1.0}
        with pytest.raises(EngineError, match=r"cell 'a' must be in \[-1, 1\]"):
            bistable_relax(layout, kink, BistableParams(), drives)
        # the drive check, not the integrator's unit-ball guard
        with pytest.raises(EngineError, match=r"cell 'a' must be in \[-1, 1\]"):
            simulate_coherence(layout, kink, FAST, drives, constants)


class TestBistable:
    def test_wire_propagates_sign(self, constants):
        layout = builtin_layout("wire(5)")
        kink = kink_matrix(layout, RADIUS, constants)
        pols = bistable_relax(layout, kink, BistableParams())
        values = [pols[c.id] for c in layout.cells]
        assert all(v > 0 for v in values)
        # magnitude decays along the wire away from the driver
        assert all(u >= v - 1e-12 for u, v in zip(values, values[1:]))
        assert all(abs(pols[cid]) < 1.0 for cid in pols if cid != "in")

    def test_inv2_inverts(self, constants):
        layout = builtin_layout("inv2")
        kink = kink_matrix(layout, RADIUS, constants)
        assert bistable_relax(layout, kink, BistableParams(), {"in": 1.0})["out"] < 0
        assert bistable_relax(layout, kink, BistableParams(), {"in": -1.0})["out"] > 0

    def test_majority_vote(self, constants):
        layout = builtin_layout("majority")
        kink = kink_matrix(layout, RADIUS, constants)
        pols = bistable_relax(layout, kink, BistableParams(),
                              {"a": 1.0, "b": -1.0, "c": 1.0})
        assert pols["out"] > 0

    def test_drive_negation_negates_everything(self, constants):
        layout = builtin_layout("inv3")
        kink = kink_matrix(layout, RADIUS, constants)
        pos = bistable_relax(layout, kink, BistableParams(), {"in": 1.0})
        neg = bistable_relax(layout, kink, BistableParams(), {"in": -1.0})
        for cid in pos:
            assert neg[cid] == pytest.approx(-pos[cid], abs=1e-8)

    def test_relabeling_invariance(self, constants):
        params = BistableParams()
        layout = builtin_layout("inv3")
        renamed = Layout(name="renamed", cells=tuple(
            replace(c, id={"in": "zz_in", "mid": "aa_mid", "out": "qq_out"}[c.id])
            for c in layout.cells))
        a = bistable_relax(layout, kink_matrix(layout, RADIUS, constants), params)
        b = bistable_relax(renamed, kink_matrix(renamed, RADIUS, constants), params,
                           {"zz_in": 1.0})
        assert b["qq_out"] == pytest.approx(a["out"], abs=1e-8)

    def test_non_convergence_reports_cell(self, constants):
        layout = builtin_layout("wire(5)")
        kink = kink_matrix(layout, RADIUS, constants)
        with pytest.raises(ConvergenceError, match="worst cell"):
            bistable_relax(layout, kink, BistableParams(max_iterations=2))


class TestBistableFixedPoint:
    def test_residual_on_random_layouts(self, constants):
        """The relaxed state is a fixed point of P_i = f(E_i / (2 gamma)),
        with E_i recomputed pair by pair from kink_matrix, not from the
        neighbor rows bistable_relax reads."""
        from conftest import random_layout
        rng = np.random.default_rng(4242)
        for _ in range(60):
            layout = random_layout(rng, max_cells=12)
            params = BistableParams(gamma=float(rng.choice([2e-22, 9.8e-22, 5e-21])))
            kink = kink_matrix(layout, RADIUS, constants)
            pols = bistable_relax(layout, kink, params)
            ids = [c.id for c in layout.cells]
            for cell in layout.cells:
                if cell.role == "fixed":
                    continue
                field = sum(kink_energy(kink, cell.id, other) * pols[other]
                            for other in ids if other != cell.id)
                x = field / (2.0 * params.gamma)
                assert abs(pols[cell.id] - x / math.sqrt(1.0 + x * x)) <= 1e-5


class TestSteadyState:
    def test_zero_field_is_unpolarized(self, constants):
        assert steady_state_polarization(0.0, 1e-21, 5.0, constants) == 0.0

    def test_analytic_low_temperature_point(self, constants):
        gamma = 1e-21
        value = steady_state_polarization(2 * gamma, gamma, 0.0, constants)
        assert value == pytest.approx(1 / math.sqrt(2), rel=1e-12)

    def test_high_temperature_limit(self, constants):
        assert steady_state_polarization(1e-21, 1e-21, 1e8, constants) == pytest.approx(
            0.0, abs=1e-6)

    def test_odd_in_field(self, constants):
        for E in (1e-22, 3e-21):
            assert steady_state_polarization(-E, 1e-21, 2.0, constants) == pytest.approx(
                -steady_state_polarization(E, 1e-21, 2.0, constants), rel=1e-12)

    def test_monotone_decreasing_in_temperature(self, constants):
        E, gamma = 2e-21, 9.8e-22
        grid = np.linspace(0.0, 300.0, 100)
        values = [abs(steady_state_polarization(E, gamma, float(T), constants))
                  for T in grid]
        assert all(u >= v for u, v in zip(values, values[1:]))

    def test_monotone_increasing_in_field(self, constants):
        gamma, T = 9.8e-22, 5.0
        values = [abs(steady_state_polarization(E, gamma, T, constants))
                  for E in np.linspace(0, 1e-20, 100)]
        assert all(u <= v for u, v in zip(values, values[1:]))

    def test_degenerate_rejected(self, constants):
        with pytest.raises(ValueError):
            steady_state_polarization(0.0, 0.0, 1.0, constants)

    def test_bounded(self, constants):
        assert abs(steady_state_polarization(1e-19, 1e-23, 0.0, constants)) <= 1.0


class TestSimulateCoherence:
    def test_empty_layout(self, constants):
        layout = Layout(name="empty", cells=())
        trace = simulate_coherence(layout, kink_matrix(layout, RADIUS, constants),
                                   FAST, constants=constants)
        assert trace.cell_ids == ()
        assert trace.final == {}

    def test_two_cell_sign(self, constants):
        layout = builtin_layout("wire(2)")
        kink = kink_matrix(layout, RADIUS, constants)
        trace = simulate_coherence(layout, kink, FAST, constants=constants)
        assert trace.final["out"] > 0

    def test_matches_closed_form_at_fixed_clock(self, constants):
        layout = builtin_layout("wire(2)")
        kink = kink_matrix(layout, RADIUS, constants)
        gamma = 9.8e-22
        trace = simulate_coherence(layout, kink, fixed_clock_params(gamma),
                                   constants=constants)
        expected = steady_state_polarization(kink_energy(kink, "in", "out"), gamma, 1.0,
                                             constants)
        assert trace.final["out"] == pytest.approx(expected, abs=1e-6)

    def test_polarizations_bounded(self, constants):
        layout = builtin_layout("inv3")
        kink = kink_matrix(layout, RADIUS, constants)
        trace = simulate_coherence(layout, kink, FAST, constants=constants)
        assert np.all(np.abs(trace.polarizations) <= 1.0 + 1e-6)

    def test_driven_cell_holds_value(self, constants):
        layout = builtin_layout("inv2")
        kink = kink_matrix(layout, RADIUS, constants)
        trace = simulate_coherence(layout, kink, FAST, {"in": -1.0}, constants)
        column = trace.polarizations[:, trace.cell_ids.index("in")]
        assert np.all(column == -1.0)

    def test_drive_negation_negates_trace(self, constants):
        layout = builtin_layout("inv3")
        kink = kink_matrix(layout, RADIUS, constants)
        pos = simulate_coherence(layout, kink, FAST, {"in": 1.0}, constants)
        neg = simulate_coherence(layout, kink, FAST, {"in": -1.0}, constants)
        np.testing.assert_allclose(neg.polarizations, -pos.polarizations,
                                   atol=1e-12)

    def test_halving_time_step_is_converged(self, constants):
        layout = builtin_layout("inv3")
        kink = kink_matrix(layout, RADIUS, constants)
        coarse = simulate_coherence(layout, kink, FAST, constants=constants)
        fine = simulate_coherence(layout, kink,
                                  replace(FAST, time_step=FAST.time_step / 2),
                                  constants=constants)
        for cid in coarse.final:
            assert abs(coarse.final[cid] - fine.final[cid]) < 1e-4

    def test_trace_grid_strictly_increasing(self, constants):
        layout = builtin_layout("inv2")
        kink = kink_matrix(layout, RADIUS, constants)
        trace = simulate_coherence(layout, kink, FAST, constants=constants)
        assert np.all(np.diff(trace.times) > 0)
        assert trace.clocks.shape[1] == 4


class TestSimulateCoherenceBatch:
    def test_points_match_single_runs(self, constants):
        layout = builtin_layout("inv3")
        kink = kink_matrix(layout, RADIUS, constants)
        far = kink_matrix(layout, 25.0, constants)  # drops the in-out pair
        points = [(kink, replace(FAST, temperature=0.0), {"in": 1.0}),
                  (far, replace(FAST, temperature=3.0), {"in": -1.0}),
                  (kink, FAST, None)]
        traces = simulate_coherence_batch(layout, points, constants, 7)
        for trace, (k, params, inputs) in zip(traces, points):
            alone = simulate_coherence(layout, k, params, inputs, constants, 7)
            assert trace.final == alone.final
            for name in ("times", "clocks", "polarizations"):
                assert (getattr(trace, name).tobytes()
                        == getattr(alone, name).tobytes())

    def test_points_may_differ_only_in_temperature(self, constants):
        layout = builtin_layout("inv2")
        kink = kink_matrix(layout, RADIUS, constants)
        points = [(kink, FAST, None),
                  (kink, replace(FAST, clock_high=5e-22), None)]
        with pytest.raises(ValueError, match="only in temperature"):
            simulate_coherence_batch(layout, points, constants)

    def test_no_points(self, constants):
        assert simulate_coherence_batch(builtin_layout("inv2"), [], constants) == []

    @pytest.mark.parametrize("path", ["c", "loop"])
    def test_integer_temperatures(self, constants, monkeypatch, path):
        # params (and sweep grids) may hold ints: each kernel gives the
        # bits of the equal floats
        if path == "loop":
            monkeypatch.setattr(kernels, "_library", lambda: None)
        elif kernels.kernel_path() != "c":
            pytest.skip("no C compiler")
        layout = builtin_layout("inv3")
        kink = kink_matrix(layout, RADIUS, constants)

        def traces(temperatures):
            return simulate_coherence_batch(
                layout, [(kink, replace(FAST, temperature=t), None)
                         for t in temperatures], constants, 7)
        for trace, alone in zip(traces([0, 1, 2]), traces([0.0, 1.0, 2.0])):
            assert trace.final == alone.final
            assert trace.polarizations.tobytes() == alone.polarizations.tobytes()
        single = simulate_coherence(layout, kink, replace(FAST, temperature=0),
                                    constants=constants)
        assert single.final == traces([0.0])[0].final

    def test_first_failing_point_is_reported(self, constants):
        layout = builtin_layout("inv3")
        kink = kink_matrix(layout, RADIUS, constants)
        strong = kink_matrix_from_pairs(
            {key: 3e3 * e for key, e in kink.pairs.items()}, RADIUS)
        points = [(kink, FAST, None), (strong, FAST, None), (strong, FAST, None)]
        with pytest.raises(IntegrationError, match="left the unit ball") as info:
            simulate_coherence_batch(layout, points, constants)
        assert info.value.point == 1


class TestTruthTable:
    def test_inv2_inverter(self, constants):
        layout = builtin_layout("inv2")
        kink = kink_matrix(layout, RADIUS, constants)
        report = truth_table_check(layout, "bistable", None, "inverter", kink,
                                   constants)
        assert report.all_passed
        assert len(report.rows) == 2

    def test_majority_eight_rows(self, constants):
        layout = builtin_layout("majority")
        kink = kink_matrix(layout, RADIUS, constants)
        report = truth_table_check(layout, "bistable", None, "majority", kink,
                                   constants)
        assert len(report.rows) == 8
        assert report.all_passed

    def test_majority_with_fixed_low_input_is_and(self, constants):
        layout = builtin_layout("majority")
        cells = tuple(replace(c, role="fixed", fixed_polarization=-1.0)
                      if c.id == "c" else c for c in layout.cells)
        and_layout = Layout(name="and", cells=cells)
        kink = kink_matrix(and_layout, RADIUS, constants)
        report = truth_table_check(and_layout, "bistable", None, "and", kink,
                                   constants)
        assert report.driver_ids == ("a", "b")
        assert report.all_passed

    def test_majority_with_fixed_high_input_is_or(self, constants):
        layout = builtin_layout("majority")
        cells = tuple(replace(c, role="fixed", fixed_polarization=1.0)
                      if c.id == "c" else c for c in layout.cells)
        or_layout = Layout(name="or", cells=cells)
        kink = kink_matrix(or_layout, RADIUS, constants)
        report = truth_table_check(or_layout, "bistable", None, "or", kink,
                                   constants)
        assert report.all_passed

    def test_inverter_under_coherence(self, constants):
        layout = builtin_layout("inv2")
        kink = kink_matrix(layout, RADIUS, constants)
        report = truth_table_check(layout, "coherence", FAST, "inverter", kink,
                                   constants)
        assert report.all_passed

    def test_coherence_rows_match_single_runs(self, constants):
        layout = builtin_layout("majority")
        kink = kink_matrix(layout, RADIUS, constants)
        report = truth_table_check(layout, "coherence", FAST, "majority", kink,
                                   constants)
        assert len(report.rows) == 8
        for row in report.rows:
            drives = {cid: (1.0 if bit else -1.0)
                      for cid, bit in zip(report.driver_ids, row.inputs)}
            alone = simulate_coherence(layout, kink, FAST, drives, constants)
            assert row.magnitude == abs(alone.final["out"])

    def test_wrong_function_fails(self, constants):
        layout = builtin_layout("inv2")
        kink = kink_matrix(layout, RADIUS, constants)
        report = truth_table_check(layout, "bistable", None, "buffer", kink,
                                   constants)
        assert not report.all_passed
