"""End-to-end acceptance checks.

Each test covers one numbered criterion and records a single
``acceptance N: PASS|FAIL`` verdict line; conftest prints the collected
lines in the terminal summary so the run log always carries one verdict
per criterion.
"""

import functools
import io
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_layout
from oracle import brute_kink_matrix
from qcasim.constants import PhysicalConstants
from qcasim.electrostatics import coulomb_pair, kink_matrix
from qcasim.engines import (BistableParams, CoherenceParams, bistable_relax,
                            simulate_coherence, steady_state_polarization,
                            truth_table_check)
from qcasim.geometry import Layout, builtin_layout
from qcasim.sweeps import (TABLE23_GAPS, load_reference_table,
                           rank_correlation, sweep_gap, sweep_temperature)

PAPER = PhysicalConstants.paper()
NM = 1e-9


VERDICTS = []


def reported(criterion, description):
    """Record one pass/fail verdict line per criterion, win or lose."""
    def decorate(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            try:
                result = func(*args, **kwargs)
            except BaseException:
                VERDICTS.append(f"acceptance {criterion}: FAIL - {description}")
                raise
            VERDICTS.append(f"acceptance {criterion}: PASS - {description}")
            return result
        return wrapper
    return decorate


@reported(1, "pairwise energy constant 23.04e-29 J*m at 0.5/1/2/3 nm")
def test_criterion_1_energy_distance_constant():
    e = PAPER.electron_charge
    for r_nm in (0.5, 1.0, 2.0, 3.0):
        r = r_nm * NM
        product = coulomb_pair(e, e, r, PAPER) * r
        assert product == pytest.approx(23.04e-29, rel=1e-12)


@reported(2, "kink matrix matches brute-force oracle on 100 random layouts")
def test_criterion_2_kink_oracle_equivalence():
    rng = np.random.default_rng(91)
    for _ in range(100):
        layout = random_layout(rng, max_cells=6)
        matrix = kink_matrix(layout, 80.0, PAPER)
        expected = brute_kink_matrix(layout, 80.0, PAPER.coulomb_k,
                                     PAPER.electron_charge, "neutralized")
        assert set(matrix.pairs) == set(expected)
        for key, value in expected.items():
            assert matrix.pairs[key] == pytest.approx(value, rel=1e-12)


@reported(3, "inverters invert under both engines; majority/AND/OR 8/8")
def test_criterion_3_logic_contracts():
    for name in ("inv2", "inv3"):
        layout = builtin_layout(name)
        kink = kink_matrix(layout, 80.0, PAPER)
        for drive in (1.0, -1.0):
            pols = bistable_relax(layout, kink, BistableParams(), {"in": drive})
            assert pols["out"] * drive < 0, f"{name} bistable drive {drive}"
            trace = simulate_coherence(layout, kink, CoherenceParams(),
                                       {"in": drive}, PAPER)
            assert trace.final["out"] * drive < 0, f"{name} coherence drive {drive}"

    majority = builtin_layout("majority")
    kink = kink_matrix(majority, 80.0, PAPER)
    report = truth_table_check(majority, "bistable", None, "majority", kink, PAPER)
    assert len(report.rows) == 8 and report.all_passed

    for fixed_pol, function in ((-1.0, "and"), (1.0, "or")):
        cells = tuple(replace(c, role="fixed", fixed_polarization=fixed_pol)
                      if c.id == "c" else c for c in majority.cells)
        gate = Layout(name=function, cells=cells)
        gate_kink = kink_matrix(gate, 80.0, PAPER)
        gate_report = truth_table_check(gate, "bistable", None, function,
                                        gate_kink, PAPER)
        assert gate_report.all_passed, function


@reported(4, "temperature sweep monotone with rank correlation +1 vs table 1")
def test_criterion_4_temperature_trend():
    table = load_reference_table("table1")
    grid = table.grid()
    params = CoherenceParams()
    for name, column in (("inv2", "inv2_P"), ("inv3", "inv3_P")):
        result = sweep_temperature(builtin_layout(name), grid, params, PAPER)
        values = result.polarizations()
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-9, f"{name}: |P| increased with temperature"
        assert rank_correlation(values, table.column(column)) == 1.0, name
        if name == "inv3":
            assert abs(values[0] - values[1]) < 1e-3


@reported(5, "gap sweep strictly decreasing with rank correlation +1 vs tables 2-3")
def test_criterion_5_displacement_trends():
    result = sweep_gap(builtin_layout("inv3"), "out", TABLE23_GAPS, "bistable",
                       BistableParams(), PAPER)
    pols = result.polarizations()
    kinks = [abs(e) for e in result.kink_energies()]
    assert all(b < a for a, b in zip(pols, pols[1:])), "|P| not strictly decreasing"
    assert all(b < a for a, b in zip(kinks, kinks[1:])), "|Ek| not strictly decreasing"
    table2 = load_reference_table("table2")
    table3 = load_reference_table("table3")
    assert rank_correlation(pols, table2.column("inv3_P")) == 1.0
    assert rank_correlation(kinks, table3.column("inv3_Ek_J")) == 1.0


@reported(6, "fixed-clock steady state matches closed form; integrator stable")
def test_criterion_6_coherence_steady_state():
    layout = builtin_layout("wire(2)")
    kink = kink_matrix(layout, 80.0, PAPER)
    gamma = 9.8e-22
    params = CoherenceParams(clock_high=gamma, clock_low=gamma,
                             total_time=1.0e-13)  # 100 relaxation times
    trace = simulate_coherence(layout, kink, params, constants=PAPER)
    expected = steady_state_polarization(kink.get("in", "out"), gamma,
                                         params.temperature, PAPER)
    assert abs(trace.final["out"] - expected) < 1e-6
    assert np.all(np.abs(trace.polarizations) <= 1.0 + 1e-6)

    halved = simulate_coherence(layout, kink,
                                replace(params, time_step=params.time_step / 2),
                                constants=PAPER)
    assert abs(halved.final["out"] - trace.final["out"]) < 1e-4


CRITERION_7_ARGV = [
    ["kink", "--layout", "builtin:inv3"],
    ["simulate", "--layout", "builtin:wire(3)"],
    ["simulate", "--layout", "builtin:inv2", "--engine", "coherence",
     "--total-time", "7e-13"],
    ["truth", "--layout", "builtin:majority", "--function", "majority"],
    ["sweep-temp", "--layout", "builtin:inv2", "--grid", "1,5,10",
     "--total-time", "7e-13"],
    ["sweep-gap", "--layout", "builtin:inv3", "--grid", "1.0,2.0,3.0"],
    ["layouts"],
]


@reported(7, "every CLI subcommand is byte-identical across runs and processes")
def test_criterion_7_cli_determinism():
    from qcasim.cli import run_cli

    commands = CRITERION_7_ARGV

    def run(argv):
        out = io.StringIO()
        code = run_cli(argv, stdout=out, stderr=io.StringIO())
        assert code == 0, argv
        return out.getvalue()

    outputs = {}
    for argv in commands:
        first, second = run(argv), run(argv)
        assert first == second, argv
        outputs[tuple(argv)] = first

    # the coherence trace again in a fresh process
    argv = commands[2]
    proc = subprocess.run([sys.executable, "-m", "qcasim.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == outputs[tuple(argv)]


@reported(8, "shipped reference tables parse with verbatim printed values")
def test_criterion_8_reference_data_integrity():
    table1 = load_reference_table("table1")
    table2 = load_reference_table("table2")
    table3 = load_reference_table("table3")
    assert len(table1.rows) == 15
    assert len(table2.rows) == 6
    assert len(table3.rows) == 6
    by_temp = {row[0]: row for row in table1.rows}
    assert by_temp[1.0][1] == 0.562
    by_gap = {row[0]: row for row in table3.rows}
    assert by_gap[2.0][2] == 9.714e-20
