"""Polarization engines: bistable relaxation and coherence-vector dynamics.

The bistable engine is a temperature-free fixed-point solver: each free
cell's polarization saturates as f(x) = x / sqrt(1 + x^2) of its local
field over twice the tunneling energy, iterated Gauss-Seidel in layout
order until converged.

The coherence engine integrates a damped three-component coherence vector
per free cell with explicit fixed-step Euler; the z component is the
polarization and the four-phase clock modulates the tunneling energy.

The params pick the engine, whose name is their `engine`; the truth tables
and the gap sweep run their points through `final_polarizations`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from typing import Callable, ClassVar, Mapping, Optional, Sequence, Union

import numpy as np

from . import kernels
from .constants import PhysicalConstants
from .electrostatics import KinkMatrix
from .geometry import FIXED, INPUT, Layout

DEFAULT_RADIUS_OF_EFFECT = 80.0  # nm
DEFAULT_CLOCK_HIGH = 9.8e-22     # J
DEFAULT_CLOCK_LOW = 3.8e-23      # J
MAX_STEPS = 10**8                # Euler steps in one coherence run
# Bytes recorded in one coherence batch: n_rec x (n x B + 5) doubles, for
# the polarizations, times and four clocks. The largest recording of the
# tests, acceptance criteria and perfbench workloads is 2.8 MB (the table-1
# grid on inv3 at 7e5 steps, stride 100); inv3 at stride 1 takes 45 MB.
MAX_RECORD_BYTES = 2**28         # 256 MiB


class EngineError(RuntimeError):
    """`point` is the index of the first failing point, in order, of a run
    of several (`final_polarizations`, `simulate_coherence_batch`)."""

    def __init__(self, message: str, point: int = 0) -> None:
        super().__init__(message)
        self.point = point


class ConvergenceError(EngineError):
    """The bistable iteration did not converge."""


class IntegrationError(EngineError):
    """The coherence vector left the unit ball (the time step is too large)
    or |Gamma|^2 overflowed (the kink energies are too large)."""


def _per_point(points: Sequence, run: Callable) -> list:
    """run(point) for each point, in order; an EngineError it raises
    carries the index of its point."""
    results = []
    for b, point in enumerate(points):
        try:
            results.append(run(point))
        except EngineError as exc:
            exc.point = b
            raise
    return results


def _require_finite(name: str, value) -> None:
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int that no float can hold
        raise ValueError(f"{name} must be finite, got an integer too "
                         f"large for a float ({value.bit_length()} bits)"
                         ) from None
    if not finite:
        raise ValueError(f"{name} must be finite, got {value}")


def _check_temperature(value) -> None:
    _require_finite("temperature", value)
    if value < 0:
        raise ValueError("temperature must be non-negative")


def _with_unit(default, unit: str):
    """A params field in `unit`, which its CSV header key and its CLI help
    name (`sweeps.params_snapshot`, `cli.PARAM_FLAGS`)."""
    return field(default=default, metadata={"unit": unit})


@dataclass(frozen=True)
class CoherenceParams:
    engine: ClassVar[str] = "coherence"
    temperature: float = _with_unit(1.0, "K")
    relaxation_time: float = _with_unit(1.0e-15, "s")
    time_step: float = _with_unit(1.0e-16, "s")
    total_time: float = _with_unit(7.0e-11, "s")
    clock_high: float = _with_unit(DEFAULT_CLOCK_HIGH, "J")
    clock_low: float = _with_unit(DEFAULT_CLOCK_LOW, "J")
    clock_shift: float = _with_unit(0.0, "J")
    clock_amplitude_factor: float = 2.0
    radius_of_effect: float = _with_unit(DEFAULT_RADIUS_OF_EFFECT, "nm")
    clock_periods: int = 1

    def __post_init__(self) -> None:
        for f in fields(self):
            _require_finite(f.name, getattr(self, f.name))
        if self.relaxation_time <= 0 or self.time_step <= 0 or self.total_time <= 0:
            raise ValueError("all times must be strictly positive")
        if self.time_step >= self.relaxation_time:
            raise ValueError("time_step must be smaller than relaxation_time")
        steps = self.total_time / self.time_step
        if not (math.isfinite(steps) and 1 <= self.n_steps <= MAX_STEPS):
            raise ValueError(f"total_time / time_step must round to 1..{MAX_STEPS} "
                             f"Euler steps, got {steps:.6g}")
        if self.clock_low > self.clock_high:
            raise ValueError("clock_low must not exceed clock_high")
        _check_temperature(self.temperature)
        if self.radius_of_effect <= 0:
            raise ValueError("radius_of_effect must be strictly positive")
        if self.clock_periods < 1:
            raise ValueError("clock_periods must be at least 1")

    @property
    def n_steps(self) -> int:
        """Euler steps in one run: total_time / time_step, rounded."""
        return round(self.total_time / self.time_step)

    @property
    def clock_amplitude(self) -> float:
        return self.clock_amplitude_factor * (self.clock_high - self.clock_low) / 2.0


@dataclass(frozen=True)
class BistableParams:
    engine: ClassVar[str] = "bistable"
    gamma: float = _with_unit(DEFAULT_CLOCK_HIGH, "J")  # tunneling energy
    convergence_tolerance: float = 1.0e-9
    max_iterations: int = 10_000
    radius_of_effect: float = _with_unit(DEFAULT_RADIUS_OF_EFFECT, "nm")

    def __post_init__(self) -> None:
        if (not isinstance(self.max_iterations, int)
                or isinstance(self.max_iterations, bool)):
            raise ValueError(f"max_iterations must be an integer, got "
                             f"{self.max_iterations!r}")
        for f in fields(self):
            _require_finite(f.name, getattr(self, f.name))
        if self.gamma <= 0:
            raise ValueError("gamma must be strictly positive")
        if self.convergence_tolerance <= 0:
            raise ValueError("convergence_tolerance must be strictly positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class SimulationTrace:
    times: np.ndarray          # (n_rec,) seconds
    clocks: np.ndarray         # (n_rec, 4) joules, per zone
    polarizations: np.ndarray  # (n_rec, n_cells)
    cell_ids: tuple
    final: dict                # cell id -> final polarization
    record_stride: int = 1


def local_field(cell_id: str, polarizations: Mapping[str, float],
                kink: KinkMatrix) -> float:
    """Weighted neighborhood field sum(E_kink(i,j) * P_j), ascending cell id.

    Only neighbors with an entry in `polarizations` contribute."""
    ids = sorted({cell_id, *polarizations})
    energies, offsets, cols = coupling([kink], ids)
    i = ids.index(cell_id)
    row = slice(offsets[i], offsets[i + 1])
    total = 0.0
    for j, energy in zip(cols[row].tolist(), energies[0, row].tolist()):
        total += energy * polarizations[ids[j]]
    return total


def resolve_drives(layout: Layout, inputs: Optional[Mapping[str, float]] = None
                   ) -> dict[str, float]:
    """Drive value for every input/fixed cell.

    Input cells must appear in `inputs`; fixed cells default to their own
    fixed polarization but may be overridden. Every drive value must be a
    polarization, finite and in [-1, 1]. The cells come in cell order.
    """
    inputs = dict(inputs or {})
    drives: dict[str, float] = {}
    role, pol = layout.role.tolist(), layout.pol.tolist()
    for k in np.flatnonzero(layout.driver_mask).tolist():
        cid = layout.ids[k]
        if role[k] == INPUT:
            if cid not in inputs:
                raise EngineError(f"input cell {cid!r} has no drive value")
            drives[cid] = float(inputs.pop(cid))
        else:
            drives[cid] = float(inputs.pop(cid, pol[k]))
    if inputs:
        raise EngineError(f"drive values for unknown/undrivable cells: {sorted(inputs)}")
    for cid, value in drives.items():
        if not -1.0 <= value <= 1.0:  # NaN fails too
            raise EngineError(f"drive value of cell {cid!r} must be in [-1, 1], "
                              f"got {value}")
    return drives


def bistable_relax(layout: Layout, kink: KinkMatrix, params: BistableParams,
                   inputs: Optional[Mapping[str, float]] = None) -> dict[str, float]:
    """Converged polarizations of the bistable fixed-point model.

    Free cells are swept Gauss-Seidel in layout order with
    P_i <- f(E_i / (2 gamma)) until the largest change drops below the
    convergence tolerance; each field is summed over the `coupling`
    neighbor list, in ascending neighbor id. The sweep runs in
    `kernels.bistable_sweep`. Deterministic; raises ConvergenceError
    (naming the worst cell of the last sweep) if max_iterations is
    exhausted.
    """
    drives = resolve_drives(layout, inputs)
    # positions in id order, so that each row sums in ascending neighbor id
    ids, by_id = layout.ids, layout.id_order
    position = np.empty(len(ids), dtype=np.int64)
    position[by_id] = np.arange(len(ids))
    energies, offsets, cols = coupling([kink], [ids[k] for k in by_id.tolist()])
    driver = layout.driver_mask
    pols = np.zeros(len(ids))
    pols[position[driver]] = list(drives.values())
    free = position[~driver]  # the free cells in layout order
    converged, _, worst = kernels.bistable_sweep(
        energies[0], offsets, cols, pols, free, 2.0 * params.gamma,
        params.convergence_tolerance, params.max_iterations)
    if converged:
        return dict(zip(ids, pols[position].tolist()))
    worst_id = None if worst < 0 else ids[by_id[worst]]
    raise ConvergenceError(
        f"bistable iteration did not converge in {params.max_iterations} sweeps; "
        f"worst cell {worst_id!r}")


def steady_state_polarization(E: float, gamma: float, T: float,
                              constants: PhysicalConstants) -> float:
    """Thermal steady-state polarization (E/Omega) tanh(Omega / (2 kB T)).

    Omega = sqrt(E^2 + 4 gamma^2). At T = 0 the tanh factor is taken as 1.
    Odd in E; magnitude decreases with T and increases with |E|.
    """
    if T < 0:
        raise ValueError("temperature must be non-negative")
    omega = math.sqrt(E * E + 4.0 * gamma * gamma)
    if omega == 0.0:
        raise ValueError("E and gamma are both zero: polarization direction undefined")
    th = 1.0 if T == 0.0 else math.tanh(omega / (2.0 * constants.boltzmann_k * T))
    return (E / omega) * th


def coupling(kinks: Sequence[KinkMatrix], cell_ids: Sequence[str]
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kink energies of several points over one shared neighbor list,
    as the engines read them: (energies (B, nnz), offsets (n + 1,), cols
    (nnz,)). Row i, cols[offsets[i]:offsets[i + 1]], holds in ascending
    position in `cell_ids` every cell of `cell_ids` that is a neighbor of
    cell_ids[i] in some point; energies[b] gives point b's energy to each,
    0.0 where point b lacks the pair. Zero energies are left out.

    Each entry is the int64 key row * n + col. One `np.unique` over the
    keys of every matrix sorts the entries in (row, col) order, keeps an
    entry that several matrices hold once and maps each value to its
    entry."""
    n = len(cell_ids)
    where = {cid: k for k, cid in enumerate(cell_ids)}
    # points that share a kink matrix, as a temperature sweep's do, share
    # its energies
    distinct = {id(kink): kink for kink in kinks}
    keys, owners, values = [], [], []
    for m, kink in enumerate(distinct.values()):
        position = np.fromiter(map(where.get, kink.ids, itertools.repeat(-1)),
                               np.int64, len(kink.ids))
        first, second = position[kink.first], position[kink.second]
        kept = (kink.energies != 0.0) & (first >= 0) & (second >= 0)
        first, second, energy = first[kept], second[kept], kink.energies[kept]
        keys += (first * n + second, second * n + first)
        owners.append(np.full(2 * len(energy), m, dtype=np.int64))
        values += (energy, energy)
    entries, entry = np.unique(np.concatenate(keys), return_inverse=True)
    table = np.zeros((len(distinct), len(entries)))
    table[np.concatenate(owners), entry] = np.concatenate(values)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(entries // n, minlength=n), out=offsets[1:])
    slot = {key: m for m, key in enumerate(distinct)}
    energies = table[[slot[id(kink)] for kink in kinks]]
    return energies, offsets, entries % n


def simulate_coherence_batch(
        layout: Layout, params: CoherenceParams,
        points: Sequence[tuple[KinkMatrix, float, Optional[Mapping[str, float]]]],
        constants: Optional[PhysicalConstants] = None,
        record_stride: int = 100) -> list[SimulationTrace]:
    """Run the coherence-vector integrator for several points in lockstep.

    Each point is (kink, temperature, inputs) on the cells of `layout`:
    the points share the cell order, roles and clock zones, and `params`
    but for its temperature, so that they share the clock and the time
    grid. Each temperature is checked as `CoherenceParams` checks its own.
    Each point's trace is what `simulate_coherence` returns for it alone,
    with `params` at that temperature, bit for bit. Raises
    EngineError before integrating if the recording (polarizations, times
    and clocks) would take more than MAX_RECORD_BYTES. Raises
    EngineError for the first point, in order, with a bad drive value,
    and IntegrationError for the first whose coherence vector leaves the
    unit ball or whose |Gamma|^2 overflows; its `point` attribute is that
    point's index.
    """
    constants = constants or PhysicalConstants.paper()
    if record_stride < 1:
        raise ValueError("record_stride must be at least 1")
    for _, temperature, _ in points:
        _check_temperature(temperature)
    if not points:
        return []
    cell_ids = layout.ids
    if not cell_ids:
        return [SimulationTrace(times=np.zeros((0,)), clocks=np.zeros((0, 4)),
                                polarizations=np.zeros((0, 0)), cell_ids=(),
                                final={}, record_stride=record_stride)
                for _ in points]
    # every point drives the same cells, the input and fixed ones, in cell
    # order
    drives = _per_point(points, lambda point: resolve_drives(layout, point[2]))
    n_steps = params.n_steps
    n_rec = n_steps // record_stride + 1
    record_bytes = n_rec * (len(cell_ids) * len(points) + 5) * 8
    if record_bytes > MAX_RECORD_BYTES:
        raise EngineError(
            f"recording {n_rec} steps of {len(cell_ids)} cells x {len(points)} "
            f"points, times and clocks takes {record_bytes:.3e} bytes, over "
            f"the limit of {MAX_RECORD_BYTES:.3e}; use a larger --stride")
    energies, offsets, cols = coupling([kink for kink, _, _ in points], cell_ids)
    driven = layout.driver_mask
    drive_values = np.zeros((len(points), len(cell_ids)))
    drive_values[:, driven] = [list(d.values()) for d in drives]
    temperatures = np.array([t for _, t, _ in points], dtype=np.float64)

    rec_times = np.zeros(n_rec)
    rec_clocks = np.zeros((n_rec, 4))
    rec_pols = np.zeros((len(points), n_rec, len(cell_ids)))

    final_pol, bad_step = kernels.coherence_euler(
        energies, layout.zone, driven, drive_values, n_steps, params.time_step,
        params.total_time, float(params.clock_periods), params.clock_shift,
        params.clock_amplitude, params.clock_low, params.clock_high,
        params.relaxation_time, temperatures, constants.boltzmann_k,
        constants.hbar, record_stride, rec_times, rec_clocks, rec_pols,
        offsets, cols)
    failed = np.flatnonzero(bad_step >= 0)
    if failed.size:
        first = int(failed[0])
        step = int(bad_step[first])
        raise IntegrationError(
            f"coherence integration failed at step {step} "
            f"(t = {step * params.time_step:.3e} s): the coherence vector left "
            f"the unit ball (use a smaller time_step) or |Gamma|^2 overflowed "
            f"(kink energies too large)", point=first)
    return [SimulationTrace(times=rec_times, clocks=rec_clocks,
                            polarizations=rec_pols[b], cell_ids=cell_ids,
                            final=dict(zip(cell_ids, final_pol[b].tolist())),
                            record_stride=record_stride)
            for b in range(len(points))]


def simulate_coherence(layout: Layout, kink: KinkMatrix, params: CoherenceParams,
                       inputs: Optional[Mapping[str, float]] = None,
                       constants: Optional[PhysicalConstants] = None,
                       record_stride: int = 100) -> SimulationTrace:
    """Run the coherence-vector integrator over the full clock waveform.

    Driven cells hold their drive value; each free cell's coherence vector
    starts at zero and is advanced with explicit Euler at `time_step`,
    with the local field recomputed from the previous step's polarizations
    at every step. The trace records the clock values and all cell
    polarizations every `record_stride` steps. This is the one-point case
    of `simulate_coherence_batch`.
    """
    return simulate_coherence_batch(
        layout, params, [(kink, params.temperature, inputs)], constants, record_stride)[0]


def final_polarizations(layout: Layout, params: Union[BistableParams, CoherenceParams],
                        points: Sequence[tuple[KinkMatrix, Optional[Mapping[str, float]]]],
                        constants: Optional[PhysicalConstants] = None
                        ) -> list[dict[str, float]]:
    """The final polarizations of each point, (kink, inputs) on the cells of
    `layout`, on the engine of `params`: `bistable_relax` point by point,
    or one `simulate_coherence_batch` at `params.temperature`. An
    EngineError carries its point's index; other params raise TypeError."""
    if isinstance(params, BistableParams):
        return _per_point(points, lambda point: bistable_relax(
            layout, point[0], params, point[1]))
    if isinstance(params, CoherenceParams):
        # only the final state is read: record the first and last steps
        traces = simulate_coherence_batch(
            layout, params, [(kink, params.temperature, inputs) for kink, inputs in points],
            constants, record_stride=params.n_steps)
        return [trace.final for trace in traces]
    raise TypeError(f"no engine takes params of type {type(params).__name__}")


# --------------------------------------------------------------------------
# Truth tables

# name -> (the number of drivers it reads, the function)
EXPECTED_FUNCTIONS: dict[str, tuple[int, Callable[[Sequence[int]], int]]] = {
    "inverter": (1, lambda bits: 1 - bits[0]),
    "buffer": (1, lambda bits: bits[0]),
    "majority": (3, lambda bits: int(sum(bits) >= 2)),
    "and": (2, lambda bits: bits[0] & bits[1]),
    "or": (2, lambda bits: bits[0] | bits[1]),
}

INDETERMINATE_THRESHOLD = 1e-6


@dataclass(frozen=True)
class TruthTableRow:
    inputs: tuple            # logic bits per enumerated driver, sorted by id
    expected: int
    observed: Optional[int]  # None when indeterminate
    magnitude: float         # |P| of the output cell
    passed: bool


@dataclass(frozen=True)
class TruthTableReport:
    layout_name: str
    engine: str
    driver_ids: tuple
    rows: tuple

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)


def truth_table_check(layout: Layout, params: Union[BistableParams, CoherenceParams],
                      expected: str, kink: KinkMatrix,
                      constants: Optional[PhysicalConstants] = None) -> TruthTableReport:
    """Run every drive combination on the engine of `params` and compare
    output signs to the logic function `expected` names.

    Enumerates the input-role cells (falling back to fixed cells when the
    layout has no input cells, as in the two-cell inverter) sorted by id;
    logic 1 drives +1, logic 0 drives -1. An output magnitude below 1e-6
    is indeterminate and counts as a failing row. The function must read
    as many drivers as the layout has (EngineError otherwise).
    """
    try:
        arity, expected_fn = EXPECTED_FUNCTIONS[expected]
    except KeyError:
        raise ValueError(f"unknown logic function {expected!r}") from None
    driver_ids = sorted(layout.ids[k] for k in np.flatnonzero(layout.role == INPUT))
    if not driver_ids:
        driver_ids = sorted(layout.ids[k] for k in np.flatnonzero(layout.role == FIXED))
    if not driver_ids:
        raise EngineError("layout has no drivable cell")
    if arity != len(driver_ids):
        raise EngineError(
            f"function {expected!r} reads {arity} driver{'s' * (arity > 1)}, "
            f"layout {layout.name!r} has {len(driver_ids)}: {', '.join(driver_ids)}")
    out_id = layout.output_id()

    combos = list(itertools.product((0, 1), repeat=len(driver_ids)))
    drive_rows = [{cid: (1.0 if bit else -1.0) for cid, bit in zip(driver_ids, bits)}
                  for bits in combos]
    finals = final_polarizations(layout, params, [(kink, d) for d in drive_rows],
                                 constants)

    rows = []
    for bits, final in zip(combos, finals):
        out_pol, want = final[out_id], expected_fn(bits)
        # None: indeterminate, a failing row
        got = None if abs(out_pol) < INDETERMINATE_THRESHOLD else int(out_pol > 0)
        rows.append(TruthTableRow(bits, want, got, abs(out_pol), got == want))
    return TruthTableReport(layout_name=layout.name, engine=params.engine,
                           driver_ids=tuple(driver_ids), rows=tuple(rows))
