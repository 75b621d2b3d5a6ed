"""Command-line front end.

Subcommands: kink, simulate, truth, sweep-temp, sweep-gap, layouts.
Layouts are referenced as ``builtin:<name>`` (e.g. builtin:inv2,
builtin:wire(5)) or as a path to a .qcl file. All output is deterministic:
identical argv produces identical bytes.
"""

from __future__ import annotations

import argparse
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Optional, Sequence, TextIO, Union

import numpy as np

from .constants import PhysicalConstants
from .electrostatics import kink_matrix
from .engines import (BistableParams, CoherenceParams, EngineError,
                      bistable_relax, simulate_coherence, truth_table_check)
from .geometry import (BUILTIN_NAMES, Layout, LayoutError, builtin_layout,
                       parse_layout)
from .sweeps import (TABLE1_TEMPERATURES, TABLE23_GAPS, SweepError, emit_csv,
                     params_snapshot, sci, sweep_gap, sweep_temperature,
                     write_csv)

_DEFAULTS = CoherenceParams()
_BDEFAULTS = BistableParams()


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse reads '-1e-22' as an option name, since its negative-number
    pattern has no exponent. No qcasim option name starts with '-' and a
    digit, so every such argument is a value."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def _add_layout_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--layout", required=True,
                        help="builtin:<name> or path to a .qcl file "
                             f"(builtins: {', '.join(BUILTIN_NAMES)})")


def _add_common_args(parser: argparse.ArgumentParser,
                     engine: str = "bistable") -> None:
    parser.add_argument("--engine", choices=("bistable", "coherence"),
                        default=engine, help=f"simulation engine (default: {engine})")
    parser.add_argument("--constants", choices=("paper", "codata"), default=None,
                        help="physical constants mode (default: layout's, else paper)")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write output to PATH instead of stdout")
    group = parser.add_argument_group("physical parameter overrides")
    group.add_argument("--temperature", type=float, default=_DEFAULTS.temperature,
                       help=f"temperature in K (default: {sci(_DEFAULTS.temperature)})")
    group.add_argument("--relaxation-time", type=float,
                       default=_DEFAULTS.relaxation_time,
                       help="relaxation time in s "
                            f"(default: {sci(_DEFAULTS.relaxation_time)})")
    group.add_argument("--time-step", type=float, default=_DEFAULTS.time_step,
                       help=f"time step in s (default: {sci(_DEFAULTS.time_step)})")
    group.add_argument("--total-time", type=float, default=_DEFAULTS.total_time,
                       help="total simulation time in s "
                            f"(default: {sci(_DEFAULTS.total_time)})")
    group.add_argument("--clock-high", type=float, default=_DEFAULTS.clock_high,
                       help=f"clock high in J (default: {sci(_DEFAULTS.clock_high)})")
    group.add_argument("--clock-low", type=float, default=_DEFAULTS.clock_low,
                       help=f"clock low in J (default: {sci(_DEFAULTS.clock_low)})")
    group.add_argument("--clock-shift", type=float, default=_DEFAULTS.clock_shift,
                       help=f"clock shift in J (default: {sci(_DEFAULTS.clock_shift)})")
    group.add_argument("--amplitude-factor", type=float,
                       default=_DEFAULTS.clock_amplitude_factor,
                       help="clock amplitude factor "
                            f"(default: {sci(_DEFAULTS.clock_amplitude_factor)})")
    group.add_argument("--radius", type=float, default=_DEFAULTS.radius_of_effect,
                       help="radius of effect in nm "
                            f"(default: {sci(_DEFAULTS.radius_of_effect)})")
    group.add_argument("--gamma", type=float, default=_BDEFAULTS.gamma,
                       help="bistable tunneling energy in J "
                            f"(default: {sci(_BDEFAULTS.gamma)})")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qcasim",
        description="QCA layout simulator: kink energies, polarization engines, sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kink", help="pairwise kink energies of a layout")
    _add_layout_arg(p)
    _add_common_args(p)

    p = sub.add_parser("simulate", help="run one simulation on a layout")
    _add_layout_arg(p)
    _add_common_args(p)
    p.add_argument("--stride", type=int, default=100,
                   help="record every N integration steps (default: 100)")

    p = sub.add_parser("truth", help="exhaustive truth-table check")
    _add_layout_arg(p)
    _add_common_args(p)
    p.add_argument("--function", required=True,
                   choices=("inverter", "buffer", "majority", "and", "or"),
                   help="expected logic function of the layout")

    p = sub.add_parser("sweep-temp", help="output polarization vs temperature")
    _add_layout_arg(p)
    _add_common_args(p, engine="coherence")
    p.add_argument("--grid", default="table1",
                   help="'table1' or comma-separated temperatures in K "
                        "(default: table1)")

    p = sub.add_parser("sweep-gap", help="output polarization and kink energy vs gap")
    _add_layout_arg(p)
    _add_common_args(p)
    p.add_argument("--grid", default="table2",
                   help="'table2' or comma-separated gaps in nm (default: table2)")
    p.add_argument("--cell", default=None,
                   help="id of the displaced cell (default: the output cell)")

    sub.add_parser("layouts", help="list built-in layout names")
    return parser


def _load_layout(source: str) -> Layout:
    if source.startswith("builtin:"):
        return builtin_layout(source[len("builtin:"):])
    path = Path(source)
    if not path.exists():
        raise _CliError(f"layout file not found: {source}")
    return parse_layout(path.read_text(encoding="utf-8"), name=path.stem)


def _coherence_params(args: argparse.Namespace) -> CoherenceParams:
    return CoherenceParams(
        temperature=args.temperature,
        relaxation_time=args.relaxation_time,
        time_step=args.time_step,
        total_time=args.total_time,
        clock_high=args.clock_high,
        clock_low=args.clock_low,
        clock_shift=args.clock_shift,
        clock_amplitude_factor=args.amplitude_factor,
        radius_of_effect=args.radius,
    )


def _bistable_params(args: argparse.Namespace) -> BistableParams:
    return BistableParams(gamma=args.gamma, radius_of_effect=args.radius)


def _all_params(args: argparse.Namespace
                ) -> tuple[BistableParams, CoherenceParams]:
    """Both engines' params. Every engine command builds both, so a bad
    value of a flag that the chosen engine ignores still fails (exit 1)."""
    return _bistable_params(args), _coherence_params(args)


def _engine_params(args: argparse.Namespace
                   ) -> Union[BistableParams, CoherenceParams]:
    bistable, coherence = _all_params(args)
    return bistable if args.engine == "bistable" else coherence


def _constants(args: argparse.Namespace, layout: Optional[Layout]) -> PhysicalConstants:
    mode = args.constants
    if mode is None and layout is not None and layout.constants_mode is not None:
        mode = layout.constants_mode
    return PhysicalConstants.for_mode(mode or "paper")


def _parse_grid(text: str, kind: str) -> Sequence[float]:
    if kind == "temperature" and text == "table1":
        return TABLE1_TEMPERATURES
    if kind == "gap" and text in ("table2", "table3"):
        return TABLE23_GAPS
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise _CliError(f"bad grid {text!r}: expected a table name or "
                        "comma-separated numbers") from None


def _cmd_kink(args: argparse.Namespace, out: TextIO) -> int:
    layout = _load_layout(args.layout)
    constants = _constants(args, layout)
    matrix = kink_matrix(layout, args.radius, constants)
    # after kink_matrix, whose --radius diagnostic stays the one reported
    _all_params(args)
    write_csv(out, {"layout": layout.name, "constants": constants.mode,
                    "radius_of_effect_nm": args.radius},
              ("cell_i", "cell_j", "kink_energy_J"),
              [*matrix.pair_ids(), matrix.energies])
    return 0


def _cmd_simulate(args: argparse.Namespace, out: TextIO) -> int:
    layout = _load_layout(args.layout)
    constants = _constants(args, layout)
    params = _engine_params(args)
    matrix = kink_matrix(layout, params.radius_of_effect, constants)
    snapshot = {**params_snapshot(params), "layout": layout.name,
                "constants": constants.mode, "engine": args.engine}
    if args.engine == "bistable":
        pols = bistable_relax(layout, matrix, params)
        ids = [cell.id for cell in layout.cells]
        write_csv(out, snapshot, ("cell_id", "polarization"),
                  [ids, np.array([pols[cid] for cid in ids], dtype=np.float64)])
        return 0
    trace = simulate_coherence(layout, matrix, params, constants=constants,
                               record_stride=args.stride)
    snapshot["record_stride"] = args.stride
    header = ["time_s", "clock0_J", "clock1_J", "clock2_J", "clock3_J"]
    header += [f"{cid}_P" for cid in trace.cell_ids]
    write_csv(out, snapshot, header,
              [trace.times, *trace.clocks.T, *trace.polarizations.T])
    return 0


def _cmd_truth(args: argparse.Namespace, out: TextIO) -> int:
    layout = _load_layout(args.layout)
    constants = _constants(args, layout)
    params = _engine_params(args)
    matrix = kink_matrix(layout, params.radius_of_effect, constants)
    report = truth_table_check(layout, args.engine, params, args.function,
                               matrix, constants)
    snapshot = {**params_snapshot(params), "layout": layout.name,
                "constants": constants.mode, "engine": args.engine,
                "function": args.function,
                "drivers": "+".join(report.driver_ids)}
    rows = report.rows
    columns = [["".join(str(b) for b in row.inputs) for row in rows],
               [row.expected for row in rows],
               ["indeterminate" if row.observed is None else row.observed
                for row in rows],
               np.array([row.magnitude for row in rows], dtype=np.float64),
               ["pass" if row.passed else "fail" for row in rows]]
    passed = sum(row.passed for row in rows)
    write_csv(out, snapshot, ("inputs", "expected", "observed", "magnitude", "result"),
              columns, trailer=(f"summary: {passed}/{len(rows)} rows pass",))
    return 0


def _cmd_sweep_temp(args: argparse.Namespace, out: TextIO) -> int:
    layout = _load_layout(args.layout)
    constants = _constants(args, layout)
    grid = _parse_grid(args.grid, "temperature")
    if args.engine != "coherence":
        raise _CliError("sweep-temp runs the coherence engine only")
    _, params = _all_params(args)
    result = sweep_temperature(layout, grid, params, constants)
    emit_csv(result, out)
    return 0


def _cmd_sweep_gap(args: argparse.Namespace, out: TextIO) -> int:
    layout = _load_layout(args.layout)
    constants = _constants(args, layout)
    grid = _parse_grid(args.grid, "gap")
    cell_id = args.cell or layout.output_cell().id
    result = sweep_gap(layout, cell_id, grid, args.engine, _engine_params(args),
                       constants)
    emit_csv(result, out)
    return 0


def _cmd_layouts(args: argparse.Namespace, out: TextIO) -> int:
    out.write("\n".join(BUILTIN_NAMES) + "\n")
    return 0


_COMMANDS = {
    "kink": _cmd_kink,
    "simulate": _cmd_simulate,
    "truth": _cmd_truth,
    "sweep-temp": _cmd_sweep_temp,
    "sweep-gap": _cmd_sweep_gap,
    "layouts": _cmd_layouts,
}


def run_cli(argv: Optional[Sequence[str]] = None,
            stdout: Optional[TextIO] = None,
            stderr: Optional[TextIO] = None) -> int:
    """Parse argv and run a subcommand.

    Exit codes: 0 success, 1 domain/validation error (one-line diagnostic
    on stderr), 2 usage error.
    """
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            args = parser.parse_args(list(argv) if argv is not None else None)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    command = _COMMANDS[args.command]
    try:
        if getattr(args, "out", None):
            with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
                return command(args, handle)
        return command(args, stdout)
    except (_CliError, LayoutError, EngineError, SweepError, ValueError) as exc:
        stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
