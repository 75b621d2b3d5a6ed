"""Command-line front end.

Subcommands: kink, simulate, truth, sweep-temp, sweep-gap, layouts.
Layouts are referenced as ``builtin:<name>`` (e.g. builtin:inv2,
builtin:wire(5)) or as a path to a .qcl file. All output is deterministic:
identical argv produces identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path
from typing import Optional, Sequence, TextIO, Union

import numpy as np

from .constants import PhysicalConstants
from .electrostatics import kink_matrix
from .engines import (EXPECTED_FUNCTIONS, BistableParams, CoherenceParams,
                      EngineError, bistable_relax, simulate_coherence,
                      truth_table_check)
from .geometry import BUILTIN_NAMES, Layout, builtin_layout, parse_layout
from .sweeps import (TABLE1_TEMPERATURES, TABLE23_GAPS, emit_csv, params_snapshot,
                     sci, sweep_gap, sweep_temperature, write_csv)

# The physical flags: params field -> (flag, help text). The flag's
# default, and the unit its help names, are the field's; --radius sets
# both engines' radius_of_effect.
PARAM_FLAGS = {
    "temperature": ("--temperature", "temperature"),
    "relaxation_time": ("--relaxation-time", "relaxation time"),
    "time_step": ("--time-step", "time step"),
    "total_time": ("--total-time", "total simulation time"),
    "clock_high": ("--clock-high", "clock high"),
    "clock_low": ("--clock-low", "clock low"),
    "clock_shift": ("--clock-shift", "clock shift"),
    "clock_amplitude_factor": ("--amplitude-factor", "clock amplitude factor"),
    "radius_of_effect": ("--radius", "radius of effect"),
    "gamma": ("--gamma", "bistable tunneling energy"),
}
_ENGINE_PARAMS = {cls.engine: cls for cls in (BistableParams, CoherenceParams)}


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
    parser.add_argument("--engine", choices=tuple(_ENGINE_PARAMS),
                        default=engine, help=f"simulation engine (default: {engine})")
    parser.add_argument("--constants", choices=("paper", "codata"), default=None,
                        help="physical constants mode (default: layout's, else paper)")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write output to PATH instead of stdout")
    group = parser.add_argument_group("physical parameter overrides")
    param_fields = {f.name: f for cls in _ENGINE_PARAMS.values() for f in fields(cls)}
    for name, (flag, text) in PARAM_FLAGS.items():
        default = param_fields[name].default
        unit = param_fields[name].metadata.get("unit")
        # the metavar argparse would give the flag, not the field
        group.add_argument(flag, dest=name, metavar=flag[2:].replace("-", "_").upper(),
                           type=float, default=default,
                           help=f"{text}{f' in {unit}' if unit else ''} "
                                f"(default: {sci(default)})")


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
                   choices=tuple(EXPECTED_FUNCTIONS),
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


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of every `run_cli` call in this process, built at the
    first: parsing leaves it as it was."""
    return build_parser()


def _load_layout(source: str) -> Layout:
    if source.startswith("builtin:"):
        return builtin_layout(source[len("builtin:"):])
    path = Path(source)
    if not path.exists():
        raise _CliError(f"layout file not found: {source}")
    return parse_layout(path.read_text(encoding="utf-8"), name=path.stem)


def _params(args: argparse.Namespace) -> Union[BistableParams, CoherenceParams]:
    """The params of the engine that `args` names, from the flags of
    `PARAM_FLAGS`. Every engine command builds both engines' params,
    bistable first, so a bad value of a flag that the chosen engine
    ignores still fails (exit 1)."""
    built = {engine: cls(**{f.name: getattr(args, f.name) for f in fields(cls)
                            if f.name in PARAM_FLAGS})
             for engine, cls in _ENGINE_PARAMS.items()}
    return built[args.engine]


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
    matrix = kink_matrix(layout, args.radius_of_effect, constants)
    # after kink_matrix, whose --radius diagnostic stays the one reported
    _params(args)
    write_csv(out, {"layout": layout.name, "constants": constants.mode,
                    "radius_of_effect_nm": args.radius_of_effect},
              ("cell_i", "cell_j", "kink_energy_J"),
              [*matrix.pair_ids(), matrix.energies])
    return 0


def _cmd_simulate(args: argparse.Namespace, out: TextIO) -> int:
    layout = _load_layout(args.layout)
    constants = _constants(args, layout)
    params = _params(args)
    if args.stride < 1:  # for both engines, as the params are checked
        raise _CliError("record_stride must be at least 1")
    matrix = kink_matrix(layout, params.radius_of_effect, constants)
    snapshot = {**params_snapshot(params), "layout": layout.name,
                "constants": constants.mode, "engine": args.engine}
    if args.engine == "bistable":
        pols = bistable_relax(layout, matrix, params)
        ids = layout.ids
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
    params = _params(args)
    matrix = kink_matrix(layout, params.radius_of_effect, constants)
    report = truth_table_check(layout, params, args.function, matrix, constants)
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
    result = sweep_temperature(layout, grid, _params(args), constants)
    emit_csv(result, out)
    return 0


def _cmd_sweep_gap(args: argparse.Namespace, out: TextIO) -> int:
    layout = _load_layout(args.layout)
    constants = _constants(args, layout)
    grid = _parse_grid(args.grid, "gap")
    cell_id = args.cell or layout.output_id()
    result = sweep_gap(layout, cell_id, grid, _params(args), constants)
    emit_csv(result, out)
    return 0


def _cmd_layouts(args: argparse.Namespace, out: TextIO) -> int:
    out.write("\n".join(BUILTIN_NAMES) + "\n")
    return 0


class _DeferredFile:
    """The `--out` file, opened for writing (created or truncated) at the
    first write. Every command writes its output once it has computed it,
    so a command that fails leaves an existing file as it was and creates
    none."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.handle: Optional[TextIO] = None

    def write(self, text: str) -> int:
        if self.handle is None:
            self.handle = open(self.path, "w", encoding="utf-8", newline="\n")
        return self.handle.write(text)

    def close(self) -> None:
        if self.handle is not None:
            self.handle.close()


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
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            args = _parser().parse_args(list(argv) if argv is not None else None)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    command = _COMMANDS[args.command]
    try:
        if getattr(args, "out", None):
            out = _DeferredFile(args.out)
            try:
                return command(args, out)
            finally:
                out.close()
        return command(args, stdout)
    except (_CliError, EngineError, ValueError, OSError) as exc:
        # LayoutError and SweepError are ValueErrors
        stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
