"""qcasim: quantum-dot cellular automata layout simulator."""

from .constants import PhysicalConstants
from .electrostatics import (KinkMatrix, config_energy, coulomb_pair,
                             kink_energy_pair, kink_matrix)
from .engines import (BistableParams, CoherenceParams, SimulationTrace,
                      bistable_relax, clock_gamma, local_field,
                      simulate_coherence, simulate_coherence_batch,
                      steady_state_polarization, truth_table_check)
from .geometry import (Cell, ElectronConfiguration, Layout, builtin_layout,
                       displace_cell, dot_positions, parse_layout,
                       serialize_layout)
from .sweeps import (ReferenceTable, SweepResult, compare_to_reference,
                     emit_csv, load_reference_table, sweep_gap,
                     sweep_temperature)

__version__ = "0.1.0"

__all__ = [
    "PhysicalConstants", "Cell", "Layout", "ElectronConfiguration",
    "dot_positions", "parse_layout", "serialize_layout", "builtin_layout",
    "displace_cell", "KinkMatrix", "coulomb_pair", "config_energy",
    "kink_energy_pair", "kink_matrix", "BistableParams", "CoherenceParams",
    "SimulationTrace", "clock_gamma", "local_field", "bistable_relax",
    "steady_state_polarization", "simulate_coherence",
    "simulate_coherence_batch", "truth_table_check",
    "SweepResult", "ReferenceTable", "sweep_temperature", "sweep_gap",
    "compare_to_reference", "emit_csv", "load_reference_table",
    "__version__",
]
