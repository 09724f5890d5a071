"""Numerical lab for entanglement filtering under uniform acceleration.

Protocol: pre-filter both parties of a bipartite state with weak
(null-result) measurements, expose one party to a fermionic Unruh channel
at Rindler angle r, then apply a reversing filter.  The package computes
negativity-based entanglement and informational measures over parameter
sweeps, with closed-form final states cross-validated against the
batched protocol pipeline.
"""

from .channel import AccelerationSpec, r_from_acceleration
from .closedform import corrected_final_qubit, literal_final_qubit, literal_final_qutrit
from .errors import ConfigError, DegenerateOutcome, UnknownPreset, UnruhLabError
from .localops import REVERSE, WEAK, MeasurementStrengths, tied
from .measures import MeasuresReport, measure_columns
from .pipeline import propagate, propagate_point
from .states import parse_state_preset
from .sweep import FIGURE_PRESETS, SweepConfig, figure_preset, load_config, rows_to_csv, run_sweep
from .tensor import DensityMatrix
from .validate import run_validation

__version__ = "0.1.0"

__all__ = [
    "AccelerationSpec",
    "ConfigError",
    "DegenerateOutcome",
    "DensityMatrix",
    "FIGURE_PRESETS",
    "MeasurementStrengths",
    "MeasuresReport",
    "REVERSE",
    "SweepConfig",
    "UnknownPreset",
    "UnruhLabError",
    "WEAK",
    "corrected_final_qubit",
    "figure_preset",
    "literal_final_qubit",
    "literal_final_qutrit",
    "load_config",
    "measure_columns",
    "parse_state_preset",
    "propagate",
    "propagate_point",
    "r_from_acceleration",
    "rows_to_csv",
    "run_sweep",
    "run_validation",
    "tied",
]
