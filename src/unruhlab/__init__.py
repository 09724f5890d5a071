"""Numerical lab for entanglement filtering under uniform acceleration.

Protocol: pre-filter both parties of a bipartite state with weak
(null-result) measurements, expose one party to a fermionic Unruh channel
at Rindler angle r, then apply a reversing filter.  The package computes
negativity-based entanglement and informational measures over parameter
sweeps, with closed-form final states cross-validated against the
batched protocol pipeline.
"""

import importlib

__version__ = "0.1.0"

# The `validate` command's defaults, stated here so that the command line
# can read them without importing the closed forms.
DEFAULT_SEED = 20240801
DEFAULT_SAMPLES = 100

# Each exported name by its home module, imported when the name is first read
# (PEP 562): a command line run loads only the modules its command uses.
_HOMES = {
    "channel": ("AccelerationSpec", "r_from_acceleration"),
    "closedform": ("corrected_final_qubit", "literal_final_qubit", "literal_final_qutrit"),
    "errors": ("ConfigError", "DegenerateOutcome", "UnknownPreset", "UnruhLabError"),
    "localops": ("REVERSE", "WEAK", "MeasurementStrengths", "tied"),
    "measures": ("measure_columns",),
    "pipeline": ("propagate", "propagate_point"),
    "states": ("parse_state_preset",),
    "sweep": ("FIGURE_PRESETS", "SweepConfig", "figure_preset", "load_config", "rows_to_csv",
              "run_sweep"),
    "tensor": ("DensityMatrix",),
    "validate": ("run_validation",),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name: str):
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
