"""Casimir trace toolkit for self-similar plate stacks.

Four layers: running-coefficient stress algebra (:mod:`castrace.trace`),
prefractal design windows (:mod:`castrace.design`), a first-principles
delta-plate scattering engine (:mod:`castrace.scattering`) and log-periodic
fitting (:mod:`castrace.logfit`).  The ``castrace`` command line front end
lives in :mod:`castrace.cli`.

``import castrace`` loads none of the layers: each public name is imported
from its module on first use, so a program pays only for the layers it
touches (``castrace.PlateStack`` loads the scattering engine and numpy,
``castrace.min_level`` only the design module).
"""

from importlib import import_module

# Public name -> the module that defines it, in the order of __all__.
_SOURCES = {
    **dict.fromkeys(["CastraceError", "ConfigError", "DomainError", "NumericalError"], "errors"),
    **dict.fromkeys(
        [
            "CoefficientModel",
            "VacuumStress",
            "ThermalState",
            "TraceReport",
            "energy_per_area",
            "normal_pressure",
            "vacuum_stress",
            "thermal_state",
            "ricci_scalar",
            "trace_report",
        ],
        "trace",
    ),
    **dict.fromkeys(["PrefractalSpec", "min_feature", "in_window", "min_level"], "design"),
    **dict.fromkeys(
        [
            "PlateStack",
            "ExtractionResult",
            "pair_energy_per_area",
            "stack_energy_per_area",
            "cantor_stack",
            "mirror_pair",
            "extract_coefficient",
        ],
        "scattering",
    ),
    **dict.fromkeys(["FitConfig", "FitResult", "fit_log_periodic"], "logfit"),
}

__version__ = "0.1.0"

__all__ = [*_SOURCES, "__version__"]


def __getattr__(name: str):
    try:
        module = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
