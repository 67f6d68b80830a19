"""Casimir trace toolkit for self-similar plate stacks.

Four layers: running-coefficient stress algebra (:mod:`castrace.trace`),
prefractal design windows (:mod:`castrace.design`), a first-principles
delta-plate scattering engine (:mod:`castrace.scattering`) and log-periodic
fitting (:mod:`castrace.logfit`).  The ``castrace`` command line front end
lives in :mod:`castrace.cli`.
"""

from .design import PrefractalSpec, in_window, min_feature, min_level
from .errors import CastraceError, ConfigError, DomainError, NumericalError
from .logfit import FitConfig, FitResult, fit_log_periodic, period_scan, predicted_trace
from .scattering import (
    ExtractionResult,
    PlateStack,
    cantor_stack,
    extract_coefficient,
    mirror_pair,
    pair_energy_per_area,
    reflection_delta,
    stack_energy_per_area,
    transmission_delta,
)
from .trace import (
    CoefficientModel,
    SpectralParams,
    ThermalState,
    TraceReport,
    VacuumStress,
    energy_per_area,
    fractal_vacuum_energy,
    normal_pressure,
    ricci_scalar,
    spectral_dimension,
    thermal_state,
    trace_report,
    unified_trace,
    vacuum_energy_density,
    vacuum_stress,
)

__version__ = "0.1.0"

__all__ = [
    "CastraceError",
    "ConfigError",
    "DomainError",
    "NumericalError",
    "SpectralParams",
    "CoefficientModel",
    "VacuumStress",
    "ThermalState",
    "TraceReport",
    "spectral_dimension",
    "energy_per_area",
    "normal_pressure",
    "vacuum_energy_density",
    "vacuum_stress",
    "thermal_state",
    "fractal_vacuum_energy",
    "unified_trace",
    "ricci_scalar",
    "trace_report",
    "PrefractalSpec",
    "min_feature",
    "in_window",
    "min_level",
    "PlateStack",
    "ExtractionResult",
    "reflection_delta",
    "transmission_delta",
    "pair_energy_per_area",
    "stack_energy_per_area",
    "cantor_stack",
    "mirror_pair",
    "extract_coefficient",
    "FitConfig",
    "FitResult",
    "fit_log_periodic",
    "predicted_trace",
    "period_scan",
    "__version__",
]
