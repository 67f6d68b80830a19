"""Stress tensors and traces for plate gaps with a running Casimir coefficient.

The vacuum sector is driven by a dimensionless coefficient C that may run
log-periodically with the plate separation; the thermal sector follows the
radiation law on a structure of spectral dimension d_s.  Everything here is
plain algebra in units hbar = c = 1, with lengths in whatever unit the
caller picks (the crossover length ell_star by default).

The vacuum functions evaluate C and dC/dlnd once per call in numpy floats.
Every public function raises NumericalError on a result that is not finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericalError

__all__ = [
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
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CoefficientModel:
    """Running Casimir coefficient C(x) = c0*(1 + sum_k a_k cos(2pi k x/p) + b_k sin(2pi k x/p)).

    The argument is x = ln(d/ell_star).  ``period`` is the log-period p; for a
    geometry with reduction factor b it equals ln(b).  ``harmonics`` holds the
    (a_k, b_k) amplitude pairs for k = 1..K; with no harmonics the coefficient
    is the constant c0.
    """

    c0: float
    period: float = math.log(3.0)
    harmonics: tuple[tuple[float, float], ...] = field(default=())
    ell_star: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.c0):
            raise DomainError(f"c0 must be finite, got {self.c0}")
        if not 0.0 < self.period < math.inf:
            raise DomainError(f"period must be positive and finite, got {self.period}")
        if not 0.0 < self.ell_star < math.inf:
            raise DomainError(
                f"ell_star must be positive and finite, got {self.ell_star}"
            )
        harmonics = tuple((float(a), float(b)) for a, b in self.harmonics)
        if not all(math.isfinite(a) and math.isfinite(b) for a, b in harmonics):
            raise DomainError(f"harmonic amplitudes must be finite, got {harmonics}")
        object.__setattr__(self, "harmonics", harmonics)

    def log_separation(self, d):
        """x = ln(d/ell_star) for a separation or an array of them; domain-checked."""
        if isinstance(d, float):  # an array reduction costs microseconds per scalar
            ok = 0.0 < d < math.inf
        else:
            ok = np.all((d > 0.0) & (d < math.inf))
        if not ok:
            raise DomainError(f"separation must be positive and finite, got {d}")
        return np.log(d / self.ell_star)

    def value(self, d):
        """C evaluated at separation d (a float or an array)."""
        x = self.log_separation(d)
        acc = 1.0
        for k, (a, b) in enumerate(self.harmonics, start=1):
            phase = _TWO_PI * k * x / self.period
            acc += a * np.cos(phase) + b * np.sin(phase)
        return self.c0 * acc

    def log_derivative(self, d):
        """dC/dx at separation d (derivative with respect to ln d)."""
        x = self.log_separation(d)
        acc = 0.0
        for k, (a, b) in enumerate(self.harmonics, start=1):
            omega = _TWO_PI * k / self.period
            phase = omega * x
            acc += omega * (-a * np.sin(phase) + b * np.cos(phase))
        return self.c0 * acc


@dataclass(frozen=True)
class VacuumStress:
    """Diagonal mixed-index vacuum stress (-rho, P_par, P_par, P_perp) and its trace."""

    rho_vac: float
    p_parallel: float
    p_perp: float
    trace: float


@dataclass(frozen=True)
class ThermalState:
    """Thermal sector on a structure of spectral dimension d_s."""

    u_th: float
    v_s: float
    d_s: float
    rho_th: float
    p_th: float
    trace: float


@dataclass(frozen=True)
class TraceReport:
    """Per-separation record of energies, pressures, traces and curvature."""

    d: float
    e: float
    rho_vac: float
    p_perp: float
    p_parallel: float
    vacuum_trace: float
    thermal_trace: float
    total_trace: float
    ricci: float


def _ieee():
    """Decorator under which numpy floats give inf, nan or signed zeros for _finite.

    It costs a third of a with-block per call.  Each function takes its own
    instance, as numpy 1.x keeps the saved state on the instance.
    """
    return np.errstate(over="ignore", divide="ignore", invalid="ignore")


def _finite(what: str, d, *values) -> None:
    """Raise NumericalError, naming the separations d if any, unless every value is finite.

    A scalar (np.float64 is a float) goes through math.isfinite, as a numpy
    reduction costs more than the algebra it checks.
    """
    for value in values:
        if not (math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()):
            at = "" if d is None else f" for separations in [{np.min(d)!s}, {np.max(d)!s}]"
            raise NumericalError(f"{what} is not finite{at}")


def _vacuum(model: CoefficientModel, d):
    """C/d^3 and the vacuum stress at d in numpy floats, unchecked.

    The only place C and dC/dlnd are evaluated.  The trace is literally
    -rho + 2*P_par + P_perp, so it is not finite when a component is not.
    """
    x = np.float64(d)
    c = model.value(x)
    rho = c / x**4
    p_par = -rho
    p_perp = 3.0 * rho - model.log_derivative(x) / x**4
    trace = -rho + 2.0 * p_par + p_perp
    return c / x**3, VacuumStress(rho_vac=rho, p_parallel=p_par, p_perp=p_perp, trace=trace)


@_ieee()
def energy_per_area(model: CoefficientModel, d: float) -> float:
    """Interaction energy per unit area, C(d)/d^3."""
    e = _vacuum(model, d)[0]
    _finite("energy per area", d, e)
    return e


def normal_pressure(model: CoefficientModel, d: float) -> float:
    """Pressure on the plates from virtual work, (3*C - dC/dlnd)/d^4.

    Equals -de/dd for e = C/d^3; the derivative term vanishes for a
    static coefficient.
    """
    return vacuum_stress(model, d).p_perp


@_ieee()
def vacuum_stress(model: CoefficientModel, d: float) -> VacuumStress:
    """Assemble the anisotropic vacuum stress tensor at separation d.

    Rho is C/d^4 and P_par = -rho; P_perp is normal_pressure.  The trace is
    -rho + 2*P_par + P_perp, bit for bit; algebraically it equals
    -(dC/dlnd)/d^4, so a static coefficient gives an exactly zero trace.
    """
    stress = _vacuum(model, d)[1]
    _finite("vacuum stress", d, stress.trace)
    return stress


@_ieee()
def thermal_state(u_th: float, v_s: float, d_s: float) -> ThermalState:
    """Thermal state with rho = u/v_s, p = rho/d_s and trace rho*(3/d_s - 1).

    The trace vanishes identically at d_s = 3, the ordinary radiation case.
    """
    if not math.isfinite(u_th):
        raise DomainError(f"thermal energy must be finite, got {u_th}")
    if not 0.0 < v_s < math.inf:
        raise DomainError(f"spectral volume must be positive and finite, got {v_s}")
    if not 0.0 < d_s < math.inf:
        raise DomainError(f"d_s must be positive and finite, got {d_s}")
    rho = u_th / v_s
    p = rho / d_s
    trace = rho * (3.0 / d_s - 1.0)
    _finite("thermal state", None, rho, p, trace)
    return ThermalState(u_th=u_th, v_s=v_s, d_s=d_s, rho_th=rho, p_th=p, trace=trace)


@_ieee()
def ricci_scalar(total_trace: float, g_newton: float) -> float:
    """Scalar curvature sourced by the trace, -8*pi*G*T."""
    if not 0.0 <= g_newton < math.inf:
        raise DomainError(f"coupling must be nonnegative and finite, got {g_newton}")
    ricci = -8.0 * math.pi * g_newton * total_trace
    _finite("scalar curvature", None, ricci)
    return ricci


@_ieee()
def trace_report(
    model: CoefficientModel, thermal: ThermalState, d: float, g_newton: float = 1.0
) -> TraceReport:
    """The trace accounting at separation d, or at every separation of an array.

    With an array, every field but ``thermal_trace`` has the array's shape.
    Raises NumericalError when a column is not finite, as when d^4
    underflows to zero.
    """
    e, stress = _vacuum(model, d)
    total = thermal.trace + stress.trace
    _finite("trace report", d, e, total)  # total is not finite if a stress field is not
    return TraceReport(
        d=d, e=e, rho_vac=stress.rho_vac, p_perp=stress.p_perp, p_parallel=stress.p_parallel,
        vacuum_trace=stress.trace, thermal_trace=thermal.trace, total_trace=total,
        ricci=ricci_scalar(total, g_newton),
    )
