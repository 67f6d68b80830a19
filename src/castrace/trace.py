"""Stress tensors and traces for plate gaps with a running Casimir coefficient.

The vacuum sector is driven by a dimensionless coefficient C that may run
log-periodically with the plate separation; the thermal sector follows the
radiation law on a structure of spectral dimension d_s.  Everything here is
plain algebra in units hbar = c = 1, with lengths in whatever unit the
caller picks (the crossover length ell_star by default).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericalError

__all__ = [
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
]

_TWO_PI = 2.0 * math.pi


def spectral_dimension(d_h: float, d_w: float) -> float:
    """Spectral dimension 2*d_h/d_w from the Hausdorff and walk dimensions."""
    if not (0.0 < d_h < math.inf and 0.0 < d_w < math.inf):
        raise DomainError(
            f"dimensions must be positive and finite, got d_h={d_h}, d_w={d_w}"
        )
    return 2.0 * d_h / d_w


@dataclass(frozen=True)
class SpectralParams:
    """Dimension triple of a self-similar structure.

    d_h and d_w are optional; when both are given they must reproduce d_s
    through d_s = 2*d_h/d_w (relative tolerance 1e-12).
    """

    d_s: float
    d_h: float | None = None
    d_w: float | None = None

    def __post_init__(self):
        if not 0.0 < self.d_s < math.inf:
            raise DomainError(f"d_s must be positive and finite, got {self.d_s}")
        if (self.d_h is None) != (self.d_w is None):
            raise DomainError("d_h and d_w must be given together")
        if self.d_h is not None:
            implied = spectral_dimension(self.d_h, self.d_w)
            if abs(implied - self.d_s) > 1e-12 * abs(self.d_s):
                raise DomainError(
                    f"inconsistent dimensions: 2*d_h/d_w = {implied!r} "
                    f"but d_s = {self.d_s!r}"
                )


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
        if not self.harmonics:
            return self.c0
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


def energy_per_area(model: CoefficientModel, d: float) -> float:
    """Interaction energy per unit area, C(d)/d^3."""
    return model.value(d) / d**3


def vacuum_energy_density(model: CoefficientModel, d: float) -> float:
    """Vacuum energy density in the gap, C(d)/d^4."""
    return model.value(d) / d**4


def normal_pressure(model: CoefficientModel, d: float) -> float:
    """Pressure on the plates from virtual work, (3*C - dC/dlnd)/d^4.

    Equals -de/dd for e = C/d^3; the derivative term vanishes for a
    static coefficient.
    """
    return 3.0 * vacuum_energy_density(model, d) - model.log_derivative(d) / d**4


def vacuum_stress(model: CoefficientModel, d: float) -> VacuumStress:
    """Assemble the anisotropic vacuum stress tensor at separation d.

    The trace is computed literally as -rho + 2*P_par + P_perp, which makes
    the tensor identity exact by construction; algebraically it equals
    -(dC/dlnd)/d^4, so a static coefficient gives an exactly zero trace.
    """
    return _stress(model.value(d), model.log_derivative(d), d)


def _stress(c, dc_dlnd, d) -> VacuumStress:
    """The stress at d from C and dC/dlnd, with normal_pressure's arithmetic."""
    rho = c / d**4
    p_par = -rho
    p_perp = 3.0 * rho - dc_dlnd / d**4
    trace = -rho + 2.0 * p_par + p_perp
    return VacuumStress(rho_vac=rho, p_parallel=p_par, p_perp=p_perp, trace=trace)


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
    return ThermalState(u_th=u_th, v_s=v_s, d_s=d_s, rho_th=rho, p_th=p, trace=trace)


def fractal_vacuum_energy(l_s: float, zeta_half: float) -> float:
    """Zeta-regularized ground-state energy zeta_half/(2*l_s).

    ``zeta_half`` is the caller-supplied value of the spectral zeta function
    at -1/2; computing it from an actual spectrum is out of scope here.
    """
    if not 0.0 < l_s < math.inf:
        raise DomainError(f"spectral length must be positive and finite, got {l_s}")
    return zeta_half / (2.0 * l_s)


def unified_trace(thermal: ThermalState, model: CoefficientModel, d: float) -> float:
    """Total trace: thermal trace plus vacuum trace, added exactly."""
    return thermal.trace + vacuum_stress(model, d).trace


def ricci_scalar(total_trace: float, g_newton: float) -> float:
    """Scalar curvature sourced by the trace, -8*pi*G*T."""
    if not 0.0 <= g_newton < math.inf:
        raise DomainError(f"coupling must be nonnegative and finite, got {g_newton}")
    return -8.0 * math.pi * g_newton * total_trace


def trace_report(
    model: CoefficientModel,
    thermal: ThermalState,
    d: float,
    g_newton: float = 1.0,
) -> TraceReport:
    """The trace accounting at separation d, or at every separation of an array.

    With an array, every field but ``thermal_trace`` has the array's shape.
    Raises NumericalError when a column is not finite, as when d^4
    underflows to zero.
    """
    # numpy float division gives inf where Python float division raises.
    x = np.float64(d)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        c = model.value(x)
        stress = _stress(c, model.log_derivative(x), x)
        total = thermal.trace + stress.trace
        report = TraceReport(
            d=d,
            e=c / x**3,
            rho_vac=stress.rho_vac,
            p_perp=stress.p_perp,
            p_parallel=stress.p_parallel,
            vacuum_trace=stress.trace,
            thermal_trace=thermal.trace,
            total_trace=total,
            ricci=ricci_scalar(total, g_newton),
        )
    if not all(np.all(np.isfinite(v)) for v in vars(report).values()):
        raise NumericalError(
            f"trace report is not finite for separations in [{float(np.min(d))!r}, "
            f"{float(np.max(d))!r}]"
        )
    return report
