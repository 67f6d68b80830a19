"""Reference values the benchmark checks castrace's outputs against.

Nothing here calls castrace.  Energies come from a high-precision mpmath
evaluation that shares neither the kernel nor the quadrature with the engine:
the interaction determinant is built by a reflection recursion instead of a
transfer-matrix product, and the wavenumber integral is done by mpmath's
tanh-sinh rule.  The trace-sector oracles are the closed forms the package
documents, evaluated with numpy.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

EPS = float(np.finfo(float).eps)
ULP64 = 64 * EPS  # tensor-identity tolerance of the acceptance suite
DIGITS_CAP = 15.0
ORACLE_DPS = 30
GUARD_DPS = 5


class CheckFailed(Exception):
    """An output disagrees with its oracle by more than the allowed error."""


def digits(rel_err: float) -> float:
    """-log10 of a relative error, capped at DIGITS_CAP (an exact match)."""
    if rel_err <= 0.0:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(rel_err))


def rel_error(value: float, ref: float) -> float:
    if not math.isfinite(value):
        return math.inf
    if ref == 0.0:
        return abs(value)
    return abs(value - ref) / abs(ref)


def require(rel_err: float, tol: float, what: str) -> float:
    """Return rel_err when it is within tol, else raise CheckFailed."""
    if not rel_err <= tol:
        raise CheckFailed(f"{what}: relative error {rel_err:.3e} exceeds {tol:.1e}")
    return rel_err


def mp_stack_energy(positions, couplings, dps: int = ORACLE_DPS) -> float:
    """Energy per area of a delta-plate stack to about ``dps`` digits.

    ln Delta = sum over gaps of ln(1 - rho_{i+1} R_i e_i), with
    R_{i+1} = rho + tau^2 R e / (1 - rho R e), rho = -lam/(lam + 2 kappa),
    tau = 1 + rho and e = exp(-2 kappa g): the reflection seen from the right
    of plates 1..i, grown one plate at a time.  Guard digits absorb the
    cancellation at small kappa, and the integral is split at multiples of
    1/min_gap where the integrand changes scale.
    """
    with mp.workdps(dps + GUARD_DPS):
        z = [mp.mpf(p) for p in positions]
        lam = [mp.mpf(c) for c in couplings]
        gaps = [b - a for a, b in zip(z, z[1:])]

        def integrand(k):
            if k == 0:
                return mp.mpf(0)
            two_k = 2 * k
            refl = -lam[0] / (lam[0] + two_k)
            acc = mp.mpf(0)
            for lam_next, g in zip(lam[1:], gaps):
                rho = -lam_next / (lam_next + two_k)
                e = mp.exp(-two_k * g)
                denom = 1 - rho * refl * e
                acc += mp.log(denom)
                refl = rho + (1 + rho) ** 2 * refl * e / denom
            return k * k * acc

        g_min = min(gaps)
        cuts = [mp.mpf(0)] + [mp.mpf(s) / g_min for s in (0.25, 1, 4, 16, 64)] + [mp.inf]
        value, err = mp.quad(integrand, cuts, error=True)
        if not abs(err) <= mp.mpf(10) ** (-dps) * abs(value):
            raise CheckFailed(f"oracle quadrature did not reach {dps} digits (err {err})")
        return float(value / (4 * mp.pi**2))


def mp_pair_energy(lambda1: float, lambda2: float, d: float) -> float:
    return mp_stack_energy((0.0, d), (lambda1, lambda2))


def reflected(positions, couplings):
    """Mirror image z -> -z of a stack, re-sorted into increasing order."""
    return tuple(-z for z in reversed(positions)), tuple(reversed(couplings))


def phase_condition(x: np.ndarray, period: float, harmonics) -> float:
    """How much rounding of the phase 2 pi k x/p can move C or dC/dlnd, in ulp.

    Any two correct evaluation orders of the phase differ by about
    eps*|phase|, so closed-form comparisons allow 64 ulp times this factor.
    """
    k = len(harmonics)
    return 1.0 + (2.0 * math.pi * k / period * float(np.max(np.abs(x))) if k else 0.0)


def harmonic_sum(x: np.ndarray, period: float, harmonics) -> tuple[np.ndarray, np.ndarray]:
    """F(x) = 1 + sum a_k cos + b_k sin and dF/dx, vectorised over x."""
    f = np.ones_like(x)
    df = np.zeros_like(x)
    for k, (a, b) in enumerate(harmonics, start=1):
        omega = 2.0 * math.pi * k / period
        phase = omega * x
        f += a * np.cos(phase) + b * np.sin(phase)
        df += omega * (-a * np.sin(phase) + b * np.cos(phase))
    return f, df


def trace_rows_error(
    rows: np.ndarray, c0: float, period: float, harmonics, rho_th: float, d_s: float,
    g_newton: float,
) -> float:
    """Largest error of trace-sweep rows against the closed forms, in units of each row's scale.

    Columns: d, e, rho_vac, p_perp, p_parallel, vacuum_trace, thermal_trace,
    total_trace, ricci.  Checks e = C/d^3, rho = C/d^4, p_par = -rho, the
    trace identity -rho + 2 p_par + p_perp = -(dC/dlnd)/d^4, the thermal trace
    rho_th (3/d_s - 1), the sum and R = -8 pi G T.  Each error is measured
    against the largest term taking part; the pass mark is 64 ulp (the
    tensor-identity tolerance of the acceptance suite) times
    phase_condition.
    """
    d, e, rho, p_perp, p_par, vac, therm, total, ricci = rows.T
    f, df = harmonic_sum(np.log(d), period, harmonics)
    c = c0 * f
    dc = c0 * df
    rhs_trace = -dc / d**4
    scale = np.maximum.reduce([np.abs(rho), np.abs(p_perp), np.abs(rhs_trace)])
    scale_c = abs(c0) * (1.0 + sum(abs(a) + abs(b) for a, b in harmonics))
    thermal_ref = rho_th * (3.0 / d_s - 1.0)
    checks = [
        np.abs(e - c / d**3) / (scale_c / d**3),
        np.abs(rho - c / d**4) / (scale_c / d**4),
        np.abs(p_par + rho) / scale,
        np.abs((-rho + 2.0 * p_par + p_perp) - rhs_trace) / scale,
        np.abs(vac - rhs_trace) / scale,
        np.full_like(d, rel_error(float(therm[0]), thermal_ref) if thermal_ref else abs(therm[0])),
        np.abs(therm - therm[0]),
        np.abs(total - (vac + therm)) / np.maximum(scale, abs(thermal_ref)),
        np.abs(ricci + 8.0 * math.pi * g_newton * total)
        / np.maximum(8.0 * math.pi * g_newton * np.abs(total), np.finfo(float).tiny),
    ]
    return float(max(np.max(c) for c in checks))
