"""Scalar Casimir energies of planar delta-function plate stacks.

Energies per unit transverse area are computed from the imaginary-wavenumber
scattering representation

    E/A = (1/4 pi^2) * integral_0^inf  kappa^2 ln Delta(kappa) dkappa,

where Delta is the interaction determinant of the stack, normalized so that
Delta -> 1 when all gaps open up.  A single plate of strength lambda
reflects with r(kappa) = lambda/(lambda + 2 kappa) and transmits with
tau = 1 - r = 2 kappa/(lambda + 2 kappa).

Kernel.  ln Delta is built by the Parratt reflection recursion (Parratt,
Phys. Rev. 95, 359 (1954)): growing the stack one plate at a time,

    ln Delta = sum over gaps i of ln(1 - rho_{i+1} R_i e_i),
    R_{i+1}  = rho_{i+1} + tau_{i+1}^2 R_i e_i / (1 - rho_{i+1} R_i e_i),

with rho = -r, e_i = exp(-2 kappa g_i) and R_1 = rho_1.  It is evaluated in
complement form (see ``_log_det``), so no step subtracts nearly equal
numbers, neither as kappa -> 0 nor in the Born limit lambda*g -> 0.

Rule.  One exp-sinh trapezoid rule (Takahasi & Mori, 1974) on
kappa = x/(2 g_min): x = exp((pi/2) sinh t) at t = k h, h = 1/32 and
k = -144..102 (t from -4.5 to 3.19), 247 nodes in one kernel pass.  The
error estimate is the shift against the rule of step 2h on the
even-indexed nodes; a shift above a relative 1e-9 raises NumericalError,
as does a non-finite energy.  The shift is the error of the 2h rule, so it
is a loose bound on the value returned: on stacks whose shift came near
1e-9, the h rule agreed with a rule of step h/8 to 1e-14.

Everything is in units hbar = c = 1; couplings carry dimension 1/length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ConfigError, DomainError, NumericalError

__all__ = [
    "PlateStack",
    "ExtractionResult",
    "reflection_delta",
    "transmission_delta",
    "pair_energy_per_area",
    "stack_energy_per_area",
    "cantor_stack",
    "mirror_pair",
    "extract_coefficient",
]

_FOUR_PI_SQ = 4.0 * math.pi**2
_REL_TOL = 1e-9  # largest relative step-halving shift accepted
_HARD = 1e300  # cap on a coupling times the smallest gap

# Exp-sinh nodes in kappa*g_min = x/2; the weights fold in h, dkappa/dt and
# the kappa^2 of the integrand.  The first index is even, so vals[::2] is the
# rule of step 2h.
_T = np.arange(-144, 103) / 32.0
_KAPPA = 0.5 * np.exp(0.5 * math.pi * np.sinh(_T))
_WEIGHTS = _KAPPA**3 * (0.5 * math.pi / 32.0) * np.cosh(_T)


def reflection_delta(lam: float, kappa: float) -> float:
    """Reflection amplitude lambda/(lambda + 2 kappa) of a single plate.

    Tends to 1 in the hard (Dirichlet) limit lambda -> inf and to 0 for a
    transparent plate.
    """
    if not (0.0 < lam < math.inf and 0.0 < kappa < math.inf):
        raise DomainError(
            f"coupling and wavenumber must be positive and finite, got {lam}, {kappa}"
        )
    return lam / (lam + 2.0 * kappa)


def transmission_delta(lam: float, kappa: float) -> float:
    """Transmission amplitude 2 kappa/(lambda + 2 kappa); r + t = 1."""
    if not (0.0 < lam < math.inf and 0.0 < kappa < math.inf):
        raise DomainError(
            f"coupling and wavenumber must be positive and finite, got {lam}, {kappa}"
        )
    return 2.0 * kappa / (lam + 2.0 * kappa)


@dataclass(frozen=True)
class PlateStack:
    """Ordered planar stack: strictly increasing positions, one coupling each."""

    positions: tuple[float, ...]
    couplings: tuple[float, ...]

    def __post_init__(self):
        positions = tuple(float(z) for z in self.positions)
        couplings = tuple(float(c) for c in self.couplings)
        if len(positions) != len(couplings):
            raise DomainError(
                f"{len(positions)} positions but {len(couplings)} couplings"
            )
        if not positions:
            raise DomainError("a stack needs at least one plate")
        if not all(math.isfinite(z) for z in positions):
            raise DomainError(f"positions must be finite, got {positions}")
        if any(b <= a for a, b in zip(positions, positions[1:])):
            raise DomainError("positions must be strictly increasing")
        if not all(0.0 < c < math.inf for c in couplings):
            raise DomainError(f"couplings must be positive and finite, got {couplings}")
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "couplings", couplings)

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def gaps(self) -> tuple[float, ...]:
        return tuple(b - a for a, b in zip(self.positions, self.positions[1:]))

    @property
    def min_gap(self) -> float:
        if len(self) < 2:
            raise DomainError("gaps are undefined for a single plate")
        return min(self.gaps)

    @property
    def span(self) -> float:
        return self.positions[-1] - self.positions[0]

    def scaled(self, s: float) -> "PlateStack":
        """Geometric rescaling z -> s*z with couplings lambda -> lambda/s."""
        if not 0.0 < s < math.inf:
            raise DomainError(f"scale factor must be positive and finite, got {s}")
        return PlateStack(
            tuple(z * s for z in self.positions),
            tuple(c / s for c in self.couplings),
        )

    def translated(self, dz: float) -> "PlateStack":
        return PlateStack(tuple(z + dz for z in self.positions), self.couplings)


def mirror_pair(stack: PlateStack, gap: float) -> PlateStack:
    """Stack joined with its mirror image, nearest plates separated by ``gap``."""
    if not 0.0 < gap < math.inf:
        raise DomainError(f"gap must be positive and finite, got {gap}")
    pivot = stack.positions[-1] + gap / 2.0
    mirrored = tuple(2.0 * pivot - z for z in reversed(stack.positions))
    return PlateStack(
        stack.positions + mirrored,
        stack.couplings + tuple(reversed(stack.couplings)),
    )


@dataclass(frozen=True)
class ExtractionResult:
    """Coefficient curve C(d) = e(d)*d^3 with its log-derivative and trace."""

    d_grid: tuple[float, ...]
    c_values: tuple[float, ...]
    logderivs: tuple[float, ...]
    traces: tuple[float, ...]


def _log_det(gaps: np.ndarray, couplings: np.ndarray, kappa: np.ndarray) -> np.ndarray:
    """ln Delta(kappa) = sum over gaps of ln(1 - rho_{i+1} R_i e_i).

    R_i is the reflection amplitude of plates 1..i seen from the right,
    rho = -r = -lam/(lam + 2 kappa), tau = 1 + rho and e_i = exp(-2 kappa g_i).
    Both R (negative) and P = 1 + R (positive) are carried, each updated by
    sums of same-signed terms: R keeps its relative precision on the Born
    side, where 1 - P would lose it, and P keeps its where R -> -1.  With
    D = 1 - rho R e,

        D  = -expm1(-2 kappa g) + e (tau + r P)
        R <- -r + tau^2 R e / D
        P <- tau (-expm1(-2 kappa g) + e P) / D

    ln D is log1p(r R e) where D > 1/2 (always so when |R| < 1/2) and log(D)
    elsewhere, so each node takes the form that carries its small quantity.
    """
    two_k = 2.0 * kappa
    inv = 1.0 / (couplings[0] + two_k)
    refl = -couplings[0] * inv
    comp = two_k * inv
    acc = np.zeros_like(kappa)
    for gap, lam in zip(gaps, couplings[1:]):
        inv = 1.0 / (lam + two_k)
        r = lam * inv
        tau = two_k * inv
        x = -two_k * gap
        e = np.exp(x)
        open_ = -np.expm1(x)
        d = open_ + e * (tau + r * comp)
        arg = r * refl * e  # D - 1, in (-1, 0]
        born = arg > -0.5
        # log1p only sees the Born nodes: elsewhere its argument can reach -1.
        acc += np.where(born, np.log1p(np.where(born, arg, 0.0)), np.log(d))
        q = tau / d
        refl = tau * q * refl * e - r
        comp = q * (open_ + e * comp)
    return acc


def _energy(gaps: np.ndarray, couplings: Sequence[float]) -> float:
    """(1/4 pi^2) int_0^inf kappa^2 ln Delta(kappa) dkappa by the exp-sinh rule.

    The kernel runs on the dimensionless stack, gaps in units of the
    smallest gap g and couplings times g; the energy scales back by 1/g^3.
    A coupling times g above _HARD is a perfect mirror to double precision
    at every node, so it is capped there rather than let overflow to inf.
    """
    g = float(np.min(gaps))
    lam_g = np.array([min(float(lam) * g, _HARD) for lam in couplings])
    vals = _WEIGHTS * _log_det(gaps / g, lam_g, _KAPPA)
    fine = float(np.sum(vals))
    coarse = 2.0 * float(np.sum(vals[::2]))
    shift = abs(fine - coarse)
    if not shift <= _REL_TOL * abs(fine):
        raise NumericalError(
            f"exp-sinh rule not converged: halving the step moved the integral "
            f"by {shift:.3e} (allowed {_REL_TOL:.0e} relative); "
            f"values {coarse:.17g} -> {fine:.17g}"
        )
    scale = 1.0 / g
    energy = fine / _FOUR_PI_SQ * scale * scale * scale
    if not math.isfinite(energy):
        raise NumericalError(f"energy per area is not finite: {energy}")
    return energy


def pair_energy_per_area(lambda1: float, lambda2: float, d: float) -> float:
    """Interaction energy per area of two plates a distance d apart.

    The two-plate stack: (1/4 pi^2) int_0^inf kappa^2 ln[1 - r1 r2
    exp(-2 kappa d)] dkappa, always negative for positive couplings.
    """
    if not (0.0 < lambda1 < math.inf and 0.0 < lambda2 < math.inf):
        raise DomainError(
            f"couplings must be positive and finite, got {lambda1}, {lambda2}"
        )
    if not 0.0 < d < math.inf:
        raise DomainError(f"separation must be positive and finite, got {d}")
    return _energy(np.array([d]), (lambda1, lambda2))


def stack_energy_per_area(stack: PlateStack) -> float:
    """Interaction energy per area of an N-plate stack (N >= 2).

    The integrand is the log of the full interaction determinant, so all
    two-body and many-body channels are included; a two-plate stack
    reproduces :func:`pair_energy_per_area`.
    """
    if len(stack) < 2:
        raise DomainError("stack energy needs at least two plates")
    return _energy(np.diff(stack.positions), stack.couplings)


def cantor_stack(level: int, outer: float, lam: float, b: float = 3.0) -> PlateStack:
    """Level-n Cantor stack of equal-strength plates on [0, outer].

    Level 0 is the outer pair; each further level keeps the first and last
    1/b of every segment, so level n carries 2**(n+1) plates.  Endpoints are
    generated as exact rationals and rounded once at the end, which keeps
    nominally equal positions bit-identical across levels.
    """
    if level < 0 or level != int(level):
        raise DomainError(f"level must be a nonnegative integer, got {level}")
    if not 0.0 < outer < math.inf:
        raise DomainError(f"outer scale must be positive and finite, got {outer}")
    if not 0.0 < lam < math.inf:
        raise DomainError(f"coupling must be positive and finite, got {lam}")
    if not 2.0 < b < math.inf:
        raise DomainError(
            "reduction factor must be finite and exceed 2 to leave two disjoint "
            f"children, got {b}"
        )

    shrink = 1 / Fraction(b)
    segments = [(Fraction(0), Fraction(1))]
    for _ in range(int(level)):
        nxt = []
        for lo, hi in segments:
            width = hi - lo
            nxt.append((lo, lo + width * shrink))
            nxt.append((hi - width * shrink, hi))
        segments = nxt

    scale = Fraction(outer)
    endpoints = []
    for lo, hi in segments:
        endpoints.append(float(lo * scale))
        endpoints.append(float(hi * scale))
    return PlateStack(tuple(endpoints), (lam,) * len(endpoints))


def extract_coefficient(
    level: int,
    lambda_hat: float,
    d_grid: Sequence[float],
    gauge: str = "min",
    b: float = 3.0,
) -> ExtractionResult:
    """Dimensionless coefficient C(d) = e(d)*d^3 of a Cantor stack family.

    The member at separation d is the level-n stack rescaled so that its
    governing gap equals d, with every plate carrying lambda = lambda_hat/d.
    The governing gap is the smallest gap for gauge "min" and the full span
    for gauge "outer".  Each member is an exact ``PlateStack.scaled`` copy of
    the member at d = 1, so the family is scale-free by construction: C is
    one number, computed once on that member and repeated over the grid.
    The curve is flat, so its log-derivative dC/dlnd and the integrated
    trace -(dC/dlnd)/d^4 are exactly zero.
    """
    if gauge not in ("min", "outer"):
        raise ConfigError(f"unknown gauge {gauge!r}, expected 'min' or 'outer'")
    if not 0.0 < lambda_hat < math.inf:
        raise DomainError(f"lambda_hat must be positive and finite, got {lambda_hat}")
    grid = np.asarray([float(d) for d in d_grid])
    if grid.size < 3:
        raise ConfigError(
            f"need at least 3 grid points for differencing, got {grid.size}"
        )
    if not np.all((grid > 0.0) & (grid < math.inf)):
        raise DomainError("separations must be positive and finite")
    if np.any(np.diff(grid) <= 0.0):
        raise DomainError("d_grid must be strictly increasing")

    unit = cantor_stack(level, 1.0, 1.0, b)
    governing = unit.min_gap if gauge == "min" else unit.span

    member = PlateStack(
        tuple(z / governing for z in unit.positions), (lambda_hat,) * len(unit)
    )
    c = stack_energy_per_area(member)
    zeros = (0.0,) * grid.size
    return ExtractionResult(
        d_grid=tuple(grid.tolist()),
        c_values=(c,) * grid.size,
        logderivs=zeros,
        traces=zeros,
    )
