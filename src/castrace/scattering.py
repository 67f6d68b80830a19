"""Scalar Casimir energies of planar delta-function plate stacks.

Energies per unit transverse area are computed from the imaginary-wavenumber
scattering representation

    E/A = (1/4 pi^2) * integral_0^inf  kappa^2 ln Delta_int(kappa) dkappa,

where Delta_int is the interaction determinant of the stack: the coefficient
of the growing exponential in the total 2x2 transfer product over the basis
{exp(+kappa z), exp(-kappa z)}, normalized by the isolated single-plate
factors so that Delta_int -> 1 when all gaps open up.  A single plate of
strength lambda reflects with r(kappa) = lambda/(lambda + 2 kappa).

Everything is in units hbar = c = 1; couplings carry dimension 1/length.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate

from .errors import ConfigError, DomainError, NumericalError

__all__ = [
    "PlateStack",
    "QuadratureSpec",
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
_ABS_FLOOR = 1e-300  # keeps the relative convergence test meaningful at E == 0


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
class QuadratureSpec:
    """How the kappa integral is evaluated.

    scheme "fixed" uses a Gauss-Legendre rule on u = exp(-2 kappa g_min)
    with the node count doubled once as a convergence check; "adaptive"
    delegates to a globally adaptive subdivision rule.  When the fixed rule
    fails its own check and ``fallback`` is set, the adaptive rule is tried
    before giving up.  kappa_max truncates the integral at
    kappa_max/min_gap, far beyond the exponential cutoff.
    """

    scheme: str = "fixed"
    nodes: int = 128
    rel_tol: float = 1e-9
    kappa_max: float = 60.0
    fallback: bool = True

    def __post_init__(self):
        if self.scheme not in ("fixed", "adaptive"):
            raise DomainError(f"unknown quadrature scheme {self.scheme!r}")
        if self.nodes < 16:
            raise DomainError(f"need at least 16 nodes, got {self.nodes}")
        if not 0.0 < self.rel_tol < math.inf:
            raise DomainError(f"rel_tol must be positive and finite, got {self.rel_tol}")
        if not 0.0 < self.kappa_max < math.inf:
            raise DomainError(
                f"kappa_max must be positive and finite, got {self.kappa_max}"
            )


@dataclass(frozen=True)
class ExtractionResult:
    """Coefficient curve C(d) = e(d)*d^3 with its log-derivative and trace."""

    d_grid: tuple[float, ...]
    c_values: tuple[float, ...]
    logderivs: tuple[float, ...]
    traces: tuple[float, ...]


_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _GAUSS_CACHE:
        _GAUSS_CACHE[n] = leggauss(n)
    return _GAUSS_CACHE[n]


def _log_det_stack(
    positions: np.ndarray, couplings: np.ndarray, kappa: np.ndarray
) -> np.ndarray:
    """ln Delta_int(kappa) by a normalized 2x2 transfer product.

    Each plate contributes [[1, r], [-r, s]] with r = lam/(lam + 2k) and
    s = (2k - lam)/(2k + lam); each gap contributes diag(1, exp(-2k gap)).
    The product is rescaled by its largest entry after every step, with the
    log accumulated separately, so no entry ever overflows.
    """
    two_k = 2.0 * kappa
    gaps = np.diff(positions)

    lam = couplings[0]
    p00 = np.ones_like(kappa)
    p01 = lam / (lam + two_k)
    p10 = -p01
    p11 = (two_k - lam) / (two_k + lam)
    log_acc = np.zeros_like(kappa)

    for i in range(1, len(positions)):
        lam = couplings[i]
        r = lam / (lam + two_k)
        s = (two_k - lam) / (two_k + lam)
        damp = np.exp(-two_k * gaps[i - 1])
        b10 = damp * p10
        b11 = damp * p11
        q00 = p00 + r * b10
        q01 = p01 + r * b11
        q10 = s * b10 - r * p00
        q11 = s * b11 - r * p01
        scale = np.maximum(
            np.maximum(np.abs(q00), np.abs(q01)),
            np.maximum(np.abs(q10), np.abs(q11)),
        )
        p00 = q00 / scale
        p01 = q01 / scale
        p10 = q10 / scale
        p11 = q11 / scale
        log_acc += np.log(scale)

    if np.any(p00 <= 0.0):
        raise NumericalError("interaction determinant lost positivity")
    return log_acc + np.log(p00)


def _fixed_rule(
    log_det: Callable[[np.ndarray], np.ndarray],
    min_gap: float,
    nodes: int,
    kappa_max: float,
) -> float:
    """Gauss-Legendre energy on the u = exp(-2 kappa min_gap) axis."""
    u_min = math.exp(-2.0 * kappa_max)
    x, w = _gauss_nodes(nodes)
    u = 0.5 * (1.0 + u_min) + 0.5 * (1.0 - u_min) * x
    wu = 0.5 * (1.0 - u_min) * w
    kappa = -np.log(u) / (2.0 * min_gap)
    vals = kappa**2 * log_det(kappa) / (2.0 * min_gap * u)
    return float(np.sum(wu * vals)) / _FOUR_PI_SQ


def _adaptive_rule(
    log_det: Callable[[np.ndarray], np.ndarray],
    min_gap: float,
    quad: QuadratureSpec,
) -> float:
    kappa_cut = quad.kappa_max / min_gap

    def integrand(kappa: float) -> float:
        return kappa**2 * float(log_det(np.array([kappa]))[0])

    # Warnings (roundoff and the like) are not fatal by themselves; the
    # returned error estimate decides whether the result is acceptable.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, abserr = integrate.quad(
            integrand, 0.0, kappa_cut, epsabs=0.0, epsrel=quad.rel_tol, limit=200
        )
    if abserr > 10.0 * quad.rel_tol * max(abs(value), _ABS_FLOOR):
        raise NumericalError(
            f"adaptive quadrature error estimate {abserr:.3e} exceeds "
            f"tolerance for value {value:.17g}"
        )
    return value / _FOUR_PI_SQ


def _energy_integral(
    log_det: Callable[[np.ndarray], np.ndarray],
    min_gap: float,
    quad: QuadratureSpec,
) -> float:
    if quad.scheme == "adaptive":
        return _adaptive_rule(log_det, min_gap, quad)
    coarse = _fixed_rule(log_det, min_gap, quad.nodes, quad.kappa_max)
    fine = _fixed_rule(log_det, min_gap, 2 * quad.nodes, quad.kappa_max)
    shift = abs(fine - coarse)
    allowed = 10.0 * quad.rel_tol * max(abs(fine), abs(coarse), _ABS_FLOOR)
    if shift <= allowed:
        return fine
    if quad.fallback:
        return _adaptive_rule(log_det, min_gap, quad)
    raise NumericalError(
        f"fixed-node quadrature not converged: {quad.nodes} -> {2 * quad.nodes} "
        f"nodes moved the energy by {shift:.3e} (allowed {allowed:.3e}); "
        f"values {coarse:.17g} -> {fine:.17g}"
    )


def pair_energy_per_area(
    lambda1: float,
    lambda2: float,
    d: float,
    quad: QuadratureSpec | None = None,
) -> float:
    """Interaction energy per area of two plates a distance d apart.

    Evaluates (1/4 pi^2) int_0^inf kappa^2 ln[1 - r1 r2 exp(-2 kappa d)]
    dkappa directly from the closed two-body determinant; always negative
    for positive couplings.
    """
    if not (0.0 < lambda1 < math.inf and 0.0 < lambda2 < math.inf):
        raise DomainError(
            f"couplings must be positive and finite, got {lambda1}, {lambda2}"
        )
    if not 0.0 < d < math.inf:
        raise DomainError(f"separation must be positive and finite, got {d}")
    quad = quad or QuadratureSpec()

    def log_det(kappa: np.ndarray) -> np.ndarray:
        two_k = 2.0 * kappa
        r1 = lambda1 / (lambda1 + two_k)
        r2 = lambda2 / (lambda2 + two_k)
        return np.log1p(-r1 * r2 * np.exp(-two_k * d))

    return _energy_integral(log_det, d, quad)


def stack_energy_per_area(stack: PlateStack, quad: QuadratureSpec | None = None) -> float:
    """Interaction energy per area of an N-plate stack (N >= 2).

    The integrand is the log of the full interaction determinant, so all
    two-body and many-body channels are included; a two-plate stack
    reproduces :func:`pair_energy_per_area`.
    """
    if len(stack) < 2:
        raise DomainError("stack energy needs at least two plates")
    quad = quad or QuadratureSpec()
    positions = np.asarray(stack.positions)
    couplings = np.asarray(stack.couplings)

    def log_det(kappa: np.ndarray) -> np.ndarray:
        return _log_det_stack(positions, couplings, kappa)

    return _energy_integral(log_det, stack.min_gap, quad)


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
    quad: QuadratureSpec | None = None,
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
    quad = quad or QuadratureSpec()

    unit = cantor_stack(level, 1.0, 1.0, b)
    governing = unit.min_gap if gauge == "min" else unit.span

    member = PlateStack(
        tuple(z / governing for z in unit.positions), (lambda_hat,) * len(unit)
    )
    c = stack_energy_per_area(member, quad)
    zeros = (0.0,) * grid.size
    return ExtractionResult(
        d_grid=tuple(grid.tolist()),
        c_values=(c,) * grid.size,
        logderivs=zeros,
        traces=zeros,
    )
