"""Scalar Casimir energies of planar delta-function plate stacks.

Energies per unit transverse area are computed from the imaginary-wavenumber
scattering representation

    E/A = (1/4 pi^2) * integral_0^inf  kappa^2 ln Delta(kappa) dkappa,

where Delta is the interaction determinant of the stack, normalized so that
Delta -> 1 when all gaps open up.  A single plate of strength lambda
reflects with r(kappa) = lambda/(lambda + 2 kappa) and transmits with
tau = 1 - r = 2 kappa/(lambda + 2 kappa).

Kernel.  ln Delta is built by the Parratt reflection recursion (Parratt,
Phys. Rev. 95, 359 (1954)): growing a stack one plate at a time,

    ln Delta = sum over gaps i of ln(1 - rho_{i+1} R_i e_i),
    R_{i+1}  = rho_{i+1} + tau_{i+1}^2 R_i e_i / (1 - rho_{i+1} R_i e_i),

with rho = -r, e_i = exp(-2 kappa g_i) and R_1 = rho_1.  It runs from both
ends at once, so each step grows both halves of the stack, and the halves
join across the middle gap m by the two-body term ln(1 - R_L R_R e_m)
(Kenneth & Klich, PRB 78, 014103 (2008)); see ``_log_det``.  It is
evaluated in complement form, so no step subtracts nearly equal numbers,
neither as kappa -> 0 nor in the Born limit lambda*g -> 0.  The factors of
a step that do not depend on R are computed ahead, for 32 steps at a time:
those of the gap (e and expm1) per step, and r, tau and tau^2 once per
stack when every plate shares one coupling (a Cantor stack, a mirror pair
of one), else per step.

Rule.  One exp-sinh trapezoid rule (Takahasi & Mori, 1974) on
kappa = x/(2 g_min): x = exp((pi/2) sinh t) at t = k h, h = 1/32 and
k = -144..102 (t from -4.5 to 3.19), 247 nodes.  The kernel runs, in one
pass, on the first 213 (k <= 68): from k = 69 on, exp(-2 kappa g) is 0 in
double precision at every gap, so ln Delta is exactly zero there, and both
sums below still run over all 247 values in the same order.  The error
estimate is the shift against the rule of step 2h on the
even-indexed nodes; a shift above a relative 1e-9 raises NumericalError,
as does a non-finite energy.  The shift is the error of the 2h rule, so it
is a loose bound on the value returned: on stacks whose shift came near
1e-9, the h rule agreed with a rule of step h/8 to 1e-14.

Everything is in units hbar = c = 1; couplings carry dimension 1/length.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DomainError, NumericalError

__all__ = [
    "PlateStack",
    "ExtractionResult",
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
# Every gap is at least g_min, so e = exp(-2 kappa g) <= exp(-2 kappa g_min),
# which underflows to 0 from node _LIVE = 213 (t = 69/32) on: there every
# step has D = 1 and r R e = 0, and ln Delta is exactly zero.
_LIVE = int(np.count_nonzero(np.exp(-2.0 * _KAPPA)))
_TWO_K = 2.0 * _KAPPA[:_LIVE]


class PlateStack:
    """Ordered planar stack: strictly increasing positions, one coupling each.

    The positions are held as a read-only float64 array; a stack from
    ``cantor_stack`` holds them instead as its integer endpoints over one
    denominator, and ``_z`` rounds them to the same floats on each access.
    The couplings are held as a read-only float64 array, or as one float
    when every plate shares the coupling.  The energy functions use these
    as they are; ``positions`` and ``couplings`` are tuples of floats built
    from them on access.  Stacks are immutable, compare equal when their
    positions and couplings are equal, and hash alike then.
    """

    __slots__ = ("_pos", "_lam")

    def __init__(self, positions: Iterable[float], couplings: Iterable[float]):
        z = np.fromiter(positions, dtype=float)
        lam = np.fromiter(couplings, dtype=float)
        if z.size != lam.size:
            raise DomainError(f"{z.size} positions but {lam.size} couplings")
        if not z.size:
            raise DomainError("a stack needs at least one plate")
        if not np.isfinite(z).all():
            raise DomainError(f"positions must be finite, got {tuple(z.tolist())}")
        if not (z[1:] > z[:-1]).all():
            raise DomainError("positions must be strictly increasing")
        if not ((lam > 0.0) & (lam < math.inf)).all():
            raise DomainError(
                f"couplings must be positive and finite, got {tuple(lam.tolist())}"
            )
        if (lam == lam[0]).all():  # a coupling shared by every plate is held once
            lam = float(lam[0])
        else:
            lam.flags.writeable = False
        z.flags.writeable = False
        object.__setattr__(self, "_pos", z)
        object.__setattr__(self, "_lam", lam)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return PlateStack, (self._z, self._lam_per_plate())

    def __repr__(self) -> str:
        return f"PlateStack(positions={self.positions!r}, couplings={self.couplings!r})"

    def __eq__(self, other):
        if not isinstance(other, PlateStack):
            return NotImplemented
        return np.array_equal(self._z, other._z) and np.array_equal(self._lam, other._lam)

    def __hash__(self) -> int:
        return hash((self.positions, self.couplings))

    def __len__(self) -> int:
        pos = self._pos
        return len(pos[0]) if isinstance(pos, tuple) else len(pos)

    @property
    def _z(self) -> np.ndarray:
        """The positions as a read-only float64 array."""
        pos = self._pos
        if not isinstance(pos, tuple):
            return pos
        z = np.array(_round_ends(*pos))
        z.flags.writeable = False
        return z

    def _lam_per_plate(self) -> np.ndarray:
        """The couplings as a read-only array with one entry per plate."""
        return np.broadcast_to(self._lam, len(self))

    @property
    def positions(self) -> tuple[float, ...]:
        return tuple(self._z.tolist())

    @property
    def couplings(self) -> tuple[float, ...]:
        return tuple(self._lam_per_plate().tolist())

    @property
    def gaps(self) -> tuple[float, ...]:
        return tuple(np.diff(self._z).tolist())

    @property
    def min_gap(self) -> float:
        if len(self) < 2:
            raise DomainError("gaps are undefined for a single plate")
        return float(np.diff(self._z).min())

    @property
    def span(self) -> float:
        z = self._z
        return float(z[-1] - z[0])

    def scaled(self, s: float) -> "PlateStack":
        """Geometric rescaling z -> s*z with couplings lambda -> lambda/s."""
        if not 0.0 < s < math.inf:
            raise DomainError(f"scale factor must be positive and finite, got {s}")
        return PlateStack(self._z * s, self._lam_per_plate() / s)

    def translated(self, dz: float) -> "PlateStack":
        return PlateStack(self._z + dz, self._lam_per_plate())


def mirror_pair(stack: PlateStack, gap: float) -> PlateStack:
    """Stack joined with its mirror image, nearest plates separated by ``gap``."""
    if not 0.0 < gap < math.inf:
        raise DomainError(f"gap must be positive and finite, got {gap}")
    z, lam = stack._z, stack._lam_per_plate()
    mirrored = 2.0 * (z[-1] + gap / 2.0) - z[::-1]
    return PlateStack(np.concatenate((z, mirrored)), np.concatenate((lam, lam[::-1])))


@dataclass(frozen=True)
class ExtractionResult:
    """Coefficient curve C(d) = e(d)*d^3 with its log-derivative and trace."""

    d_grid: tuple[float, ...]
    c_values: tuple[float, ...]
    logderivs: tuple[float, ...]
    traces: tuple[float, ...]


_BLOCK = 32  # recursion steps whose gap factors are computed together
# Factors (r, base, re, t2e, tau_em1, taue) of a step that adds no plate;
# P -= -0.0 is P + 0.0, bit for bit.
_IDENTITY = (0.0, 1.0, 0.0, 1.0, -0.0, 1.0)


def _log_d(d: np.ndarray, arg: np.ndarray) -> np.ndarray:
    """ln D from log1p(D - 1) where D - 1 > -1/2 (the Born side), else log(D)."""
    born = arg > -0.5
    out = np.log(d, where=~born, out=np.empty_like(d))
    return np.log1p(arg, where=born, out=out)


def _log_det(gaps: np.ndarray, couplings) -> np.ndarray:
    """ln Delta at the rule's first _LIVE nodes, by the Parratt recursion.

    A chain of plates carries R, its reflection amplitude seen from the side
    it grows towards, and P = 1 + R.  The left chain starts at the first
    plate and adds plates 1..m across gaps 0..m-1; the right chain starts at
    the last plate and adds plates down to m+1 (see ``_grow_chains``).  The
    two meet across the middle gap m = n_gaps // 2 by the two-body term

        D = -expm1(-2 kappa g_m) + e (P_L + P_R |R_L|) = 1 - R_L R_R e,

    with e = exp(-2 kappa g_m), so ln Delta is the sum of ln D over the
    steps of both chains plus ln D of this join.  A pair is the join alone.
    ``couplings`` is an array with one entry per plate, or one float shared
    by every plate.
    """
    two_k = _TWO_K
    n = gaps.size
    if isinstance(couplings, float):
        ends = np.full((2, 1), couplings)
    else:
        ends = couplings[::n, None]  # the first and the last plate
    inv = 1.0 / (ends + two_k)
    refl = -ends * inv  # R of the left chain (row 0) and the right one (row 1)
    comp = two_k * inv  # P = 1 + R
    m = n // 2
    ln_d = _grow_chains(gaps, couplings, two_k, refl, comp) if m else []
    x = -two_k * gaps[m]
    e = np.exp(x)
    (r_left, r_right), (p_left, p_right) = refl, comp
    d_join = -np.expm1(x) + e * (p_left - p_right * r_left)
    return sum(ln_d, _log_d(d_join, -r_left * r_right * e))


def _grow_chains(gaps, couplings, two_k, refl, comp) -> list[np.ndarray]:
    """Grow both chains of ``_log_det`` in place; the sums of ln D per block.

    Adding a plate of reflection r = lam/(lam + 2 kappa) and transmission
    tau = 1 - r across a gap g, with e = exp(-2 kappa g), gives

        D  = -expm1(-2 kappa g) + e (tau + r P) = 1 + r R e
        R <- -r + tau^2 R e / D
        P <- tau (-expm1(-2 kappa g) + e P) / D

    R and P are each updated by sums of same-signed terms: R keeps its
    relative precision on the Born side, where 1 - P would lose it, and P
    keeps its where R -> -1.  Step j adds plate j+1 across gap j to the
    left chain and plate n-1-j across gap n-1-j to the right one, as the two
    rows of (2, nodes) arrays.  The factors of a step (r, D - r e P, r e,
    tau^2 e, tau expm1, tau e) are computed ahead, _BLOCK steps at a time
    so that no temporary outgrows the allocator's small-block range, and
    the logs of a block are taken once its steps are done.  A coupling
    shared by every plate gives r, tau and tau^2 once per call, read off the
    chains' first plates (R = -r, P = tau).  With an odd plate count the
    right chain is one step short; its last step is given the exact
    identity factors.
    """
    n = gaps.size
    m = n // 2
    gap = np.zeros((m, 2, 1))  # by step and chain
    gap[:, 0, 0] = gaps[:m]
    gap[:n - 1 - m, 1, 0] = gaps[n - 1:m:-1]
    shared = isinstance(couplings, float)
    if shared:
        r, tau = -refl, comp.copy()
        tau2 = tau * tau
    else:
        lam = np.zeros_like(gap)
        lam[:, 0, 0] = couplings[1:m + 1]
        lam[:n - 1 - m, 1, 0] = couplings[n - 1:m:-1]
    neg_two_k = -two_k
    d = np.empty((min(m, _BLOCK),) + refl.shape)
    arg = np.empty_like(d)  # D - 1 = r R e, in (-1, 0]
    ln_d = []
    for start in range(0, m, _BLOCK):
        stop = min(start + _BLOCK, m)
        if not shared:
            inv = 1.0 / (lam[start:stop] + two_k)
            r, tau = lam[start:stop] * inv, two_k * inv
            tau2 = tau * tau
        x = neg_two_k * gap[start:stop]
        em1 = np.expm1(x)
        e = np.exp(x, out=x)
        tau_e = tau * e
        # base = tau e - expm1 is -expm1 + tau e, and P -= tau expm1 adds
        # tau (-expm1) = tau (1 - e): negations moved, so the same bits.
        factors = [
            np.broadcast_to(r, e.shape), tau_e - em1, r * e, tau2 * e,
            np.multiply(tau, em1, out=em1), tau_e,
        ]
        if stop == m and n % 2 == 0:
            factors[0] = factors[0].copy()
            for f, one in zip(factors, _IDENTITY):
                f[-1, 1] = one
        for k, (r_k, base, re, t2e, tau_em1, taue) in enumerate(zip(*factors)):
            d_k = np.multiply(re, comp, out=d[k])
            d_k += base
            np.multiply(re, refl, out=arg[k])
            refl *= t2e
            refl /= d_k
            refl -= r_k
            comp *= taue
            comp -= tau_em1
            comp /= d_k
        ln_d.append(_log_d(d[:stop - start], arg[:stop - start]).sum(axis=(0, 1)))
    return ln_d


def _energy(gaps: np.ndarray, couplings) -> float:
    """(1/4 pi^2) int_0^inf kappa^2 ln Delta(kappa) dkappa by the exp-sinh rule.

    The kernel runs on the dimensionless stack, gaps in units of the
    smallest gap g and couplings times g; the energy scales back by 1/g^3.
    A coupling times g above _HARD is a perfect mirror to double precision
    at every node, so it is capped there rather than let overflow to inf.
    Beyond the first _LIVE nodes ln Delta is exactly zero; those entries of
    ``vals`` stay 0.0, so both sums run over all nodes in the same order.
    """
    g = float(np.min(gaps))
    if isinstance(couplings, float):
        lam_g = min(couplings * g, _HARD)
    else:
        with np.errstate(over="ignore"):
            lam_g = np.minimum(couplings * g, _HARD)
    vals = np.zeros(_KAPPA.size)
    np.multiply(_WEIGHTS[:_LIVE], _log_det(gaps / g, lam_g), out=vals[:_LIVE])
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
    return _energy(np.array([d], dtype=float), np.array([lambda1, lambda2], dtype=float))


def stack_energy_per_area(stack: PlateStack) -> float:
    """Interaction energy per area of an N-plate stack (N >= 2).

    The integrand is the log of the full interaction determinant, so all
    two-body and many-body channels are included; a two-plate stack
    reproduces :func:`pair_energy_per_area`.
    """
    if len(stack) < 2:
        raise DomainError("stack energy needs at least two plates")
    return _energy(np.diff(stack._z), stack._lam)


def _ratio(x) -> tuple[int, int]:
    """A finite number x as integers (p, q) with x = p/q exactly."""
    return (int(x), 1) if x == int(x) else float(x).as_integer_ratio()


@lru_cache(maxsize=16)
def _cantor_ends(level: int, p: int, q: int) -> tuple[int, ...]:
    """Endpoints of the level-n Cantor set on [0, 1] with b = p/q, times p**n.

    A child keeps q/p of its parent segment, so the endpoints of level k
    are integers over p**k: [lo, hi] has the children [lo p, lo p + (hi - lo)
    q] and [hi p - (hi - lo) q, hi p].  Stacks of one level and reduction
    share the tuple.
    """
    ends = [0, 1]
    for _ in range(level):
        nxt = []
        for lo, hi in zip(ends[::2], ends[1::2]):
            cut = (hi - lo) * q
            nxt += (lo * p, lo * p + cut, hi * p - cut, hi * p)
        ends = nxt
    return tuple(ends)


def _round_ends(ends: tuple[int, ...], num: int, den: int) -> list[float]:
    """Each k * num / den, rounded once: int / int is correctly rounded."""
    return [k * num / den for k in ends]


def cantor_stack(level: int, outer: float, lam: float, b: float = 3.0) -> PlateStack:
    """Level-n Cantor stack of equal-strength plates on [0, outer].

    Level 0 is the outer pair; each further level keeps the first and last
    1/b of every segment, so level n carries 2**(n+1) plates.  Endpoints are
    generated as exact integer ratios and rounded once at the end, which
    keeps nominally equal positions bit-identical across levels.  The stack
    holds the integers, not the 2**(n+1) floats (see ``PlateStack``).
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

    p, q = _ratio(b)
    ends = _cantor_ends(int(level), p, q)
    num, den = _ratio(outer)
    pos = ends, num, den * p ** int(level)
    stack = PlateStack(_round_ends(*pos), (lam,) * len(ends))  # validates them
    object.__setattr__(stack, "_pos", pos)
    return stack


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

    member = PlateStack(unit._z / governing, (lambda_hat,) * len(unit))
    c = stack_energy_per_area(member)
    zeros = (0.0,) * grid.size
    return ExtractionResult(
        d_grid=tuple(grid.tolist()),
        c_values=(c,) * grid.size,
        logderivs=zeros,
        traces=zeros,
    )
