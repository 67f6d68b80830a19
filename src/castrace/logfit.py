"""Least-squares decomposition of coefficient curves at a fixed log-period.

The model is C(x) = c0*(1 + sum_k a_k cos(2 pi k x/p) + b_k sin(2 pi k x/p))
with x = ln(d/ell_star).  The period p is pinned by the geometry (p = ln b
for reduction factor b) and never fitted.  The regression is linear in
(c0, c0*a_k, c0*b_k) and solved by normal equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, DomainError, NumericalError
from .trace import CoefficientModel

__all__ = ["FitConfig", "FitResult", "fit_log_periodic"]

_COND_LIMIT = 1e12


@dataclass(frozen=True)
class FitConfig:
    """Fixed period, harmonic cutoff K and crossover length for a fit."""

    period: float
    max_harmonics: int
    ell_star: float = field(default=1.0, kw_only=True)

    def __post_init__(self):
        if not 0.0 < self.period < math.inf:
            raise DomainError(f"period must be positive and finite, got {self.period}")
        if self.max_harmonics < 0:
            raise DomainError(f"max_harmonics must be >= 0, got {self.max_harmonics}")
        if not 0.0 < self.ell_star < math.inf:
            raise DomainError(f"ell_star must be positive and finite, got {self.ell_star}")


@dataclass(frozen=True)
class FitResult:
    """Fitted coefficient model plus residual diagnostics."""

    model: CoefficientModel
    residual_rms: float
    residuals: tuple[float, ...]
    span_warning: bool


def _design_matrix(x: np.ndarray, period: float, harmonics: int) -> np.ndarray:
    cols = [np.ones_like(x)]
    for k in range(1, harmonics + 1):
        phase = 2.0 * math.pi * k * x / period
        cols.append(np.cos(phase))
        cols.append(np.sin(phase))
    return np.column_stack(cols)


def fit_log_periodic(
    x: Sequence[float], c: Sequence[float], cfg: FitConfig
) -> FitResult:
    """Fit C values sampled at log-separations x to the periodic model.

    Needs at least 2K+1 points, all finite (a domain error otherwise).
    Raises a numerical error when the normal equations are singular (all x
    equal, say) or when the fitted base coefficient vanishes under nonzero
    harmonics, which leaves the relative amplitudes undefined.
    """
    x = np.asarray(x, dtype=float)
    c = np.asarray(c, dtype=float)
    if x.shape != c.shape or x.ndim != 1:
        raise ConfigError("x and c must be one-dimensional and equally long")
    if not (np.isfinite(x).all() and np.isfinite(c).all()):
        raise DomainError("x and c must be finite")
    k_max = cfg.max_harmonics
    n_params = 2 * k_max + 1
    if x.size < n_params:
        raise ConfigError(
            f"{x.size} points cannot determine {n_params} parameters (K={k_max})"
        )

    basis = _design_matrix(x, cfg.period, k_max)
    gram = basis.T @ basis
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise NumericalError(
            f"singular normal equations (condition number {cond:.3e})"
        )
    beta = np.linalg.solve(gram, basis.T @ c)

    c0 = float(beta[0])
    amp_scale = float(np.max(np.abs(beta[1:]))) if k_max > 0 else 0.0
    if amp_scale > 0.0 and abs(c0) < 1e-12 * amp_scale:
        raise NumericalError(
            "degenerate normalization: fitted base coefficient is consistent "
            "with zero while harmonics are not"
        )
    if amp_scale == 0.0:
        harmonics = tuple((0.0, 0.0) for _ in range(k_max))
    else:
        harmonics = tuple(
            (float(beta[2 * k - 1]) / c0, float(beta[2 * k]) / c0)
            for k in range(1, k_max + 1)
        )

    residuals = basis @ beta - c
    rms = float(np.sqrt(np.mean(residuals**2)))
    span_warning = k_max >= 1 and float(x.max() - x.min()) < cfg.period
    model = CoefficientModel(
        c0=c0, period=cfg.period, harmonics=harmonics, ell_star=cfg.ell_star
    )
    return FitResult(
        model=model,
        residual_rms=rms,
        residuals=tuple(residuals.tolist()),
        span_warning=span_warning,
    )
