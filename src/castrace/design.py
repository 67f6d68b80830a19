"""Fabrication-window calculus for finite-level self-similar devices.

A level-n device with outer scale L and reduction factor b resolves features
down to ell_n = L*b**-n.  A probe separation d couples to the self-similar
structure only inside the window ell_n <= d <= L/margin; the margin
parametrizes the "d much smaller than L" requirement (default 10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = ["PrefractalSpec", "min_feature", "in_window", "min_level"]


@dataclass(frozen=True)
class PrefractalSpec:
    """Outer scale, reduction factor and iteration level of a device."""

    outer_scale: float
    reduction: float
    level: int

    def __post_init__(self):
        if not 0.0 < self.outer_scale < math.inf:
            raise DomainError(
                f"outer scale must be positive and finite, got {self.outer_scale}"
            )
        if not 1.0 < self.reduction < math.inf:
            raise DomainError(
                f"reduction factor must be finite and exceed 1, got {self.reduction}"
            )
        if self.level < 0 or self.level != int(self.level):
            raise DomainError(f"level must be a nonnegative integer, got {self.level}")


def min_feature(spec: PrefractalSpec) -> float:
    """Minimal resolved feature size L*b**-n."""
    return spec.outer_scale * spec.reduction ** -float(spec.level)


def check_margin(margin: float) -> None:
    """Reject a window margin that is below 1 or not finite."""
    if not 1.0 <= margin < math.inf:
        raise DomainError(f"margin must be finite and at least 1, got {margin}")


def in_window(spec: PrefractalSpec, d: float, margin: float = 10.0) -> bool:
    """Whether separation d lies in the scaling window ell_n <= d <= L/margin.

    The exact boundary ell_n == d counts as inside.  margin = 1 degenerates
    the upper bound to d <= L.
    """
    if not 0.0 < d < math.inf:
        raise DomainError(f"separation must be positive and finite, got {d}")
    check_margin(margin)
    return min_feature(spec) <= d and d <= spec.outer_scale / margin


def min_level(L: float, d: float, b: float) -> int:
    """Smallest level n whose feature size L*b**-n does not exceed d.

    Equals ceil(ln(L/d)/ln(b)); the ceiling is adjusted so the defining
    inequality holds exactly in floating point even on level boundaries.
    """
    if not (0.0 < L < math.inf and 0.0 < d < math.inf):
        raise DomainError(f"lengths must be positive and finite, got L={L}, d={d}")
    if not 1.0 < b < math.inf:
        raise DomainError(f"reduction factor must be finite and exceed 1, got {b}")
    if d >= L:
        raise DomainError(
            f"no scaling window: separation {d} must lie below the outer scale {L}"
        )
    n = max(0, math.ceil(math.log(L / d) / math.log(b)))
    # Nudge across rounding of the log ratio on exact boundaries.
    while L * b ** -float(n) > d:
        n += 1
    while n > 0 and L * b ** -float(n - 1) <= d:
        n -= 1
    return n
