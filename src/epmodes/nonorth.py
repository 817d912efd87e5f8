"""Non-orthogonality diagnostics: phase rigidity and Petermann factor.

For complex-symmetric operators the left eigenvector is the transpose of the
right one, so the rigidity collapses to r = sum psi^2 / sum |psi|^2 and its
magnitude equals the doubled circular resultant R_2 of the phase set. The
Petermann factor K = 1/|r|^2 then carries the same information; near a
self-orthogonal mode it diverges and is flagged as +inf.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass

from .circstats import fold_sum
from .models import Mode

PETERMANN_CUTOFF = 1e-10  # below this |r|, 1/r^2 is declared infinite


@dataclass(frozen=True)
class RigidityReport:
    r_abs: float
    K: float

    def __post_init__(self):
        if not (0.0 <= self.r_abs <= 1.0):
            raise ValueError("r_abs must lie in [0, 1]")
        if np.isfinite(self.K):
            if self.K < 1.0 - 1e-12:
                raise ValueError("Petermann factor below 1")
            if abs(self.K * self.r_abs**2 - 1.0) > 1e-10:
                raise ValueError("K and r_abs are inconsistent")


def phase_rigidity_cs(m: Mode) -> complex:
    """r = sum psi^2 / sum |psi|^2; the grid measure cancels."""
    num = fold_sum(m.psi * m.psi)
    den = float(fold_sum((np.abs(m.psi) ** 2)))
    if not den > 0.0:
        raise ValueError("mode has zero intensity")
    return complex(num / den)


def petermann(r_abs: float) -> float:
    if not (0.0 <= r_abs <= 1.0):
        raise ValueError("r_abs must lie in [0, 1]")
    if r_abs < PETERMANN_CUTOFF:
        return float("inf")
    return 1.0 / (r_abs * r_abs)


def rigidity_report(m: Mode) -> RigidityReport:
    r_abs = min(abs(phase_rigidity_cs(m)), 1.0)
    return RigidityReport(r_abs, petermann(r_abs))
