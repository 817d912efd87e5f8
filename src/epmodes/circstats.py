"""Intensity-weighted circular statistics of complex mode phases.

Phases enter as phi = (atan2(Im psi, Re psi) + 2pi) mod 2pi with weights
|psi|^2; everything downstream (resultants R_k, the doubling map, the
mu_2 alignment, lobe imbalance, probability current) is built to be invariant
under a global phase rotation of the mode.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass, field

from .models import Mode

NODE_CUTOFF = 1e-12  # default for extract_phases


class EmptySet(Exception):
    """No samples survive: nothing to take statistics of."""


def fold_sum(values) -> complex:
    # strict left fold from Python's start value 0, never pairwise or
    # compensated (built-in sum is, from 3.12): bitwise on every interpreter
    return 0 + np.add.accumulate(values)[-1].item()


@dataclass
class WeightedPhaseSet:
    phases: np.ndarray
    weights: np.ndarray
    total_weight: float = field(init=False)

    def __post_init__(self):
        self.phases = np.asarray(self.phases, dtype=np.float64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.phases.shape != self.weights.shape or self.phases.ndim != 1:
            raise ValueError("phases and weights must be equal-length 1-D")
        if self.phases.size == 0:
            raise EmptySet("no phase samples")
        if np.any(self.phases < 0.0) or np.any(self.phases >= 2.0 * np.pi):
            raise ValueError("phases must lie in [0, 2pi)")
        if np.any(self.weights < 0.0):
            raise ValueError("weights must be nonnegative")
        self.total_weight = float(fold_sum(self.weights))
        if not self.total_weight > 0.0:
            raise EmptySet("total weight is zero")


@dataclass(frozen=True)
class Resultant:
    Z_k: complex
    R_k: float
    mu_k: float


@dataclass(frozen=True)
class Alignment:
    """A phase set rotated by its mean doubled direction mu_2.

    Z_2 is taken once, and every rotation below uses its offset. When
    |Z_2| < 1e-12 (the self-orthogonal regime) no doubled direction is
    preferred: the offset is then 0 and `degenerate` is set.
    """

    R2: float
    mu2: float
    degenerate: bool
    doubled: np.ndarray   # (2 phi - mu_2 + D/2) mod 2pi
    unfolded: np.ndarray  # (phi - mu_2/2 + D/2) mod 2pi
    R1: float             # lobe imbalance of phi - mu_2/2


@dataclass(frozen=True)
class CurrentField:
    jx: np.ndarray
    jy: np.ndarray
    h: float

    def magnitude(self) -> np.ndarray:
        return np.sqrt(self.jx**2 + self.jy**2)


def extract_phases(m: Mode,
                   node_cutoff: float = NODE_CUTOFF) -> WeightedPhaseSet:
    """Principal phases and intensity weights, nodal points excluded.

    A sample is kept when its intensity exceeds node_cutoff times the peak
    intensity; the cutoff only needs to guard atan2(0, 0) at true nodes.
    """
    if not (0.0 <= node_cutoff < 1.0):
        raise ValueError("node_cutoff must lie in [0, 1)")
    w = np.abs(m.psi) ** 2
    peak = w.max() if w.size else 0.0
    keep = w > node_cutoff * peak
    if not keep.any():
        raise EmptySet("every sample fell below the node cutoff")
    psi = m.psi[keep]
    phi = np.mod(np.arctan2(psi.imag, psi.real) + 2.0 * np.pi, 2.0 * np.pi)
    return WeightedPhaseSet(phi, w[keep])


def _wrap(angles: np.ndarray) -> np.ndarray:
    """mod 2pi, with the rounding alias at exactly 2pi sent back to 0.

    np.mod of a tiny negative input rounds up to 2pi itself, which is the
    same direction but outside the [0, 2pi) contract.
    """
    out = np.mod(angles, 2.0 * np.pi)
    out[out >= 2.0 * np.pi] = 0.0
    return out


def resultant(s: WeightedPhaseSet, k: int) -> Resultant:
    """Z_k = sum w e^{i k phi} / sum w, accumulated in index order."""
    if k < 1:
        raise ValueError("order k must be >= 1")
    z = fold_sum(s.weights * np.exp(1j * k * s.phases)) / s.total_weight
    return Resultant(complex(z), min(abs(z), 1.0), float(np.angle(z)))


def align(s: WeightedPhaseSet, N_bins: int) -> Alignment:
    """Doubled, unfolded and lobe alignments of s, all by one mu_2.

    The unfolded shift pins the dominant phase pair to bin centers, so an
    ideal two-lobe real mode lands on exactly two bins. The lobe split pins
    it to the real axis, which makes the split rotation-invariant: a global
    phase moves mu_2 along with the samples (up to a half-turn, which only
    swaps the lobes).
    """
    if N_bins < 2:
        raise ValueError("N_bins must be >= 2")
    r2 = resultant(s, 2)
    degenerate = abs(r2.Z_k) < 1e-12
    mu2 = 0.0 if degenerate else r2.mu_k
    delta = 2.0 * np.pi / N_bins
    doubled = _wrap(_wrap(2.0 * s.phases) - mu2 + delta / 2.0)
    unfolded = np.mod(s.phases - mu2 / 2.0 + delta / 2.0, 2.0 * np.pi)
    r1 = lobe_imbalance(_wrap(s.phases - mu2 / 2.0), s.weights)
    return Alignment(r2.R_k, mu2, degenerate, doubled, unfolded, r1)


def lobe_imbalance(phi: np.ndarray, weights: np.ndarray) -> float:
    """R_1 of the two-lobe split: |W+ - W-| / (W+ + W-).

    Lobes are decided on phi itself, so the only samples excluded are the
    exactly representable cos phi = 0 angles pi/2 and 3pi/2.
    """
    half = np.pi / 2.0
    plus = (phi < half) | (phi > 3.0 * half)
    minus = (phi > half) & (phi < 3.0 * half)
    if not plus.any() and not minus.any():
        raise EmptySet("both lobes empty")
    wp = float(fold_sum(weights * plus))
    wm = float(fold_sum(weights * minus))
    return abs(wp - wm) / (wp + wm)


def current_field(m: Mode) -> CurrentField:
    """Probability current j = Im(psi* grad psi) on the interior points.

    Central differences where both of the geometry's `neighbors` are
    interior, one-sided at mask edges, zero where a direction has none.
    """
    g = m.geometry
    if g is None:
        raise ValueError("current is defined on grid modes only")
    h, center, nb = g.h, m.psi, g.neighbors
    out = []
    for f, b in ((nb[1, 0], nb[-1, 0]), (nb[0, 1], nb[0, -1])):
        vf, vb = center[f], center[b]  # index -1 is never selected below
        grad = np.where(
            (f >= 0) & (b >= 0), (vf - vb) / (2.0 * h),
            np.where(f >= 0, (vf - center) / h,
                     np.where(b >= 0, (center - vb) / h, 0.0)))
        out.append((np.conj(center) * grad).imag)
    return CurrentField(out[0], out[1], h)
