"""Entropies of the aligned phase distribution and its Fourier side.

All logs are natural (nats). The histogram lives on N_bins equal bins of
[0, 2pi); the Fourier spectrum F_k = integral p(theta) e^{-ik theta} dtheta
is estimated from the weighted aligned samples. Identities used as
cross-checks throughout:

    H_2(p) = ln N - ln(1 + chi^2(p)),   chi^2 = N sum p^2 - 1
    sum_{k=0}^{N-1} |F_k|^2 = N sum_b p_b^2          (full-DFT Parseval)
    H_alpha(p) = ln N - D_alpha(p || uniform)

Every reduction is a strict left fold in index order so that published
numbers reproduce bitwise.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass

from .circstats import WeightedPhaseSet, Alignment, align, fold_sum

# analysis defaults: histogram bins, Fourier cutoff, Renyi orders
N_BINS = 720
K_MAX = 50
ALPHAS = (1.0, 1.5, 2.0)


@dataclass
class HistogramPMF:
    N_bins: int
    p: np.ndarray

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=np.float64)
        if self.N_bins < 2 or self.p.shape != (self.N_bins,):
            raise ValueError("need N_bins >= 2 probabilities")
        if np.any(self.p < 0.0):
            raise ValueError("negative bin mass")
        if abs(float(fold_sum(self.p)) - 1.0) > 1e-12:
            raise ValueError("bin masses must sum to 1")


@dataclass(frozen=True)
class EntropyReport:
    S_folded: float
    S_unfolded: float
    S_value: float
    uncertainty_sum: float
    renyi: dict
    chi_squared: float
    alignment: Alignment  # the mu_2 rotation every entropy was taken under


def histogram(theta: np.ndarray, s: WeightedPhaseSet, N_bins: int
              ) -> HistogramPMF:
    """Accumulate s's weights into bin b = floor(theta / delta) of N_bins,
    normalize by its total weight; theta holds the aligned angles of s."""
    bins = np.floor(theta * N_bins / (2.0 * np.pi)).astype(np.int64)
    bins = np.minimum(bins, N_bins - 1)  # theta may round up to exactly 2pi
    masses = np.zeros(N_bins)
    np.add.at(masses, bins, s.weights)
    return HistogramPMF(N_bins, masses / s.total_weight)


def _shannon_fold(p: np.ndarray) -> float:
    q = p[p > 0.0]
    return -float(fold_sum(q * np.log(q))) + 0.0  # avoid -0.0 on atoms


def shannon(p: HistogramPMF) -> float:
    return _shannon_fold(p.p)


def fourier_coeffs(theta: np.ndarray, s: WeightedPhaseSet, K_max: int
                   ) -> np.ndarray:
    """F_k = sum w e^{-ik theta} / sum w for k = 0..K_max over s's weights
    at the aligned angles theta; F_0 is 1 exactly.

    The terms follow the power recurrence w e^{-ik theta} =
    (w e^{-i(k-1) theta}) e^{-i theta}, with e^{-i theta} taken once. Each
    multiply adds about 1 ulp, so F_k differs from the direct sum by
    |dF_k| <~ k * 2.2e-16.
    """
    if K_max < 1:
        raise ValueError("K_max must be >= 1")
    F = np.zeros(K_max + 1, dtype=np.complex128)
    F[0] = 1.0
    step = np.exp(-1j * theta)
    term = s.weights.astype(np.complex128)  # w e^{-ik theta} at k = 0
    for k in range(1, K_max + 1):
        term *= step
        F[k] = fold_sum(term) / s.total_weight
    over = np.abs(F) > 1.0  # roundoff can overshoot the unit bound by ~1 ulp,
    while over.any():  # and dividing by |F_k| can leave it 1 ulp over again
        F[over] /= np.abs(F[over])
        over = np.abs(F) > 1.0
    return F


def value_space_entropy(F: np.ndarray) -> float:
    """Shannon entropy of q_k = |F_k| / sum |F_k| over k = 0..K_max."""
    mag = np.abs(F)
    return _shannon_fold(mag / float(fold_sum(mag)))


def renyi(p: HistogramPMF, alpha: float) -> float:
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if abs(alpha - 1.0) <= 1e-9:
        return shannon(p)
    q = p.p[p.p > 0.0]
    return float(np.log(fold_sum(q ** alpha))) / (1.0 - alpha) + 0.0


def chi_squared(p: HistogramPMF) -> float:
    # exact algebraic form over the full spectrum; truncation at K_max is a
    # display choice that never enters this identity
    return max(p.N_bins * float(fold_sum(p.p * p.p)) - 1.0, 0.0)


def entropy_report(s: WeightedPhaseSet, N_bins: int = N_BINS,
                   K_max: int = K_MAX, alphas: tuple = ALPHAS) -> EntropyReport:
    """Full scorecard of one phase set.

    A degenerate alignment (R_2 ~ 0, the self-orthogonal regime) takes zero
    offset and flags the report instead of failing: that is exactly the
    regime sweeps need to cross.
    """
    al = align(s, N_bins)
    pmf = histogram(al.doubled, s, N_bins)
    s_folded = shannon(pmf)
    s_value = value_space_entropy(fourier_coeffs(al.doubled, s, K_max))
    return EntropyReport(
        S_folded=s_folded,
        S_unfolded=shannon(histogram(al.unfolded, s, N_bins)),
        S_value=s_value,
        uncertainty_sum=s_folded + s_value,
        renyi={float(a): renyi(pmf, float(a)) for a in alphas},
        chi_squared=chi_squared(pmf),
        alignment=al,
    )
