"""Entropy layer: worked numbers, spectral identities, and property tests.

np.fft appears only as the full-DFT oracle for Parseval; the package side of
that identity is the algebraic N sum p^2 form.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epmodes.circstats import (
    WeightedPhaseSet,
    extract_phases, align, resultant,
)
from epmodes.models import TwoLevelParams, two_level_modes
from epmodes.entropy import (
    HistogramPMF,
    histogram,
    shannon,
    fourier_coeffs,
    value_space_entropy,
    renyi,
    chi_squared,
    entropy_report,
)

TWO_PI = 2.0 * np.pi
N = 720


def pmf(p):
    p = np.asarray(p, dtype=float)
    return HistogramPMF(p.size, p)


def random_pmf(rng, n=N):
    x = rng.random(n) + 1e-9
    return pmf(x / x.sum())


def delta_pmf(n=N, at=0):
    p = np.zeros(n)
    p[at] = 1.0
    return pmf(p)


def uniform_pmf(n=N):
    return pmf(np.full(n, 1.0 / n))


def angles(theta):
    return np.asarray(theta, dtype=float)


def weighted(w):
    # histogram and fourier_coeffs read only a set's weights and total;
    # the angles they bin are passed beside it
    w = np.asarray(w, dtype=float)
    return WeightedPhaseSet(np.zeros(w.size), w)


def unfolded_entropy(s, n_bins=N):
    return shannon(histogram(align(s, n_bins).unfolded, s, n_bins))


# 720 equal-weight samples at the bin centers: the uniform binned set in
# sample form
UNIFORM_THETA = (np.arange(N) + 0.5) * TWO_PI / N


class TestHistogram:
    def test_single_atom(self):
        delta = TWO_PI / N
        p = histogram(angles([delta / 2.0]), weighted([3.0]), N)
        assert p.p[0] == 1.0 and p.p[1:].sum() == 0.0

    def test_two_atoms_opposite(self):
        delta = TWO_PI / N
        p = histogram(angles([delta / 2.0, np.pi + delta / 2.0]),
                      weighted([1.0, 1.0]), N)
        assert p.p[0] == 0.5 and p.p[N // 2] == 0.5

    def test_uniform_fill(self):
        centers = (np.arange(N) + 0.5) * TWO_PI / N
        p = histogram(angles(centers), weighted(np.ones(N)), N)
        assert np.allclose(p.p, 1.0 / N, atol=1e-15)

    def test_pmf_validation(self):
        with pytest.raises(ValueError):
            HistogramPMF(4, np.array([0.5, 0.5, 0.5, -0.5]))
        with pytest.raises(ValueError):
            HistogramPMF(4, np.array([0.3, 0.3, 0.3, 0.3]))

    def test_pushforward_identity(self):
        # doubled mass in theta-bin b equals the phi-bin masses b and b+N
        # on a 2N-bin phi histogram; exact identity, roundoff-level compare
        rng = np.random.default_rng(41)
        phi = rng.random(500) * TWO_PI
        w = rng.random(500) + 0.01
        theta = np.mod(2.0 * phi, TWO_PI)
        p_theta = histogram(angles(theta), weighted(w), N)
        p_phi = histogram(angles(phi), weighted(w), 2 * N)
        combined = p_phi.p[:N] + p_phi.p[N:]
        assert np.allclose(p_theta.p, combined, atol=1e-12)

    def test_pushforward_bin_mapping(self):
        rng = np.random.default_rng(43)
        phi = rng.random(300) * TWO_PI
        tbin = np.floor(np.mod(2.0 * phi, TWO_PI) * N / TWO_PI).astype(int)
        pbin = np.floor(phi * (2 * N) / TWO_PI).astype(int)
        assert np.array_equal(tbin, pbin % N)


class TestShannon:
    def test_delta(self):
        assert shannon(delta_pmf()) == 0.0

    def test_uniform_720(self):
        s = shannon(uniform_pmf())
        assert abs(s - np.log(720.0)) < 1e-12
        assert abs(s - 6.579) < 1e-3

    def test_two_bins(self):
        p = np.zeros(N)
        p[0] = p[N // 2] = 0.5
        assert abs(shannon(pmf(p)) - np.log(2.0)) < 1e-12

    def test_bounds_random(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            s = shannon(random_pmf(rng))
            assert 0.0 <= s <= np.log(N) + 1e-12


class TestUnfolded:
    def test_balanced_real_mode(self):
        s = WeightedPhaseSet(np.array([0.0, np.pi]), np.array([0.5, 0.5]))
        assert abs(unfolded_entropy(s, N) - np.log(2.0)) < 1e-9

    def test_folded_same_input_is_zero(self):
        s = WeightedPhaseSet(np.array([0.0, np.pi]), np.array([0.5, 0.5]))
        a = align(s, N).doubled
        assert shannon(histogram(a, s, N)) == 0.0

    def test_rotation_invariance(self):
        rng = np.random.default_rng(53)
        phi = rng.random(60) * TWO_PI
        w = rng.random(60) + 0.01
        s0 = WeightedPhaseSet(phi, w)
        s1 = WeightedPhaseSet(np.mod(phi + 0.9, TWO_PI), w)
        assert abs(unfolded_entropy(s0, N) - unfolded_entropy(s1, N)) < 1e-12

    def test_degenerate_raises(self):
        # |Z_2| = 0 no longer raises: the alignment is flagged degenerate and
        # the unfolded histogram is the one taken at offset 0
        s = WeightedPhaseSet(np.array([0.0, np.pi / 2.0]),
                             np.array([0.5, 0.5]))
        a = align(s, N)
        assert a.degenerate and a.mu2 == 0.0
        zero = np.mod(s.phases + TWO_PI / N / 2.0, TWO_PI)
        want = shannon(histogram(angles(zero), s, N))
        assert unfolded_entropy(s, N) == want
        assert abs(want - np.log(2.0)) < 1e-12


class TestFourier:
    def test_uniform_binned_vanishes(self):
        F = fourier_coeffs(angles(UNIFORM_THETA), weighted(np.ones(N)), 50)
        assert np.abs(F[1:]).max() < 1e-12
        assert F[0] == 1.0

    def test_two_atom_parity_pattern(self):
        a = angles([0.0, np.pi])
        F = fourier_coeffs(a, weighted([0.5, 0.5]), 50)
        k = np.arange(51)
        want = (1.0 + (-1.0) ** k) / 2.0
        assert np.allclose(np.abs(F), want, atol=1e-12)

    def test_sample_f1_matches_resultant(self):
        rng = np.random.default_rng(59)
        phi = rng.random(80) * TWO_PI
        w = rng.random(80) + 0.01
        s = WeightedPhaseSet(phi, w)
        a = align(s, N).doubled
        F = fourier_coeffs(a, s, 10)
        doubled = WeightedPhaseSet(a, w)
        for k in range(1, 11):
            assert abs(abs(F[k]) - resultant(doubled, k).R_k) < 1e-12

    def test_magnitude_bound(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            theta = rng.random(N) * TWO_PI
            F = fourier_coeffs(angles(theta),
                               weighted(rng.random(N) + 1e-9), 50)
            assert np.all(np.abs(F) <= 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            fourier_coeffs(angles([0.1]), weighted([1.0]), 0)

    @pytest.mark.parametrize("n, K_max", [(1, 400), (7, 400), (300, 50),
                                          (3000, 400), (30000, 50)])
    def test_recurrence_matches_direct_sum(self, n, K_max):
        # the power recurrence drifts by about 1 ulp per multiply, so the
        # gap to the direct sum may grow linearly in k and no faster
        eps = np.finfo(float).eps
        rng = np.random.default_rng(1000 + n)
        theta = rng.random(n) * TWO_PI
        w = rng.random(n) + 1e-3
        s = weighted(w)
        F = fourier_coeffs(angles(theta), s, K_max)
        k = np.arange(1, K_max + 1)
        direct = np.array([np.add.accumulate(
            w * np.exp(-1j * kk * theta))[-1] for kk in k]) / s.total_weight
        assert F[0] == 1.0
        assert np.all(np.abs(F) <= 1.0)
        assert np.all(np.abs(F[1:] - direct) <= 4.0 * k * eps)


class TestValueSpace:
    def test_delta_gives_log_kmax_plus_one(self):
        F = fourier_coeffs(angles([0.3]), weighted([2.0]), 50)
        assert abs(value_space_entropy(F) - np.log(51.0)) < 1e-12

    def test_uniform_gives_zero(self):
        F = fourier_coeffs(angles(UNIFORM_THETA), weighted(np.ones(N)), 50)
        assert value_space_entropy(F) < 1e-10

    def test_two_atom_gives_log_26(self):
        a = angles([0.0, np.pi])
        F = fourier_coeffs(a, weighted([0.5, 0.5]), 50)
        assert abs(value_space_entropy(F) - np.log(26.0)) < 1e-12


class TestRenyi:
    def test_uniform_any_alpha(self):
        for a in (0.5, 1.0, 1.5, 2.0, 3.0):
            assert abs(renyi(uniform_pmf(), a) - np.log(720.0)) < 1e-12

    def test_delta_any_alpha(self):
        for a in (0.5, 1.0, 2.0):
            assert abs(renyi(delta_pmf(), a)) < 1e-15

    def test_three_quarters_example(self):
        p = pmf([0.75, 0.25])
        assert abs(renyi(p, 2.0) - np.log(8.0 / 5.0)) < 1e-12

    def test_alpha_one_takes_shannon_branch(self):
        rng = np.random.default_rng(67)
        p = random_pmf(rng)
        assert renyi(p, 1.0) == shannon(p)
        assert renyi(p, 1.0 + 5e-10) == shannon(p)

    def test_continuity_at_one(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            p = random_pmf(rng)
            h1 = renyi(p, 1.0)
            assert abs(renyi(p, 1.0 + 1e-4) - h1) <= 1e-3
            assert abs(renyi(p, 1.0 - 1e-4) - h1) <= 1e-3

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(73)
        grid = (0.5, 1.0, 1.5, 2.0, 3.0)
        for _ in range(100):
            p = random_pmf(rng)
            vals = [renyi(p, a) for a in grid]
            assert all(vals[i] >= vals[i + 1] - 1e-12
                       for i in range(len(vals) - 1))

    def test_divergence_form(self):
        # H_alpha = ln N - D_alpha(p || uniform), D per its own definition
        rng = np.random.default_rng(79)
        for a in (0.5, 1.5, 2.0, 3.0):
            p = random_pmf(rng)
            u = 1.0 / p.N_bins
            d = np.log(np.sum(p.p**a * u ** (1.0 - a))) / (a - 1.0)
            assert abs(renyi(p, a) - (np.log(p.N_bins) - d)) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            renyi(uniform_pmf(), 0.0)


class TestChiSquared:
    def test_uniform(self):
        # clamped at zero from below; above, fold roundoff leaves ~1e-15
        assert 0.0 <= chi_squared(uniform_pmf()) < 1e-12

    def test_delta(self):
        assert abs(chi_squared(delta_pmf()) - 719.0) < 1e-9

    def test_h2_identity_seeded(self):
        rng = np.random.default_rng(83)
        for _ in range(1000):
            p = random_pmf(rng)
            lhs = renyi(p, 2.0)
            rhs = np.log(p.N_bins) - np.log1p(chi_squared(p))
            assert abs(lhs - rhs) < 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_h2_identity_property(self, seed):
        p = random_pmf(np.random.default_rng(seed), n=240)
        lhs = renyi(p, 2.0)
        rhs = np.log(p.N_bins) - np.log1p(chi_squared(p))
        assert abs(lhs - rhs) < 1e-12

    def test_parseval_against_fft_oracle(self):
        rng = np.random.default_rng(89)
        for _ in range(100):
            p = random_pmf(rng)
            full = np.abs(np.fft.fft(p.p)) ** 2  # |F_k|^2, k = 0..N-1
            lhs = full.sum()
            rhs = p.N_bins * (p.p**2).sum()
            assert abs(lhs - rhs) < 1e-10 * max(1.0, rhs)


class TestEntropyReport:
    def test_real_balanced_mode(self):
        # the antisymmetric eigenvector (1,-1)/sqrt2 is the two-lobe one;
        # its partner (1,1)/sqrt2 is a single-atom phase set
        modes = two_level_modes(TwoLevelParams(0.0, 1.0, 0.0))
        m = next(m for m in modes if m.eigen_k.real < 0.0)
        s = extract_phases(m)
        rep = entropy_report(s)
        assert rep.S_folded == 0.0
        assert abs(rep.S_unfolded - np.log(2.0)) < 1e-9
        assert abs(rep.S_value - np.log(51.0)) < 1e-9
        assert not rep.alignment.degenerate
        assert abs(rep.uncertainty_sum - (rep.S_folded + rep.S_value)) < 1e-15

    def test_ep_mode_flags_degenerate(self):
        m = two_level_modes(TwoLevelParams(0.0, 1.0, 2.0))[0]
        rep = entropy_report(extract_phases(m))
        assert rep.alignment.degenerate
        assert np.isfinite(rep.S_folded)

    def test_renyi_map_keys(self):
        m = two_level_modes(TwoLevelParams(0.4, 1.0, 1.0))[0]
        rep = entropy_report(extract_phases(m), alphas=(1.0, 1.5, 2.0))
        assert set(rep.renyi) == {1.0, 1.5, 2.0}
        assert rep.renyi[1.0] == rep.S_folded
