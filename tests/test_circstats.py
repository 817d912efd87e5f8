"""Circular-statistics layer: exact small examples plus invariance properties."""

import functools
import operator

import numpy as np
import pytest

from epmodes.models import (
    Mode, TwoLevelParams, CavitySpec, two_level_modes,
    build_ellipse_grid, solve_cavity_modes,
)
from epmodes.circstats import (
    WeightedPhaseSet,
    AlignedAngles,
    EmptySet,
    extract_phases,
    resultant,
    align,
    lobe_imbalance,
    current_field,
    fold_sum,
)
from epmodes.entropy import histogram, shannon
from epmodes.sweep import mode_diagnostics

TWO_PI = 2.0 * np.pi


def make_mode(psi):
    psi = np.asarray(psi, dtype=complex)
    return Mode(None, psi / np.sqrt((np.abs(psi) ** 2).sum()), 1.0, "two_level")


def circ_dist(a, b):
    d = np.abs(np.mod(a - b, TWO_PI))
    return np.minimum(d, TWO_PI - d)


def _bits(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


class TestFoldSum:
    """fold_sum is the strict left fold reduce(add, values, 0) on every
    interpreter; the built-in sum compensates floats from Python 3.12."""

    @pytest.mark.parametrize("kind", ["float", "complex"])
    def test_matches_explicit_left_fold(self, kind):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 17, 1000, 31000):
            a = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
            if kind == "complex":
                a = a + 1j * rng.standard_normal(n)
            want = functools.reduce(operator.add, a.tolist(), 0)
            got = fold_sum(a)
            assert type(got) is type(want)
            assert _bits(got) == _bits(want)

    def test_cancellation_is_not_compensated(self):
        a = np.array([1.0, 1e100, 1.0, -1e100])
        assert fold_sum(a) == 0.0  # a compensated sum gives 2.0

    @pytest.mark.parametrize("values", [[-0.0], [-0.0, -0.0],
                                        [-0.0 - 0.0j, -0.0 - 0.0j],
                                        [0.0, -0.0]])
    def test_signed_zeros(self, values):
        a = np.array(values)
        want = functools.reduce(operator.add, values, 0)
        assert _bits(fold_sum(a)) == _bits(want)


class TestExtractPhases:
    def test_three_sample_example(self):
        s = extract_phases(make_mode([1.0, -2.0, 3.0j]), node_cutoff=0.0)
        assert np.allclose(s.phases, [0.0, np.pi, np.pi / 2.0], atol=1e-15)
        # weights proportional to (1, 4, 9) after normalization
        assert np.allclose(s.weights / s.weights[0], [1.0, 4.0, 9.0],
                           atol=1e-12)

    def test_real_positive_mode(self):
        s = extract_phases(make_mode([0.3, 1.2, 0.5]))
        assert np.all(s.phases == 0.0)

    def test_ep_eigenvector(self):
        s = extract_phases(make_mode([1.0, 1.0j]))
        assert np.allclose(s.phases, [0.0, np.pi / 2.0], atol=1e-15)
        assert np.allclose(s.weights, [0.5, 0.5], atol=1e-15)

    def test_exact_nodes_dropped_at_zero_cutoff(self):
        s = extract_phases(make_mode([1.0, 0.0, 1.0j]), node_cutoff=0.0)
        assert s.phases.shape == (2,)

    def test_cutoff_validation(self):
        m = make_mode([1.0, 1.0])
        with pytest.raises(ValueError):
            extract_phases(m, node_cutoff=1.0)
        with pytest.raises(ValueError):
            extract_phases(m, node_cutoff=-0.1)

    def test_empty_set(self):
        with pytest.raises(EmptySet):
            WeightedPhaseSet(np.array([]), np.array([]))
        with pytest.raises(EmptySet):
            WeightedPhaseSet(np.array([1.0]), np.array([0.0]))

    def test_phase_range_validation(self):
        with pytest.raises(ValueError):
            WeightedPhaseSet(np.array([TWO_PI]), np.array([1.0]))


class TestResultant:
    def test_concentrated_set(self):
        rng = np.random.default_rng(3)
        w = rng.random(10) + 0.1
        s = WeightedPhaseSet(np.full(10, 0.7), w)
        for k in (1, 2, 5):
            assert abs(resultant(s, k).R_k - 1.0) < 1e-12

    def test_two_lobes(self):
        s = WeightedPhaseSet(np.array([0.0, np.pi]), np.array([0.5, 0.5]))
        assert resultant(s, 1).R_k < 1e-15
        assert abs(resultant(s, 2).R_k - 1.0) < 1e-12

    def test_ep_set_r2_zero(self):
        s = WeightedPhaseSet(np.array([0.0, np.pi / 2.0]),
                             np.array([0.5, 0.5]))
        assert resultant(s, 2).R_k < 1e-15

    def test_rotation_invariance(self):
        rng = np.random.default_rng(5)
        phi = rng.random(50) * TWO_PI
        w = rng.random(50) + 0.01
        s = WeightedPhaseSet(phi, w)
        rot = WeightedPhaseSet(np.mod(phi + 1.234, TWO_PI), w)
        for k in (1, 2, 3):
            assert abs(resultant(s, k).R_k - resultant(rot, k).R_k) < 1e-12

    def test_order_validation(self):
        s = WeightedPhaseSet(np.array([0.1]), np.array([1.0]))
        with pytest.raises(ValueError):
            resultant(s, 0)


class TestDoubledAlign:
    def test_real_mode_atom_at_half_bin(self):
        s = WeightedPhaseSet(np.array([0.0, np.pi]), np.array([0.6, 0.4]))
        a = align(s, 720).doubled
        delta = TWO_PI / 720
        # exact up to trig roundoff: sin(2 pi) rounds to ~2e-16, not 0
        assert np.allclose(a.theta_shift, delta / 2.0, atol=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(9)
        phi = rng.random(40) * TWO_PI
        w = rng.random(40) + 0.01
        a0 = align(WeightedPhaseSet(phi, w), 720).doubled
        a1 = align(WeightedPhaseSet(np.mod(phi + 0.37, TWO_PI), w),
                   720).doubled
        assert np.all(circ_dist(a0.theta_shift, a1.theta_shift) < 1e-12)

    def test_ep_set_degenerate(self):
        # at the gamma = 2g EP, |Z_2| = 0: the offset is 0 and flagged, and
        # the row equals the zero-offset folded, unfolded and lobe values
        m = two_level_modes(TwoLevelParams(0.0, 1.0, 2.0))[0]
        s = extract_phases(m)
        a = align(s, 720)
        assert a.degenerate and a.mu2 == 0.0
        half = TWO_PI / 720 / 2.0
        folded = np.mod(np.mod(2.0 * s.phases, TWO_PI) + half, TWO_PI)
        unfolded = np.mod(s.phases + half, TWO_PI)
        row = mode_diagnostics(m)
        assert row.degenerate_alignment
        assert row.R1 == lobe_imbalance(s.phases, s.weights)
        assert row.S_folded == shannon(
            histogram(AlignedAngles(folded, 720), s))
        assert row.S_unfolded == shannon(
            histogram(AlignedAngles(unfolded, 720), s))

    def test_bin_validation(self):
        s = WeightedPhaseSet(np.array([0.1]), np.array([1.0]))
        with pytest.raises(ValueError):
            align(s, 1)


class TestLobeImbalance:
    def test_balanced(self):
        s = WeightedPhaseSet(np.array([0.0, np.pi]), np.array([0.5, 0.5]))
        assert lobe_imbalance(s.phases, s.weights) == 0.0

    def test_unbalanced(self):
        s = WeightedPhaseSet(np.array([0.0, np.pi]), np.array([0.8, 0.2]))
        assert abs(lobe_imbalance(s.phases, s.weights) - 0.6) < 1e-12

    def test_matches_r1_for_two_valued_sets(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = 20
            phi = np.where(rng.random(n) < 0.5, 0.0, np.pi)
            w = rng.random(n) + 0.01
            s = WeightedPhaseSet(phi, w)
            assert abs(lobe_imbalance(s.phases, s.weights)
                       - resultant(s, 1).R_k) < 1e-12

    def test_quarter_turn_excluded(self):
        s = WeightedPhaseSet(np.array([0.0, np.pi / 2.0, np.pi]),
                             np.array([0.5, 7.0, 0.3]))
        assert abs(lobe_imbalance(s.phases, s.weights) - 0.25) < 1e-12

    def test_both_lobes_empty(self):
        s = WeightedPhaseSet(np.array([np.pi / 2.0, 3.0 * np.pi / 2.0]),
                             np.array([1.0, 1.0]))
        with pytest.raises(EmptySet):
            lobe_imbalance(s.phases, s.weights)


@pytest.fixture(scope="module")
def closed_disc_mode():
    s = CavitySpec(epsilon=0.0, mean_radius=1.0, h=0.04)
    return solve_cavity_modes(s, 2.4, 1)[0]


class TestCurrentField:
    def test_real_mode_has_no_current(self, closed_disc_mode):
        m = closed_disc_mode
        j = current_field(m)
        amax = float((np.abs(m.psi) ** 2).max())
        assert j.magnitude().max() <= 1e-8 * amax / m.h

    def test_plane_wave(self):
        # psi = c e^{i kappa x}: both the central and the one-sided stencils
        # give j_x = A^2 sin(kappa h)/h, so kappa A^2 holds to O(h^2)
        kappa = 3.0
        spec = CavitySpec(epsilon=0.0, mean_radius=1.0, h=0.02)
        g = build_ellipse_grid(spec)
        raw = np.exp(1j * kappa * g.pt_x)
        psi = raw / (np.sqrt((np.abs(raw) ** 2).sum()) * g.h)
        m = Mode(g, psi, kappa, f"cavity_{g.spec.variant}")
        j = current_field(m)
        a2 = np.abs(psi) ** 2
        bound = kappa * (kappa * g.h) ** 2 / 4.0
        assert np.all(np.abs(j.jx - kappa * a2) <= bound * a2 + 1e-15)
        assert np.abs(j.jy).max() < 1e-12 * a2.max()

    def test_global_phase_invariance(self, closed_disc_mode):
        m = closed_disc_mode
        rot = Mode(m.geometry, m.psi * np.exp(0.77j), m.eigen_k,
                   m.provenance)
        j0 = current_field(m)
        j1 = current_field(rot)
        scale = float((np.abs(m.psi) ** 2).max()) / m.h
        assert np.abs(j0.jx - j1.jx).max() < 1e-12 * scale
        assert np.abs(j0.jy - j1.jy).max() < 1e-12 * scale

    def test_two_level_rejected(self):
        m = two_level_modes(TwoLevelParams(0.3, 1.0, 0.5))[0]
        with pytest.raises(ValueError):
            current_field(m)


class TestModeIdentities:
    def test_r2_equals_rigidity_magnitude(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            psi = rng.standard_normal(30) + 1j * rng.standard_normal(30)
            m = make_mode(psi)
            s = extract_phases(m)
            direct = abs((m.psi * m.psi).sum()) / (np.abs(m.psi) ** 2).sum()
            assert abs(resultant(s, 2).R_k - direct) < 1e-12

    def test_real_mode_r2_unity(self):
        rng = np.random.default_rng(19)
        psi = rng.standard_normal(40)  # signed real amplitudes
        s = extract_phases(make_mode(psi))
        assert abs(resultant(s, 2).R_k - 1.0) < 1e-12

    def test_global_phase_invariance_of_diagnostics(self):
        rng = np.random.default_rng(21)
        psi = rng.standard_normal(25) + 1j * rng.standard_normal(25)
        a = extract_phases(make_mode(psi))
        b = extract_phases(make_mode(psi * np.exp(1.9j)))
        for k in (1, 2, 4):
            assert abs(resultant(a, k).R_k - resultant(b, k).R_k) < 1e-12
        aa, ab = align(a, 720), align(b, 720)
        assert abs(aa.R1 - ab.R1) < 1e-12
        ta = aa.doubled.theta_shift
        tb = ab.doubled.theta_shift
        assert np.all(circ_dist(ta, tb) < 1e-12)

    def test_aligned_lobes_match_raw_for_real_modes(self):
        s = WeightedPhaseSet(np.array([0.0, np.pi]), np.array([0.8, 0.2]))
        assert abs(align(s, 720).R1
                   - lobe_imbalance(s.phases, s.weights)) < 1e-12
