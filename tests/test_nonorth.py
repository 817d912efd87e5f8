"""Rigidity and Petermann factor checks.

The two-level oracle values come from the closed-form eigenpair computed
with cmath inside the test, never from the package under test.
"""

import cmath

import numpy as np
import pytest

from epmodes.circstats import (
    WeightedPhaseSet, extract_phases, fold_sum, resultant,
)
from epmodes.models import (
    CavitySpec, TwoLevelParams, solve_cavity_modes, two_level_modes,
)
from epmodes.nonorth import (
    PETERMANN_CUTOFF,
    RigidityReport,
    petermann,
    phase_rigidity_cs,
    rigidity_report,
)
from epmodes.models import Mode


def make_mode(psi):
    psi = np.asarray(psi, dtype=np.complex128)
    psi = psi / np.sqrt(np.sum(np.abs(psi) ** 2))
    return Mode(None, psi, 1.0 + 0.0j, "two_level")


def phase_rigidity_biorth(vR, vL):
    """|<vL|vR>| / sqrt(<vR|vR> <vL|vL>), invariant under rescaling either;
    the general biorthogonal form the complex-symmetric one must reduce to."""
    vR = np.asarray(vR, dtype=np.complex128)
    vL = np.asarray(vL, dtype=np.complex128)
    if vR.shape != vL.shape or vR.ndim != 1:
        raise ValueError("vectors must be equal-length 1-D")
    nr = float(fold_sum(np.abs(vR) ** 2))
    nl = float(fold_sum(np.abs(vL) ** 2))
    if not (nr > 0.0 and nl > 0.0):
        raise ValueError("vectors must be nonzero")
    overlap = fold_sum(np.conj(vL) * vR)
    return min(abs(overlap) / np.sqrt(nr * nl), 1.0)


def two_level_oracle(delta, g, gamma):
    """Closed-form lambda_+ and unnormalized eigenvector via cmath."""
    h00 = complex(delta, -gamma)
    mean = (h00 + (-delta)) / 2.0
    lam = mean + cmath.sqrt(((h00 + delta) / 2.0) ** 2 + g * g)
    return lam, np.array([g, lam - h00], dtype=np.complex128)


class TestPhaseRigidityCS:
    def test_hermitian_mode_is_rigid(self):
        for m in two_level_modes(TwoLevelParams(0.3, 1.0, 0.0)):
            assert abs(abs(phase_rigidity_cs(m)) - 1.0) < 1e-12

    def test_ep_mode_is_self_orthogonal(self):
        m = two_level_modes(TwoLevelParams(0.0, 1.0, 2.0))[0]
        assert abs(phase_rigidity_cs(m)) < 1e-15

    def test_detuned_lossy_oracle(self):
        lam, v = two_level_oracle(1.0, 1.0, 2.0)
        want = abs((v @ v) / np.vdot(v, v))
        modes = two_level_modes(TwoLevelParams(1.0, 1.0, 2.0))
        m = min(modes, key=lambda m: abs(m.eigen_k - lam))
        assert abs(m.eigen_k - lam) < 1e-12
        got = abs(phase_rigidity_cs(m))
        assert abs(got - want) < 1e-12
        assert abs(got - 0.924) < 1e-3
        assert abs(petermann(got) - 1.171) < 1e-3

    def test_zero_mode_rejected(self):
        # Mode itself refuses unnormalized fields, so fake the attribute
        class Stub:
            psi = np.zeros(3, dtype=np.complex128)
        with pytest.raises(ValueError):
            phase_rigidity_cs(Stub())


class TestPhaseRigidityBiorth:
    def test_identical_vectors(self):
        v = np.array([1.0 + 2.0j, -0.5j, 0.25])
        assert abs(phase_rigidity_biorth(v, v) - 1.0) < 1e-12

    def test_self_orthogonal_pair(self):
        vr = np.array([1.0, 1.0j])
        assert phase_rigidity_biorth(vr, np.conj(vr)) < 1e-15

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(101)
        vr = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        vl = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        base = phase_rigidity_biorth(vr, vl)
        scaled = phase_rigidity_biorth((7.0 - 3.0j) * vr, 0.01j * vl)
        assert abs(base - scaled) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            phase_rigidity_biorth(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            phase_rigidity_biorth(np.zeros(3), np.ones(3))

    def test_matches_cs_form_on_open_cavity_mode(self):
        # complex-symmetric operator: left eigenvector is conj(v), so the
        # biorthogonal rigidity must reduce to |sum psi^2 / sum |psi|^2|
        spec = CavitySpec(0.1, h=0.04, variant="open",
                          cap_strength=5.0, cap_width=0.2)
        m = solve_cavity_modes(spec, 2.4, 1)[0]
        lhs = phase_rigidity_biorth(m.psi, np.conj(m.psi))
        rhs = abs(phase_rigidity_cs(m))
        assert abs(lhs - rhs) < 1e-12
        assert m.eigen_k.imag < 0.0


class TestPetermann:
    def test_examples(self):
        assert petermann(1.0) == 1.0
        assert petermann(0.5) == 4.0
        assert petermann(0.0) == float("inf")
        assert petermann(PETERMANN_CUTOFF / 10.0) == float("inf")

    def test_validation(self):
        with pytest.raises(ValueError):
            petermann(1.5)
        with pytest.raises(ValueError):
            petermann(-0.1)

    def test_from_r2_real_mode(self):
        s = WeightedPhaseSet(np.array([0.0, np.pi]), np.array([0.5, 0.5]))
        assert abs(petermann(resultant(s, 2).R_k) - 1.0) < 1e-12

    def test_from_r2_ep_set(self):
        s = WeightedPhaseSet(np.array([0.0, np.pi / 2.0]),
                             np.array([0.5, 0.5]))
        assert petermann(resultant(s, 2).R_k) == float("inf")

    def test_routes_agree_on_random_modes(self):
        # K via |sum psi^2| against K via the doubled resultant; same number
        # through two different reductions
        rng = np.random.default_rng(103)
        for _ in range(20):
            psi = rng.standard_normal(40) + 1j * rng.standard_normal(40)
            m = make_mode(psi)
            k_cs = petermann(min(abs(phase_rigidity_cs(m)), 1.0))
            k_r2 = petermann(resultant(extract_phases(m), 2).R_k)
            assert abs(k_cs - k_r2) < 1e-10 * k_cs


class TestRigidityReport:
    def test_consistency_invariant(self):
        rng = np.random.default_rng(107)
        for _ in range(10):
            psi = rng.standard_normal(30) + 1j * rng.standard_normal(30)
            rep = rigidity_report(make_mode(psi))
            if np.isfinite(rep.K):
                assert abs(rep.K * rep.r_abs**2 - 1.0) <= 1e-10

    def test_ep_report_is_flagged_infinite(self):
        m = two_level_modes(TwoLevelParams(0.0, 1.0, 2.0))[0]
        rep = rigidity_report(m)
        assert rep.K == float("inf") and rep.r_abs < 1e-12

    def test_inconsistent_constructor_rejected(self):
        with pytest.raises(ValueError):
            RigidityReport(0.5 + 0.0j, 0.5, 2.0)
        with pytest.raises(ValueError):
            RigidityReport(1.0 + 0.0j, 1.2, 1.0)
        with pytest.raises(ValueError):
            RigidityReport(0.9 + 0.0j, 0.9, 0.5)
        RigidityReport(0.0j, 0.0, float("inf"))  # valid flagged report


class TestLogDerivativeIdentity:
    def test_dlnK_equals_minus_two_dlnR2(self):
        # K := 1/R_2^2 makes this exact; the two sides are still computed
        # through independent routes (rigidity vs circular resultant)
        vals = {}
        for delta in (0.5, 0.6):
            modes = two_level_modes(TwoLevelParams(delta, 1.0, 2.0))
            m = max(modes, key=lambda m: m.eigen_k.real)
            k = rigidity_report(m).K
            r2 = resultant(extract_phases(m), 2).R_k
            vals[delta] = (np.log(k), np.log(r2))
        d_lnk = vals[0.6][0] - vals[0.5][0]
        d_lnr2 = vals[0.6][1] - vals[0.5][1]
        assert abs(d_lnk + 2.0 * d_lnr2) < 1e-10
