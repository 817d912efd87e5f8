"""Solver layer checked against independent oracles.

numpy.linalg appears here as a cross-check oracle only; the package itself
never calls it. Analytic eigenvalues of the 1-D Dirichlet Laplacian and the
2x2 quadratic formula pin the physics-facing examples.
"""

import ast
import cmath
import inspect
import re
import symtable
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from epmodes import linalg
from epmodes.io import write_sweep_csv
from epmodes.models import (
    CavitySpec, assemble_helmholtz, build_ellipse_grid, parity_reduce)
from epmodes.sweep import SweepConfig, run_sweep
from epmodes.linalg import (
    SparseOperator,
    lu_factor,
    shift_invert_eigs,
    eig2x2,
    hessenberg_eig,
    SingularShift,
    NoConvergence,
)


def norm(v):
    return float(np.sqrt((np.abs(v) ** 2).sum()))


def laplacian_1d(n, h):
    # -(u_{i-1} - 2 u_i + u_{i+1}) / h^2 with Dirichlet ends
    rows, cols, vals = [], [], []
    for i in range(n):
        rows.append(i)
        cols.append(i)
        vals.append(2.0 / h**2)
        if i + 1 < n:
            rows += [i, i + 1]
            cols += [i + 1, i]
            vals += [-1.0 / h**2, -1.0 / h**2]
    return SparseOperator(n, rows, cols, vals)


def from_dense(M):
    M = np.asarray(M, dtype=np.complex128)
    r, c = np.nonzero(M)
    return SparseOperator(M.shape[0], r, c, M[r, c])


def symmetrized(M):
    """The complex-symmetric matrix with M's lower triangle."""
    L = np.tril(M, -1)
    return L + L.T + np.diag(np.diag(M))


def to_dense(A):
    M = np.zeros((A.n, A.n), dtype=np.complex128)
    M[A.rows, A.cols] = A.vals
    return M


def random_banded(rng, n, k, real=False):
    # complex symmetric with half-bandwidth k on both sides
    M = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(max(0, i - k), i + 1):
            M[i, j] = M[j, i] = complex(
                rng.standard_normal(), 0.0 if real else rng.standard_normal())
    return from_dense(M)


class TestSparseOperator:
    def test_apply_matches_dense(self):
        rng = np.random.default_rng(7)
        A = random_banded(rng, 12, 2)
        x = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        assert norm(A.apply(x) - to_dense(A) @ x) < 1e-12 * norm(x)

    @pytest.mark.parametrize("size", [4, 2])
    def test_apply_rejects_wrong_length(self, size):
        # x[cols] would silently drop the tail of a longer vector
        A = SparseOperator(3, [0, 1, 2], [0, 1, 2], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="length"):
            A.apply(np.ones(size))

    def test_duplicate_entries_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseOperator(2, [0, 0], [1, 1], [1.0, 2.0])

    def test_asymmetry_rejected(self):
        # every operator is checked complex symmetric, with no tolerance
        SparseOperator(2, [0, 1], [1, 0], [2.0 + 1j, 2.0 + 1j])
        with pytest.raises(ValueError, match="values are not symmetric"):
            SparseOperator(2, [0, 1], [1, 0], [2.0, 3.0])
        with pytest.raises(ValueError, match="values are not symmetric"):
            SparseOperator(2, [0, 1], [1, 0],
                           [2.0, np.nextafter(2.0, np.inf)])
        with pytest.raises(ValueError, match="pattern is not symmetric"):
            SparseOperator(2, [0], [1], [2.0])
        with pytest.raises(ValueError, match="pattern is not symmetric"):
            SparseOperator(3, [0, 1, 1, 2], [1, 0, 2, 0], [1.0] * 4)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            SparseOperator(1, [0], [0], [np.nan])

    def test_bandwidths(self):
        A = SparseOperator(5, [0, 2, 3, 1, 1], [2, 0, 1, 3, 1], [1.0] * 5)
        assert A.bandwidths() == (2, 2)
        assert SparseOperator(3, [], [], []).bandwidths() == (0, 0)


class TestBandedLU:
    @pytest.mark.parametrize(
        "n,kl,ku,real",
        [(8, 1, 1, False), (30, 3, 3, False), (50, 5, 5, False),
         (40, 4, 4, True), (45, 4, 4, False), (10, 6, 6, False),
         (150, 16, 16, False), (120, 9, 9, True)],
        ids=["8-1-1", "30-3-3", "50-5-5", "40-4-4-real", "45-4-4",
             "10-6-6", "150-16-16", "120-9-9-real"])
    def test_residual_random_systems(self, n, kl, ku, real):
        # real operator with real shift takes the float64 factor path. The
        # replay block is B = min(16, kl + ku) rows: 45-4-4 ends in a partial
        # block, 10-6-6 has n < B, 150-16-16 has B = 16 and ten blocks, and
        # 120-9-9-real runs several blocks on the float64 path.
        rng = np.random.default_rng(n)
        A = random_banded(rng, n, kl, real)
        assert A.bandwidths() == (kl, ku)
        shift = 0.3 if real else 0.3 + 0.2j
        lu = lu_factor(A, shift)
        assert lu._T.dtype == (np.float64 if real else np.complex128)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = lu.solve(b)
        assert norm(A.apply(x) - shift * x - b) < 1e-10 * norm(b)
        # value agreement against the dense oracle
        xo = np.linalg.solve(to_dense(A) - shift * np.eye(n), b)
        assert norm(x - xo) < 1e-8 * norm(xo)

    def test_pivoting_handles_tiny_diagonal(self):
        A = SparseOperator(2, [0, 0, 1, 1], [0, 1, 0, 1],
                           [1e-20, 1.0, 1.0, 1.0])
        x = lu_factor(A).solve(np.array([1.0, 0.0], dtype=complex))
        r = A.apply(x) - np.array([1.0, 0.0])
        assert norm(r) < 1e-12

    def test_pivot_across_block_edge(self):
        # tridiagonal, so blocks of B = 2 rows; row 3, the last of block 1,
        # has a tiny diagonal and a tiny coupling to row 2, so column 3
        # takes its pivot from row 4, the first row of block 2
        n = 8
        M = 4.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
        M[3, 3], M[3, 2], M[2, 3] = 1e-20, 1e-10, 1e-10
        A = from_dense(M)
        lu = lu_factor(A)
        assert lu._perm[1, 0, 1] == 4
        b = np.arange(1.0, n + 1.0) + 0.5j
        x = lu.solve(b)
        assert norm(A.apply(x) - b) < 1e-12 * norm(b)
        xo = np.linalg.solve(M, b)
        assert norm(x - xo) < 1e-12 * norm(xo)
        assert lu.solve(b).tobytes() == x.tobytes()

    def test_singular_shift_raises(self):
        A = SparseOperator(3, [0, 1, 2], [0, 1, 2], [1.0, 2.0, 3.0])
        with pytest.raises(SingularShift):
            lu_factor(A, shift=2.0)

    def test_diagonal_solve(self):
        A = SparseOperator(3, [0, 1, 2], [0, 1, 2], [2.0, 4.0, 8.0])
        x = lu_factor(A).solve(np.array([2.0, 4.0, 8.0], dtype=complex))
        assert np.allclose(x, 1.0)

    @staticmethod
    def lane_lengths(lu):
        nl = lu._Uinv.shape[1]
        return np.bincount(lu._rows // (lu._T.shape[0] // nl), minlength=nl)

    @staticmethod
    def check_solve(lu, M, shift=0.0, tol=1e-10):
        # dense oracle, residual on A, and a bitwise rerun
        n = M.shape[0]
        b = np.arange(1.0, n + 1.0) - 0.5j * np.cos(np.arange(n))
        x = lu.solve(b)
        Ms = M - shift * np.eye(n)
        assert norm(Ms @ x - b) < tol * norm(b)
        xo = np.linalg.solve(Ms, b)
        assert norm(x - xo) < 1e3 * tol * norm(xo)
        assert lu.solve(b).tobytes() == x.tobytes()

    def test_uneven_blocks_factor_as_lanes(self):
        # blocks of 9, 1, 6, 4 and 9 rows each take a lane of their own,
        # padded to 9 rows; the 6-row block pivots
        rng = np.random.default_rng(5)
        sizes = [9, 1, 6, 4, 9]
        n = sum(sizes)
        M = np.zeros((n, n), dtype=complex)
        edges = np.cumsum([0] + sizes)
        for lo, hi in zip(edges[:-1], edges[1:]):
            for i in range(lo, hi):
                for j in range(max(lo, i - 2), min(hi, i + 3)):
                    M[i, j] = complex(rng.standard_normal(),
                                      rng.standard_normal())
                M[i, i] += 6.0
        M = symmetrized(M)
        M[10, 10] = 1e-13  # first column of the 6-row block
        shift = 0.4 - 0.1j
        A = from_dense(M)
        lu = lu_factor(A, shift)
        assert self.lane_lengths(lu).tolist() == [9, 1, 6, 4, 9]
        self.check_solve(lu, M, shift)
        # each block's factored rows equal its own factor's, bit for bit
        for lo, hi in zip(edges[:-1], edges[1:]):
            own = lu_factor(from_dense(M[lo:hi, lo:hi]), shift)
            band = lu._T[lu._rows[lo:hi]]
            width = own._T.shape[1]
            assert band[:, :width].tobytes() == own._T[own._rows].tobytes()
            assert not band[:, width:].any()
            if lo == 10:  # the tiny diagonal takes its pivot from below
                assert own._perm[0, 0, 0] != 0

    def test_singular_shift_names_global_column(self):
        # lanes [5 rows], [4 rows]: the second block's last column (global
        # column 8) has an exact zero pivot, every earlier pivot ties with
        # the entry below it and so stays in place
        M = np.zeros((9, 9))
        M[:5, :5] = 4.0 * np.eye(5) + np.eye(5, k=1) + np.eye(5, k=-1)
        M[5:, 5:] = [[1, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 1]]
        with pytest.raises(SingularShift, match=r"at column 8 "):
            lu_factor(from_dense(M))
        # a later local column in an earlier block still comes first: the
        # first block's last pivot becomes M[4, 4] - 1/d3 = 0, where
        # d3 = 4 - 1/d2 is the pivot before it
        lead = 4.0
        for _ in range(3):
            lead = 4.0 - 1.0 / lead
        M[4, 4] = 1.0 / lead
        with pytest.raises(SingularShift, match=r"at column 4 "):
            lu_factor(from_dense(M))

    def test_swaps_push_fill_past_ku(self):
        # diagonally dominant except at a few rows, whose tiny pivots swap
        # in a row from below and so carry U entries past ku
        rng = np.random.default_rng(9)
        n = 60
        M = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for j in range(max(0, i - 3), i + 1):
                M[i, j] = complex(rng.standard_normal(), rng.standard_normal())
            M[i, i] += 8.0
        M = symmetrized(M)
        for i in (7, 23, 24, 41):
            M[i, i] = 1e-12
        lu = lu_factor(from_dense(M))
        assert lu._T[:, lu.ku:].any()  # U entries past ku
        self.check_solve(lu, M)

    def test_staircase_envelope_with_swaps_past_its_edge(self):
        # two lanes whose rows reach in steps of 6: the first row of a step
        # reaches 8 columns on, the last only 3, so the envelope is narrower
        # than the band. Each step's last row has a weak diagonal, so its
        # column takes the pivot from the next step, whose rows reach 6
        # columns past the envelope's edge.
        rng = np.random.default_rng(27)
        sizes, phases = (40, 37), (0, 3)
        n = sum(sizes)
        M = np.zeros((n, n), dtype=complex)
        lo = 0
        for size, p in zip(sizes, phases):
            for i in range(size):
                edge = min(size - 1, 6 * ((i + p) // 6) - p + 8)
                for j in range(i + 1, edge + 1):
                    M[lo + i, lo + j] = complex(rng.standard_normal(),
                                                rng.standard_normal())
                weak = (i + p) % 6 == 5 and i < size - 1
                M[lo + i, lo + i] = 1e-12 if weak else 10.0 + 1j * i
            lo += size
        M = M + np.triu(M, 1).T
        A = from_dense(M)
        assert A.bandwidths() == (8, 8)
        lu = lu_factor(A)
        assert self.lane_lengths(lu).tolist() == list(sizes)
        assert lu._T[:, lu.ku:].any()  # swapped-up rows reach past ku
        self.check_solve(lu, M)
        real = from_dense(M.real)  # the same swaps on the float64 path
        assert lu_factor(real)._T.dtype == np.float64
        self.check_solve(lu_factor(real), M.real)

    def test_rotated_cavity_factors_as_four_lanes(self):
        from epmodes import models
        for h, lanes in ((0.1, None), (0.02, [1858, 1794, 1821, 1758])):
            spec = models.CavitySpec(0.2798, h=h, variant="open",
                                     cap_strength=8.0, cap_width=0.2)
            geom = models.build_ellipse_grid(spec)
            A = models.parity_reduce(models.assemble_helmholtz(geom, spec),
                                     geom)
            shift = 6.92 ** 2
            lu = lu_factor(A, shift)
            got = self.lane_lengths(lu)
            assert got.size == 4 and got.sum() == A.n
            if lanes is None:  # small enough for the dense oracle
                self.check_solve(lu, to_dense(A), shift)
            else:
                assert got.tolist() == lanes
                b = np.cos(np.arange(A.n)) + 1j
                x = lu.solve(b)
                assert norm(A.apply(x) - shift * x - b) < 1e-10 * norm(b)
                assert lu.solve(b).tobytes() == x.tobytes()


class TestHessenbergEig:
    def test_real_keeps_the_bits_of_a_qr_that_stays_real(self):
        # symmetric tridiagonal: every Wilkinson shift and rotation of the
        # complex QR is real, so the real path returns its values and
        # vectors bit for bit, as float64
        rng = np.random.default_rng(13)
        K = 12
        e = rng.standard_normal(K - 1)
        H = np.diag(rng.standard_normal(K)) + np.diag(e, 1) + np.diag(e, -1)
        evals, vecs = hessenberg_eig(H, 4)
        assert not evals.imag.any() and not vecs.imag.any()
        revals, rvecs = hessenberg_eig(H, 4, real=True)
        assert revals.dtype == rvecs.dtype == np.float64
        assert revals.tobytes() == evals.real.tobytes()
        assert rvecs.tobytes() == vecs.real.tobytes()

    def test_real_projects_complex_ritz_values_onto_the_axis(self):
        # a real H whose pair 1 +- 1e-7 i takes the complex QR off the real
        # axis: the real path returns real values and real unit vectors
        # whose residuals are about the imaginary part it dropped
        H = np.array([[1.0, 1e-7, 0.5], [-1e-7, 1.0, 0.25], [0.0, 0.0, 3.0]])
        assert np.abs(hessenberg_eig(H, 0)[0].imag).max() > 1e-8
        evals, vecs = hessenberg_eig(H, 3, real=True)
        assert evals.dtype == vecs.dtype == np.float64
        assert evals[0] == 3.0
        assert np.abs(evals[1:] - 1.0).max() <= 1e-15
        for k in range(3):
            assert abs(norm(vecs[:, k]) - 1.0) <= 1e-14
            assert norm(H @ vecs[:, k] - evals[k] * vecs[:, k]) <= 2e-7

    def test_real_rejects_a_complex_matrix(self):
        with pytest.raises(ValueError, match="real matrix"):
            hessenberg_eig(np.array([[1.0, 1j], [1.0, 2.0]]), 1, real=True)

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(11)
        K = 30
        H = rng.standard_normal((K, K)) + 1j * rng.standard_normal((K, K))
        H = np.triu(H, -1)  # upper Hessenberg
        evals, vecs = hessenberg_eig(H, K)
        oracle = np.sort_complex(np.linalg.eigvals(H))
        assert np.allclose(np.sort_complex(evals), oracle, atol=1e-8)
        scale = np.abs(H).max()
        for k in range(K):
            r = H @ vecs[:, k] - evals[k] * vecs[:, k]
            assert norm(r) < 1e-8 * scale

    def test_repeated_eigenvalues(self):
        H = np.diag([2.0, 2.0, 5.0]).astype(complex)
        H[0, 1] = 1.0
        evals, vecs = hessenberg_eig(H, 0)
        assert np.allclose(np.sort_complex(evals), [2.0, 2.0, 5.0])
        assert vecs.shape == (3, 0)

    def test_wanted_vectors_against_dense_oracle(self):
        rng = np.random.default_rng(12)
        K = 30
        H = rng.standard_normal((K, K)) + 1j * rng.standard_normal((K, K))
        H = np.triu(H, -1)
        evals, vecs = hessenberg_eig(H, count=3)
        oracle = np.linalg.eigvals(H)
        oracle = oracle[np.argsort(-np.abs(oracle), kind="stable")]
        assert evals.shape == (K,) and vecs.shape == (K, 3)
        assert np.allclose(evals, oracle, rtol=0.0,
                           atol=1e-12 * np.linalg.norm(H, 2))
        for k in range(3):
            assert abs(norm(vecs[:, k]) - 1.0) <= 1e-14
            r = H @ vecs[:, k] - evals[k] * vecs[:, k]
            assert norm(r) <= 1e-12 * np.linalg.norm(H, 2)

    def test_semisimple_double_eigenvalue_gives_orthonormal_pair(self):
        # two copies of one Hermitian tridiagonal block: every eigenvalue is
        # exactly double, with a two-dimensional eigenspace
        B = np.diag([4.0, 3.0, 2.0]).astype(complex)
        B[0, 1], B[1, 2] = 1.0 + 1.0j, 0.5j
        B += np.triu(B, 1).conj().T
        H = np.zeros((6, 6), dtype=complex)
        H[:3, :3] = H[3:, 3:] = B
        lam, Q = np.linalg.eigh(H)
        evals, vecs = hessenberg_eig(H, count=2)
        assert np.allclose(evals[:2], lam[-1], rtol=0.0, atol=1e-13)
        assert np.allclose(np.conj(vecs.T) @ vecs, np.eye(2), atol=1e-12)
        space = Q[:, np.isclose(lam, lam[-1], rtol=0.0, atol=1e-12)]
        assert space.shape == (6, 2)
        overlap = np.conj(space.T) @ vecs
        assert abs(abs(np.linalg.det(overlap)) - 1.0) <= 1e-12

    def test_jordan_block_vectors_have_small_residuals(self):
        # defective: one eigenvector for the double eigenvalue, returned for
        # both copies
        H = np.array([[2.0 + 1.0j, 1.0], [0.0, 2.0 + 1.0j]])
        evals, vecs = hessenberg_eig(H, 2)
        assert np.allclose(evals, 2.0 + 1.0j, rtol=0.0, atol=1e-15)
        for k in range(2):
            assert abs(norm(vecs[:, k]) - 1.0) <= 1e-14
            assert norm(H @ vecs[:, k] - evals[k] * vecs[:, k]) <= 1e-12

    def test_bitwise_repeat(self):
        rng = np.random.default_rng(13)
        H = np.triu(rng.standard_normal((20, 20))
                    + 1j * rng.standard_normal((20, 20)), -1)
        first = hessenberg_eig(H, count=4)
        again = hessenberg_eig(H, count=4)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(first, again))


class TestShiftInvert:
    def test_diagonal_nearest_ordering(self):
        # eigenvalues {1, 2, 10}; the two nearest 1.6 are 2 then 1
        A = SparseOperator(3, [0, 1, 2], [0, 1, 2], [1.0, 2.0, 10.0])
        pairs = shift_invert_eigs(A, 1.6, 2)
        got = [p.eigenvalue for p in pairs]
        assert abs(got[0] - 2.0) < 1e-12
        assert abs(got[1] - 1.0) < 1e-12

    def test_1d_laplacian_analytic(self, monkeypatch):
        h = 1.0 / 100.0
        n = 99
        A = laplacian_1d(n, h)
        monkeypatch.setattr(linalg, "RESIDUAL_TOL", 1e-11)
        pairs = shift_invert_eigs(A, 9.0, 2)
        exact = [(4.0 / h**2) * np.sin(p * np.pi * h / 2.0) ** 2
                 for p in (1, 2)]
        for pair, lam in zip(pairs, exact):
            assert abs(pair.eigenvalue - lam) < 1e-10 * abs(lam)
            assert pair.residual_norm <= 1e-11

    def test_distance_ordering_invariant(self):
        A = laplacian_1d(60, 1.0 / 61.0)
        shift = 200.0
        pairs = shift_invert_eigs(A, shift, 4)
        d = [abs(p.eigenvalue - shift) for p in pairs]
        assert all(d[i] <= d[i + 1] + 1e-12 for i in range(len(d) - 1))

    def test_residuals_and_gauge(self):
        # a real operator, and a complex-symmetric one: the parity-reduced
        # open cavity, whose modes are not rotated real vectors
        spec = CavitySpec(0.1, h=0.1, variant="open", cap_strength=5.0)
        geom = build_ellipse_grid(spec)
        cavity = parity_reduce(assemble_helmholtz(geom, spec), geom)
        for A, shift, real in ((laplacian_1d(40, 1.0 / 41.0), 50.0, True),
                               (cavity, 2.4 ** 2, False)):
            for p in shift_invert_eigs(A, shift, 3):
                assert p.residual_norm <= 1e-10
                v = p.eigenvector
                assert abs(norm(v) - 1.0) < 1e-12
                assert abs(cmath.phase((v * v).sum())) <= 1e-12
                top = v[int(np.argmax(np.abs(v)))]
                assert top.real > 0
                if real:
                    assert not v.imag.any()
                else:
                    assert np.abs(v.imag).max() > 1e-5

    def test_gauge_ignores_incoming_phase_and_scale(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            c = rng.standard_normal() + 1j * rng.standard_normal()
            g = linalg._unit_gauge(v)
            assert abs(norm(g) - 1.0) < 1e-14
            assert abs(cmath.phase((g * g).sum())) <= 1e-12
            assert g[int(np.argmax(np.abs(g)))].real > 0
            assert norm(linalg._unit_gauge(c * v) - g) < 1e-14

    def test_self_orthogonal_vector_keeps_largest_entry_gauge(self):
        # sum v^2 = 0 fixes no phase: the first largest entry goes real
        got = linalg._unit_gauge(np.array([1.0, 1.0j]) * (2.0 - 3.0j))
        assert norm(got - np.array([1.0, 1.0j]) / np.sqrt(2.0)) < 1e-15

    def test_complex_symmetric_two_level(self):
        # [[1-2i, 1], [1, -1]]: quadratic-formula oracle
        A = SparseOperator(2, [0, 0, 1, 1], [0, 1, 0, 1],
                           [1.0 - 2.0j, 1.0, 1.0, -1.0])
        pairs = shift_invert_eigs(A, 1.0 - 1.0j, 2)
        mean, d = (1.0 - 2.0j - 1.0) / 2.0, (1.0 - 2.0j + 1.0) / 2.0
        s = cmath.sqrt(d * d + 1.0)
        oracle = sorted([mean + s, mean - s],
                        key=lambda z: abs(z - (1.0 - 1.0j)))
        for pair, lam in zip(pairs, oracle):
            assert abs(pair.eigenvalue - lam) < 1e-10
        # the root with positive real part sits near 1.27202 - 1.78615i
        plus = max((p.eigenvalue for p in pairs), key=lambda z: z.real)
        assert abs(plus - (1.27202 - 1.78615j)) < 5e-6

    def test_bitwise_deterministic(self):
        A = laplacian_1d(80, 1.0 / 81.0)
        a = shift_invert_eigs(A, 120.0, 3)
        b = shift_invert_eigs(A, 120.0, 3)
        for pa, pb in zip(a, b):
            assert pa.eigenvalue == pb.eigenvalue
            assert pa.eigenvector.tobytes() == pb.eigenvector.tobytes()

    def test_krylov_cap_names_itself_and_its_solves(self, monkeypatch):
        # the whole 3-dimensional space is spanned after 3 solves; no
        # residual meets a bound of 1e-300, and the error names the cap it
        # hit
        A = SparseOperator(3, [0, 1, 2], [0, 1, 2], [1.0, 2.0, 10.0])
        monkeypatch.setattr(linalg, "RESIDUAL_TOL", 1e-300)
        with pytest.raises(NoConvergence) as info:
            shift_invert_eigs(A, 1.6, 2)
        assert "Krylov cap" in str(info.value)
        assert "after 3 solves" in str(info.value)
        assert info.value.max_iter == 3
        assert np.isfinite(info.value.best_residual)
        assert info.value.best_residual >= 0.0

    def test_krylov_cap_after_the_basis_grows(self, monkeypatch):
        # the basis starts at K + 1 = 9 rows and doubles twice to reach the
        # cap of 30 vectors; the cap exit still counts every solve
        monkeypatch.setattr(linalg, "RESIDUAL_TOL", 1e-300)
        with pytest.raises(NoConvergence) as info:
            shift_invert_eigs(laplacian_1d(30, 1.0 / 31.0), 9.0, 2)
        assert "Krylov cap of 30 vectors after 30 solves" in str(info.value)
        assert info.value.max_iter == 30

    def test_no_convergence_message_is_its_reason(self):
        # every raise names the limit it reached; there is no default text
        err = NoConvergence(17, 1e-3, "stub limit reached")
        assert (err.max_iter, err.best_residual) == (17, 1e-3)
        assert str(err) == "stub limit reached"
        with pytest.raises(TypeError):
            NoConvergence(17, 1e-3)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_measures_only_the_wanted_ritz_vectors(self, monkeypatch, m):
        # each convergence check applies A once per pair it can return
        calls = {"apply": 0, "check": 0}
        apply, eig = SparseOperator.apply, linalg.hessenberg_eig

        def counted_apply(self, x):
            calls["apply"] += 1
            return apply(self, x)

        def counted_eig(H, *args, **kwargs):
            calls["check"] += 1
            return eig(H, *args, **kwargs)

        monkeypatch.setattr(SparseOperator, "apply", counted_apply)
        monkeypatch.setattr(linalg, "hessenberg_eig", counted_eig)
        monkeypatch.setattr(linalg, "RESIDUAL_TOL", 1e-11)
        pairs = shift_invert_eigs(laplacian_1d(99, 1.0 / 100.0), 9.0, m)
        assert len(pairs) == m and calls["check"] >= 1
        assert calls["apply"] == m * calls["check"]

    def test_argument_validation(self):
        A = SparseOperator(2, [0, 1], [0, 1], [1.0, 2.0])
        with pytest.raises(ValueError):
            shift_invert_eigs(A, 0.0, 0)
        with pytest.raises(ValueError):
            shift_invert_eigs(A, 0.0, 3)


class TestEig2x2:
    def test_exceptional_point(self):
        # [[-2i, 1], [1, 0]]: double eigenvalue -i, single eigenvector (1, i)
        pairs = eig2x2([[-2.0j, 1.0], [1.0, 0.0]])
        target = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        for p in pairs:
            assert p.degenerate
            assert abs(p.eigenvalue - (-1.0j)) < 1e-12
            # self-orthogonal: no phase makes sum v^2 real positive, so the
            # gauge falls back to the first largest entry real positive
            assert abs((p.eigenvector ** 2).sum()) < 1e-12
            assert norm(p.eigenvector - target) < 1e-12

    def test_two_level_detuned(self):
        pairs = eig2x2([[1.0 - 2.0j, 1.0], [1.0, -1.0]])
        plus = max(pairs, key=lambda p: p.eigenvalue.real)
        assert abs(plus.eigenvalue - (1.27202 - 1.78615j)) < 5e-6
        assert not pairs[0].degenerate

    def test_identity_degenerate(self):
        pairs = eig2x2(np.eye(2))
        assert pairs[0].degenerate and pairs[1].degenerate
        assert np.array_equal(pairs[0].eigenvector, pairs[1].eigenvector)

    def test_matches_shift_invert(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            M = symmetrized(rng.standard_normal((2, 2))
                            + 1j * rng.standard_normal((2, 2)))
            direct = sorted(eig2x2(M), key=lambda p: abs(p.eigenvalue - 0.37))
            A = from_dense(M)
            arn = shift_invert_eigs(A, 0.37, 2)
            for d, a in zip(direct, arn):
                assert abs(d.eigenvalue - a.eigenvalue) < 1e-8
                assert norm(d.eigenvector - a.eigenvector) < 1e-6

    def test_quadratic_formula_oracle_random(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            mean = (M[0, 0] + M[1, 1]) / 2.0
            s = cmath.sqrt(((M[0, 0] - M[1, 1]) / 2.0) ** 2 + M[0, 1] * M[1, 0])
            want = sorted([mean + s, mean - s], key=lambda z: (z.real, z.imag))
            got = sorted((p.eigenvalue for p in eig2x2(M)),
                         key=lambda z: (z.real, z.imag))
            assert all(abs(a - b) < 1e-12 for a, b in zip(got, want))
            for p in eig2x2(M):
                assert p.residual_norm < 1e-12 * max(1.0, np.abs(M).max())


def _traced(f, *args):
    """(f(*args), the most bytes f held at once beyond what was live, the
    bytes it still held once it returned)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = f(*args)
        now, peak = tracemalloc.get_traced_memory()
        return out, peak - before, now - before
    finally:
        tracemalloc.stop()


def _traced_peak(f, *args):
    """(f(*args), the most bytes f held at once beyond what was live)."""
    return _traced(f, *args)[:2]


def test_cavity_solve_allocates_only_what_it_keeps(monkeypatch):
    # criterion 6's h = 1/50 point (n = 7125, four lanes of kl = ku = 35);
    # tracemalloc counts numpy's data buffers
    spec = CavitySpec(0.300, h=0.02, variant="open", cap_strength=1.0)
    geom = build_ellipse_grid(spec)
    op = assemble_helmholtz(geom, spec)
    geom.parity_basis  # cached on the geometry, not the reduction's
    shift = 8.015 ** 2
    red, peak = _traced_peak(parity_reduce, op, geom)
    # the result's sort and symmetry check take about 100 B per entry of A
    # and one contribution per entry of a representative row about 90 B;
    # the 4 nnz contributions of every row would take about 4x that
    assert peak <= 200 * op.rows.size
    lu, peak = _traced_peak(lu_factor, red, shift)
    kl, ku = red.bandwidths()
    band = lu._T.shape[0] * (2 * kl + ku + 1) * lu._T.itemsize
    # one band at a time beside the L panels and U blocks, plus index
    # arrays and column-loop slices
    assert peak <= band + lu._L.nbytes + lu._Uinv.nbytes + 2**20
    monkeypatch.setattr(linalg, "lu_factor", lambda A, s: lu)
    _, peak = _traced_peak(shift_invert_eigs, red, shift, 2)
    # K + 1 = 9 basis rows, a Gram-Schmidt product of as many, the few
    # vectors of a solve and a residual, and the (cap + 1) x cap Hessenberg
    assert peak <= 40 * 16 * red.n + 201 * 200 * 16


def test_cavity_factor_keeps_and_peaks_under_its_pins():
    # criterion 6's h = 1/50 point: 16-row blocks keep L's panels at 6.0 MB
    # and U's inverted blocks at 1.9 MB, and the column loop's band is the
    # peak (with 32-row blocks the factor kept 17.5 MiB and peaked at
    # 21.3 MiB; 16-row blocks keep 13.8 and peak at 19.0)
    spec = CavitySpec(0.300, h=0.02, variant="open", cap_strength=1.0)
    geom = build_ellipse_grid(spec)
    red = parity_reduce(assemble_helmholtz(geom, spec), geom)
    _, peak, kept = _traced(lu_factor, red, 8.015 ** 2)
    assert kept <= 15 * 2**20
    assert peak <= 19.5 * 2**20


@pytest.mark.parametrize("invert", ["_invert_unit_lower", "_invert_upper"])
def test_block_inverses_match_dense_in_bounded_chunks(invert):
    # more blocks than ten chunks, and a partial last chunk: the inverses
    # match the dense oracle, and the temporaries stay a few chunks' size
    rng = np.random.default_rng(14)
    B, count = 16, 10 * linalg._CHUNK + 3
    blocks = (rng.standard_normal((count, B, B))
              + 1j * rng.standard_normal((count, B, B)))
    if invert == "_invert_unit_lower":
        blocks = 0.25 * np.tril(blocks, -1)
        want = np.linalg.inv(blocks + np.eye(B))
    else:
        blocks = np.triu(blocks) + 4.0 * np.eye(B)
        want = np.linalg.inv(blocks)
    _, peak = _traced_peak(linalg._invert_blocks, blocks,
                           getattr(linalg, invert))
    assert np.abs(blocks - want).max() <= 1e-12 * np.abs(want).max()
    assert peak <= 4 * linalg._CHUNK * B * B * blocks.itemsize


def _hook(frame, event, arg):
    return _hook


def _under(setter, f, *args):
    """f(*args) with a profile or trace hook set, the old hook restored."""
    getter = sys.getprofile if setter is sys.setprofile else sys.gettrace
    old = getter()
    setter(_hook)
    try:
        return f(*args)
    finally:
        setter(old)


@pytest.mark.parametrize("setter", [sys.setprofile, sys.settrace],
                         ids=["setprofile", "settrace"])
def test_factor_is_the_same_under_a_profiler(setter):
    # a profiler or tracer holds the bound buf.resize, one more reference
    # to the factor's buffer: the shrink must not count it as a view
    spec = CavitySpec(0.300, h=0.02, variant="open", cap_strength=1.0)
    geom = build_ellipse_grid(spec)
    red = parity_reduce(assemble_helmholtz(geom, spec), geom)
    want = lu_factor(red, 8.015 ** 2)
    got = _under(setter, lu_factor, red, 8.015 ** 2)
    for name in ("_T", "_L", "_Uinv", "_perm"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


@pytest.mark.parametrize("setter", [sys.setprofile, sys.settrace],
                         ids=["setprofile", "settrace"])
def test_sweep_csv_is_the_same_under_a_profiler(setter, tmp_path):
    cfg = SweepConfig("cavity", [0.10, 0.11], m=2, h=0.1, k_target=2.5)
    write_sweep_csv(run_sweep(cfg), tmp_path / "plain.csv", False)
    write_sweep_csv(_under(setter, run_sweep, cfg), tmp_path / "hooked.csv",
                    False)
    assert (tmp_path / "hooked.csv").read_bytes() \
        == (tmp_path / "plain.csv").read_bytes()


def test_src_never_names_numpy_linalg():
    # the package solves everything itself; numpy.linalg is a test oracle only
    src = Path(__file__).resolve().parent.parent / "src"
    named = re.compile(r"\b(?:np|numpy)\.linalg\b"
                       r"|\bfrom\s+numpy\s+import\b.*\blinalg\b")
    hits = [f"{path.relative_to(src)}:{i}"
            for path in sorted(src.rglob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if named.search(line)]
    assert hits == []


# correlate and convolve use the dtype's BLAS-backed dot, cov and corrcoef
# call dot, and polyfit calls lstsq
_DENSE_CALLS = {"dot", "matmul", "einsum", "tensordot", "vdot", "inner",
                "convolve", "correlate", "cov", "corrcoef", "polyfit",
                "vecdot", "matvec", "vecmat"}
_DENSE_MODULES = ("numpy.linalg", "numpy.fft")


def _dense_linear_algebra(tree):
    """(line, what) for each numpy.linalg or numpy.fft access, each @ and
    each call of a BLAS-backed product in a parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Attribute) \
                and f"{getattr(node.value, 'id', '')}.{node.attr}" in (
                    "np.linalg", "np.fft", *_DENSE_MODULES):
            yield node.lineno, node.attr
        elif isinstance(node, ast.Import) and any(
                alias.name.startswith(_DENSE_MODULES) for alias in node.names):
            yield node.lineno, "import"
        elif isinstance(node, ast.ImportFrom) and not node.level and any(
                f"{node.module}.{alias.name}".startswith(_DENSE_MODULES)
                for alias in node.names):
            yield node.lineno, "import"
        elif isinstance(node, ast.Call) and _DENSE_CALLS & {
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None)}:
            yield node.lineno, "call"


def test_src_uses_no_dense_linear_algebra():
    # every product is a broadcast multiply and an explicit sum: no
    # numpy.linalg or numpy.fft, no matmul operator and no BLAS-backed call
    pkg = Path(__file__).resolve().parent.parent / "src" / "epmodes"
    hits = [f"{path.name}:{line} {what}"
            for path in sorted(pkg.glob("*.py"))
            for line, what in _dense_linear_algebra(
                ast.parse(path.read_text()))]
    assert hits == []
    planted = ast.parse("import numpy.fft\nfrom numpy import linalg\n"
                        "y = a @ b\nz = np.einsum('i,i', a, b)\n"
                        "w = numpy.linalg.norm(a)\nv = a.dot(b)\n"
                        "from numpy.linalg import eig\nu = np.outer(a, b)\n"
                        "from . import linalg\n"
                        "t = np.convolve(a, b)\nt = np.correlate(a, b)\n"
                        "t = np.cov(a)\nt = np.corrcoef(a, b)\n"
                        "t = np.polyfit(x, y, 2)\nt = np.vecdot(a, b)\n"
                        "t = np.matvec(m, a)\nt = np.vecmat(a, m)\n")
    assert sorted(line for line, _ in _dense_linear_algebra(planted)) == [
        1, 2, 3, 4, 5, 6, 7, *range(10, 18)]


def _open_calls(tree):
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and "open" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None))}


def test_only_io_opens_files():
    # io.read_text and io.write_text own file access: its encoding, its line
    # ends and its error wording
    pkg = Path(__file__).resolve().parent.parent / "src" / "epmodes"
    calls = {(path.name, ln) for path in sorted(pkg.glob("*.py"))
             for ln in _open_calls(ast.parse(path.read_text()))}
    owned = {("io.py", ln)
             for fn in ast.parse((pkg / "io.py").read_text()).body
             if isinstance(fn, ast.FunctionDef)
             and fn.name in ("read_text", "write_text")
             for ln in _open_calls(fn)}
    assert len(owned) == 2 and calls == owned


def test_no_string_constant_holds_a_carriage_return():
    # io.read_text reads each line end as \n, so no reader splits at \r
    pkg = Path(__file__).resolve().parent.parent / "src" / "epmodes"
    hits = [f"{path.name}:{node.lineno}"
            for path in sorted(pkg.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str) and "\r" in node.value]
    assert hits == []


def test_package_binds_only_submodules():
    # names are imported from their modules; `import epmodes` just loads them
    init = Path(__file__).resolve().parent.parent / "src" / "epmodes" \
        / "__init__.py"
    body = ast.parse(init.read_text()).body
    assert isinstance(body[0], ast.Expr)  # the docstring
    assert all(isinstance(node, ast.ImportFrom) and node.level == 1
               and node.module is None for node in body[1:])
    import epmodes
    assert all(inspect.ismodule(v) for k, v in vars(epmodes).items()
               if not k.startswith("__"))


def test_src_never_imports_private_sibling_names():
    # a module's underscore names are its own; a sibling that needs one
    # needs a public name instead
    pkg = Path(__file__).resolve().parent.parent / "src" / "epmodes"
    hits = [f"{path.name}:{node.lineno} {alias.name}"
            for path in sorted(pkg.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").startswith("epmodes"))
            for alias in node.names if alias.name.startswith("_")]
    assert hits == []


def _lattice_reads(tree):
    private = {"pt_ix", "pt_iy", "ix_min", "iy_min", "interior_mask",
               "index_of"}
    return [(node.lineno, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in private]


def test_only_models_reads_lattice_indices():
    # array indices, box corners and full-grid arrays shift with the
    # bounding box; any other module wanting point identity across grids
    # uses lattice_key, and a stencil reads the per-point neighbors table
    planted = ast.parse("def f(m):\n    return m.psi[m.geometry.index_of]\n")
    assert _lattice_reads(planted) == [(2, "index_of")]
    pkg = Path(__file__).resolve().parent.parent / "src" / "epmodes"
    hits = [f"{path.name}:{line} {attr}"
            for path in sorted(pkg.glob("*.py")) if path.name != "models.py"
            for line, attr in _lattice_reads(ast.parse(path.read_text()))]
    assert hits == []


def _folds(tree):
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "accumulate"
            and getattr(node.value, "attr", None) == "add"}


def test_only_fold_sum_folds():
    # circstats.fold_sum is the one strict left fold; a private copy of it
    # elsewhere could drift from it
    pkg = Path(__file__).resolve().parent.parent / "src" / "epmodes"
    calls = {(path.name, ln) for path in sorted(pkg.glob("*.py"))
             for ln in _folds(ast.parse(path.read_text()))}
    owned = {("circstats.py", ln)
             for fn in ast.parse((pkg / "circstats.py").read_text()).body
             if isinstance(fn, ast.FunctionDef) and fn.name == "fold_sum"
             for ln in _folds(fn)}
    assert len(owned) == 1 and calls == owned


def _renyi_prefixes(tree):
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and "renyi_" in node.value]


def test_only_sweep_spells_renyi_columns():
    # sweep.py names every Renyi column and parses every such name back, from
    # one prefix constant; a second spelling elsewhere could drift from it
    pkg = Path(__file__).resolve().parent.parent / "src" / "epmodes"
    found = {path.name: _renyi_prefixes(ast.parse(path.read_text()))
             for path in sorted(pkg.glob("*.py"))}
    assert len(found.pop("sweep.py")) == 1
    assert found == {name: [] for name in found}


def _setting_errors(tree):
    """(line, name) of each exception class that stores a `field` or
    derives from InvalidSetting: a bad setting's error class."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        bases = {getattr(b, "id", getattr(b, "attr", None))
                 for b in cls.bases}
        stores = any(isinstance(node, ast.Attribute) and node.attr == "field"
                     and isinstance(node.ctx, ast.Store)
                     for node in ast.walk(cls))
        if "InvalidSetting" in bases or (stores and any(
                (b or "").endswith(("Error", "Exception")) for b in bases)):
            yield cls.lineno, cls.name


def _exit_2_catches(tree):
    """The exception names each handler in main() that returns 2 catches."""
    main, = (fn for fn in tree.body
             if isinstance(fn, ast.FunctionDef) and fn.name == "main")
    return [sorted(getattr(n, "id", None) or n.attr
                   for n in ast.walk(handler.type)
                   if isinstance(n, (ast.Name, ast.Attribute)))
            for handler in ast.walk(main)
            if isinstance(handler, ast.ExceptHandler)
            and any(isinstance(node, ast.Return)
                    and getattr(node.value, "value", None) == 2
                    for node in ast.walk(handler))]


def test_one_error_class_for_a_bad_setting():
    # models.InvalidSetting names every bad setting, a dataclass field, a
    # config key, an override item or a flag, and exit 2 means bad input
    planted = ast.parse(
        "class BadValueError(Exception):\n"
        "    def __init__(self, field, message):\n"
        "        self.field = field\n"
        "class BadKey(models.InvalidSetting):\n    pass\n"
        "@dataclass\nclass Peak:\n    field: str\n"
        "def main():\n    try:\n        pass\n"
        "    except (ParseError, BadValueError, InvalidSetting):\n"
        "        return 2\n"
        "    except ValueError:\n        return 3\n")
    assert list(_setting_errors(planted)) == [(1, "BadValueError"),
                                              (4, "BadKey")]
    assert _exit_2_catches(planted) == [
        ["BadValueError", "InvalidSetting", "ParseError"]]
    pkg = Path(__file__).resolve().parent.parent / "src" / "epmodes"
    hits = [f"{path.name}:{line} {name}"
            for path in sorted(pkg.glob("*.py")) if path.name != "models.py"
            for line, name in _setting_errors(ast.parse(path.read_text()))]
    assert hits == []
    assert [name for _, name in _setting_errors(
        ast.parse((pkg / "models.py").read_text()))] == ["InvalidSetting"]
    assert _exit_2_catches(ast.parse((pkg / "cli.py").read_text())) == [
        ["InvalidSetting", "ParseError"]]


def _walk_calls(tree):
    return {(node.lineno, name) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            for name in ("_solve_point", "track_modes")
            if name in (getattr(node.func, "id", None),
                        getattr(node.func, "attr", None))}


def test_only_solve_points_walks_a_sweep():
    # sweep.solve_points is the one loop over a grid: it solves and tracks
    # every point, so the CSV and the EPMODE files share one branch order
    pkg = Path(__file__).resolve().parent.parent / "src" / "epmodes"
    calls = {(path.name, *call) for path in sorted(pkg.glob("*.py"))
             for call in _walk_calls(ast.parse(path.read_text()))}
    owned = {("sweep.py", *call)
             for fn in ast.parse((pkg / "sweep.py").read_text()).body
             if isinstance(fn, ast.FunctionDef) and fn.name == "solve_points"
             for call in _walk_calls(fn)}
    assert {name for _, _, name in owned} == {"_solve_point", "track_modes"}
    assert calls == owned


def _unpassed_defaults(defs, calls):
    """`function.parameter` for each parameter with a default in the parsed
    modules `defs` that no call in the parsed modules `calls` passes, by
    position, by keyword, or through *args or **kwargs. A call matches by
    the name it calls, a class name standing for its __init__; a method's
    first parameter is the instance."""
    sites = [(getattr(node.func, "id", getattr(node.func, "attr", None)),
              len(node.args), {kw.arg for kw in node.keywords},
              any(isinstance(a, ast.Starred) for a in node.args)
              or any(kw.arg is None for kw in node.keywords))
             for tree in calls for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    for tree in defs:
        owner = {fn: cls.name for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for fn in cls.body
                 if isinstance(fn, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            names = {fn.name, owner[fn] if fn.name == "__init__" else fn.name}
            pos = fn.args.posonlyargs + fn.args.args
            first = len(pos) - len(fn.args.defaults)
            skip = int(fn in owner)
            wanted = [(i - skip, a.arg) for i, a in enumerate(pos)
                      if i >= first]
            wanted += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs,
                                                     fn.args.kw_defaults)
                       if d is not None]
            for index, arg in wanted:
                if not any(name in names and (
                        spread or arg in keywords
                        or (index is not None and index < npos))
                        for name, npos, keywords, spread in sites):
                    yield f"{fn.name}.{arg}"


def test_every_default_is_passed_somewhere():
    # a default that no program path overrides is an option the program
    # never varies: it belongs in the body or in a module constant.
    # cli.main's argv is how tests enter the command line
    planted_defs = ast.parse(
        "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
        "class C:\n"
        "    def __init__(self, x, y=0, u=1):\n        pass\n"
        "    def g(self, z=1):\n        pass\n"
        "def h(k=1):\n    pass\n")
    planted_calls = ast.parse("f(0, 5, d=1)\nC(1, 2)\nobj.g(*rest)\n"
                              "h(**opts)\nf(0, c=1)\nmake()(0, 1, 2, 3)\n")
    assert list(_unpassed_defaults([planted_defs], [planted_calls])) == [
        "f.e", "__init__.u"]
    root = Path(__file__).resolve().parent.parent
    defs = [ast.parse(path.read_text())
            for path in sorted((root / "src" / "epmodes").glob("*.py"))]
    calls = [ast.parse(path.read_text())
             for top in ("src", "demos", "perfbench")
             for path in sorted((root / top).rglob("*.py"))]
    assert set(_unpassed_defaults(defs, calls)) == {"main.argv"}


def _unused_imports(source):
    """`line name` for each module-level import in `source` that no scope
    reads. symtable sees a read as a global, a free variable or a name at
    module level; the names inside annotations count too, since under
    `from __future__ import annotations` symtable never sees them."""
    tables, used = [symtable.symtable(source, "<module>", "exec")], set()
    while tables:
        table = tables.pop()
        tables += table.get_children()
        used |= {sym.get_name() for sym in table.get_symbols()
                 if sym.is_referenced() and (
                     table.get_type() == "module" or sym.is_global()
                     or sym.is_free())}
    tree = ast.parse(source)
    notes = [node.annotation for node in ast.walk(tree)
             if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    notes += [node.returns for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and node.returns]
    used |= {node.id for note in notes for node in ast.walk(note)
             if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) \
                and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    yield f"{node.lineno} {name}"


def test_no_module_imports_a_name_it_never_reads():
    # an import nothing reads is a dependency the module does not have
    planted = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "import xml.dom\n"
        "from json import dumps, loads\n"
        "from pathlib import Path, PurePath\n"
        "def f(p: Path) -> PurePath:\n"
        "    def inner():\n        return system\n"
        "    return [loads(q) for q in p]\n"
        "class C:\n    x = xml.dom\n")
    assert list(_unused_imports(planted)) == ["2 os", "4 dumps"]
    root = Path(__file__).resolve().parent.parent
    hits = [f"{path.relative_to(root)}:{hit}"
            for top in ("src", "tests", "tools", "demos")
            for path in sorted((root / top).rglob("*.py"))
            if path.name != "__init__.py"
            for hit in _unused_imports(path.read_text())]
    assert hits == []
