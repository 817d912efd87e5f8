"""Solver layer checked against independent oracles.

numpy.linalg appears here as a cross-check oracle only; the package itself
never calls it. Analytic eigenvalues of the 1-D Dirichlet Laplacian and the
2x2 quadratic formula pin the physics-facing examples.
"""

import ast
import cmath
import re
from pathlib import Path

import numpy as np
import pytest

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
    return SparseOperator(n, rows, cols, vals, symmetric=True)


def from_dense(M):
    M = np.asarray(M, dtype=np.complex128)
    r, c = np.nonzero(M)
    return SparseOperator(M.shape[0], r, c, M[r, c])


def to_dense(A):
    M = np.zeros((A.n, A.n), dtype=np.complex128)
    M[A.rows, A.cols] = A.vals
    return M


def random_banded(rng, n, kl, ku, real=False):
    rows, cols, vals = [], [], []
    for i in range(n):
        for j in range(max(0, i - kl), min(n, i + ku + 1)):
            rows.append(i)
            cols.append(j)
            vals.append(complex(rng.standard_normal(),
                                0.0 if real else rng.standard_normal()))
    return SparseOperator(n, rows, cols, vals)


class TestSparseOperator:
    def test_apply_matches_dense(self):
        rng = np.random.default_rng(7)
        A = random_banded(rng, 12, 2, 3)
        x = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        assert norm(A.apply(x) - to_dense(A) @ x) < 1e-12 * norm(x)

    def test_duplicate_entries_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseOperator(2, [0, 0], [1, 1], [1.0, 2.0])

    def test_symmetric_flag_verified(self):
        SparseOperator(2, [0, 1], [1, 0], [2.0, 2.0], symmetric=True)
        with pytest.raises(ValueError, match="symmetric"):
            SparseOperator(2, [0, 1], [1, 0], [2.0, 3.0], symmetric=True)
        with pytest.raises(ValueError, match="symmetric"):
            SparseOperator(2, [0], [1], [2.0], symmetric=True)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            SparseOperator(1, [0], [0], [np.nan])

    def test_bandwidths(self):
        A = SparseOperator(5, [0, 3, 1], [2, 1, 1], [1.0, 1.0, 1.0])
        assert A.bandwidths() == (2, 2)


class TestBandedLU:
    @pytest.mark.parametrize(
        "n,kl,ku,real",
        [(8, 1, 1, False), (30, 3, 2, False), (50, 5, 5, False),
         (40, 4, 3, True), (45, 3, 4, False), (10, 6, 5, False),
         (150, 20, 17, False), (120, 9, 8, True)],
        ids=["8-1-1", "30-3-2", "50-5-5", "40-4-3-real", "45-3-4",
             "10-6-5", "150-20-17", "120-9-8-real"])
    def test_residual_random_systems(self, n, kl, ku, real):
        # real operator with real shift takes the float64 factor path. The
        # replay block is B = min(32, kl + ku) rows: 45-3-4 ends in a partial
        # block, 10-6-5 has n < B, 150-20-17 has B = 32 and five blocks, and
        # 120-9-8-real runs several blocks on the float64 path.
        rng = np.random.default_rng(n)
        A = random_banded(rng, n, kl, ku, real)
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
        # has a tiny diagonal and nothing left of it, so column 3 takes its
        # pivot from row 4, the first row of block 2
        n = 8
        M = 4.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
        M[3, 3], M[3, 2] = 1e-20, 0.0
        A = from_dense(M)
        lu = lu_factor(A)
        assert lu._perm[1, 1] == 4
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


class TestHessenbergEig:
    def test_against_dense_oracle(self):
        rng = np.random.default_rng(11)
        K = 30
        H = rng.standard_normal((K, K)) + 1j * rng.standard_normal((K, K))
        H = np.triu(H, -1)  # upper Hessenberg
        evals, vecs = hessenberg_eig(H)
        oracle = np.sort_complex(np.linalg.eigvals(H))
        assert np.allclose(np.sort_complex(evals), oracle, atol=1e-8)
        scale = np.abs(H).max()
        for k in range(K):
            r = H @ vecs[:, k] - evals[k] * vecs[:, k]
            assert norm(r) < 1e-8 * scale

    def test_repeated_eigenvalues(self):
        H = np.diag([2.0, 2.0, 5.0]).astype(complex)
        H[0, 1] = 1.0
        evals, _ = hessenberg_eig(H)
        assert np.allclose(np.sort_complex(evals), [2.0, 2.0, 5.0])


class TestShiftInvert:
    def test_diagonal_nearest_ordering(self):
        # eigenvalues {1, 2, 10}; the two nearest 1.6 are 2 then 1
        A = SparseOperator(3, [0, 1, 2], [0, 1, 2], [1.0, 2.0, 10.0],
                           symmetric=True)
        pairs = shift_invert_eigs(A, 1.6, 2)
        got = [p.eigenvalue for p in pairs]
        assert abs(got[0] - 2.0) < 1e-12
        assert abs(got[1] - 1.0) < 1e-12

    def test_1d_laplacian_analytic(self):
        h = 1.0 / 100.0
        n = 99
        A = laplacian_1d(n, h)
        pairs = shift_invert_eigs(A, 9.0, 2, tol=1e-11)
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
        A = laplacian_1d(40, 1.0 / 41.0)
        for p in shift_invert_eigs(A, 50.0, 3, tol=1e-10):
            assert p.residual_norm <= 1e-10
            v = p.eigenvector
            assert abs(norm(v) - 1.0) < 1e-12
            top = v[int(np.argmax(np.abs(v)))]
            assert abs(top.imag) < 1e-12 * abs(top)
            assert top.real > 0

    def test_complex_symmetric_two_level(self):
        # [[1-2i, 1], [1, -1]]: quadratic-formula oracle
        A = SparseOperator(2, [0, 0, 1, 1], [0, 1, 0, 1],
                           [1.0 - 2.0j, 1.0, 1.0, -1.0], symmetric=True)
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

    def test_no_convergence_carries_budget_and_residual(self):
        A = laplacian_1d(99, 1.0 / 100.0)
        with pytest.raises(NoConvergence) as info:
            shift_invert_eigs(A, 9.0, 2, max_iter=1)
        assert info.value.max_iter == 1
        assert info.value.best_residual >= 0.0

    def test_argument_validation(self):
        A = SparseOperator(2, [0, 1], [0, 1], [1.0, 2.0])
        with pytest.raises(ValueError):
            shift_invert_eigs(A, 0.0, 0)
        with pytest.raises(ValueError):
            shift_invert_eigs(A, 0.0, 3)
        with pytest.raises(ValueError):
            shift_invert_eigs(A, 0.0, 1, tol=0.0)


class TestEig2x2:
    def test_exceptional_point(self):
        # [[-2i, 1], [1, 0]]: double eigenvalue -i, single eigenvector (1, i)
        pairs = eig2x2([[-2.0j, 1.0], [1.0, 0.0]])
        target = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        for p in pairs:
            assert p.degenerate
            assert abs(p.eigenvalue - (-1.0j)) < 1e-12
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
            M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
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


def test_only_models_reads_lattice_indices():
    # array indices and box corners shift with the bounding box; any other
    # module wanting point identity across grids uses lattice_key
    pkg = Path(__file__).resolve().parent.parent / "src" / "epmodes"
    private = {"pt_ix", "pt_iy", "ix_min", "iy_min"}
    hits = [f"{path.name}:{node.lineno} {node.attr}"
            for path in sorted(pkg.glob("*.py")) if path.name != "models.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr in private]
    assert hits == []
