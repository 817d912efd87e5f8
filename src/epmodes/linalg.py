"""Complex linear algebra for a few eigenpairs near a shift, from scratch.

The operators studied here are complex symmetric (H^T = H, not Hermitian), so
the left eigenvector of every mode is the plain transpose of the right one and
a right-eigenpair solver is all that is needed. The chain is:

    banded LU (partial pivoting by largest modulus), with per-block inverses
    of the triangular factors' diagonal blocks built once per factor
      -> shift-invert Arnoldi with full reorthogonalization; each solve
         replays the triangles a block of rows at a time
      -> complex Hessenberg QR (Schur form + back-substituted eigenvectors)

numpy is used as array storage and elementwise arithmetic only: every
product is a broadcast multiply and an explicit sum, with no matrix-product
operator, no BLAS and nothing delegated to numpy's dense linear algebra or
any external solver. That keeps the whole eigenpath auditable and
bit-reproducible, which the sweep output format relies on.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass, field
from numpy.lib.stride_tricks import as_strided, sliding_window_view

_SEED = 2718281828  # fixed Arnoldi start vector; reruns must be bitwise equal
_PIVOT_RTOL = 1e-14
_BLOCK = 32  # rows per replay block: a solve takes about 2n/32 Python steps


class SingularShift(Exception):
    """A pivot fell below 1e-14 x (largest entry modulus): the shift sits
    numerically on an eigenvalue."""


class NoConvergence(Exception):
    """Arnoldi ran out of its matvec budget before m residuals met tol."""

    def __init__(self, max_iter: int, best_residual: float):
        self.max_iter = max_iter
        self.best_residual = best_residual
        super().__init__(
            f"no convergence within {max_iter} solves "
            f"(best residual {best_residual:.3e})"
        )


def _norm(v: np.ndarray) -> float:
    """2-norm as a plain sum of squared moduli (no BLAS, same bits on rerun)."""
    return np.sqrt((np.abs(v) ** 2).sum())


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(a.view(np.float64) if a.dtype == complex else a)):
        raise ValueError(f"{what} contains non-finite entries")


class SparseOperator:
    """Square sparse matrix in row-grouped triplet form.

    `symmetric=True` asserts complex symmetry (entry list closed under
    (i, j) -> (j, i) with equal values); the constructor verifies it, because
    every downstream rigidity identity silently depends on it.
    """

    def __init__(self, n: int, rows, cols, vals, symmetric: bool = False):
        self.n = int(n)
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.complex128)
        if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
            raise ValueError("rows, cols, vals must be equal-length 1-D")
        if rows.size and (rows.min() < 0 or rows.max() >= n
                          or cols.min() < 0 or cols.max() >= n):
            raise ValueError("index out of range")
        _require_finite(vals, "operator values")
        order = np.lexsort((cols, rows))  # row-grouped, deterministic layout
        self.rows = rows[order]
        self.cols = cols[order]
        self.vals = vals[order]
        key = self.rows * n + self.cols
        if key.size > 1 and np.any(key[1:] == key[:-1]):
            raise ValueError("duplicate (row, col) entry")
        self.symmetric = bool(symmetric)
        if self.symmetric:
            tkey = np.sort(self.cols * n + self.rows)
            if not np.array_equal(np.sort(key), tkey):
                raise ValueError("symmetric flag set but pattern is not")
            torder = np.lexsort((self.rows, self.cols))
            if not np.array_equal(self.vals[torder], self.vals):
                raise ValueError("symmetric flag set but values are not")

    def apply(self, x: np.ndarray) -> np.ndarray:
        """y = A x by scatter-add over the triplets."""
        x = np.asarray(x, dtype=np.complex128)
        y = np.zeros(self.n, dtype=np.complex128)
        np.add.at(y, self.rows, self.vals * x[self.cols])
        return y

    def bandwidths(self) -> tuple[int, int]:
        if self.rows.size == 0:
            return 0, 0
        d = self.rows - self.cols
        return int(max(d.max(), 0)), int(max((-d).max(), 0))


@dataclass
class EigenPair:
    eigenvalue: complex
    eigenvector: np.ndarray
    residual_norm: float
    degenerate: bool = False


class Factorization:
    """Banded LU of (A - shift I), P(A - shift I) = LU, stored for block replay.

    Row-slot storage: T[r, t] holds matrix entry (r, r - kl + t), giving each
    row a contiguous window of 2*kl + ku + 1 columns; the extra kl columns on
    the right absorb pivoting fill-in. The rows are cut into blocks of B.
    Block k (rows s = kB .. s+B-1) keeps:

    - `_perm[k]`: the row order its B pivot swaps give its window of B + kl
      rows, as indices into the padded solution vector;
    - `_L[k]`: the (B + kl) x B multiplier panel in the dense-getrf
      convention (a swap at column t also swaps rows t and p of the panel
      columns to its left), with the unit-lower B x B head replaced by its
      inverse;
    - `_Uinv[k]`: the inverse of its B x B diagonal block of U.

    A solve replays both triangles a block at a time with broadcast mat-vecs.
    T carries zero rows past n, at least kl + 1 and enough to fill the last
    block; in the inverses those rows are identity rows.
    """

    def __init__(self, n, kl, ku, band, perm, lpanel, uinv):
        self.n = n
        self.kl = kl
        self.ku = ku
        self._T = band
        self._perm = perm
        self._L = lpanel
        self._Uinv = uinv

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=np.complex128)
        if b.shape != (self.n,):
            raise ValueError("rhs length mismatch")
        n, kl, w = self.n, self.kl, self.kl + self.ku
        T, perm, L, Uinv = self._T, self._perm, self._L, self._Uinv
        nb, B = Uinv.shape[:2]
        x = np.zeros(nb * B + w, dtype=np.complex128)
        x[:n] = b
        for k in range(nb):
            s = k * B
            win = x[perm[k]]
            y = (L[k, :B] * win[None, :B]).sum(axis=1)
            x[s:s + B] = y
            x[s + B:s + B + kl] = win[B:] - (L[k, B:] * y[None, :]).sum(axis=1)
        xw = sliding_window_view(x, w)
        for k in range(nb - 1, -1, -1):
            s = k * B
            r = x[s:s + B].copy()
            x[s:s + B] = 0.0
            r -= (T[s:s + B, kl + 1:] * xw[s + 1:s + 1 + B]).sum(axis=1)
            x[s:s + B] = (Uinv[k] * r[None, :]).sum(axis=1)
        return x[:n]


def _invert_unit_lower(L: np.ndarray) -> None:
    """In place: each strictly lower (nb, B, B) block becomes the inverse of
    its unit-lower matrix, diagonal included; row i needs only rows < i."""
    B = L.shape[1]
    L[:, np.arange(B), np.arange(B)] = 1.0
    for i in range(1, B):
        L[:, i, :i] = -(L[:, i, :i, None] * L[:, :i, :i]).sum(axis=1)


def _invert_upper(U: np.ndarray) -> None:
    """In place: each upper-triangular (nb, B, B) block becomes its inverse;
    row i needs only rows > i."""
    B = U.shape[1]
    for i in range(B - 1, -1, -1):
        d = U[:, i, i].copy()
        U[:, i, i + 1:] = -(U[:, i, i + 1:, None]
                            * U[:, i + 1:, i + 1:]).sum(axis=1) / d[:, None]
        U[:, i, i] = 1.0 / d


def lu_factor(A: SparseOperator, shift: complex = 0.0) -> Factorization:
    """Banded LU of (A - shift I) with partial pivoting by largest modulus.

    Factors in float64 when the operator and the shift are both real (every
    closed cavity), in complex128 otherwise. The block data that
    `Factorization.solve` replays is built here, once per factor.
    """
    n = A.n
    kl, ku = A.bandwidths()
    w = 2 * kl + ku + 1
    # explicit inverses of blocks wider than the band cost accuracy on
    # narrow bands (1-D Laplacian: Ritz floor 5e-12 -> 2e-11 at B = 32)
    B = max(1, min(_BLOCK, kl + ku))
    nb = -(-n // B)
    if not np.any(A.vals.imag) and complex(shift).imag == 0.0:
        vals, shift = A.vals.real, complex(shift).real
    else:
        vals = A.vals
    # zero pad rows keep the strided views below and the last block in bounds
    T = np.zeros((max(n + kl + 1, nb * B), w), dtype=vals.dtype)
    T[A.rows, A.cols - A.rows + kl] = vals
    T[np.arange(n), kl] -= shift
    scale = np.abs(T).max()
    if scale == 0.0:
        raise SingularShift("operator minus shift is identically zero")
    pivtol = _PIVOT_RTOL * scale

    perm = np.arange(B + kl) + B * np.arange(nb)[:, None]
    L = np.zeros((nb, B + kl, B), dtype=T.dtype)
    flat = T.reshape(-1)
    sz = T.itemsize
    # col[j, r] is entry (j + r, j); blk[j, r, c] is (j + 1 + r, j + 1 + c)
    col = as_strided(flat[kl:], shape=(n, kl + 1),
                     strides=(w * sz, (w - 1) * sz))
    blk = as_strided(flat[w + kl:], shape=(n, kl, kl + ku),
                     strides=(w * sz, (w - 1) * sz, sz))

    for j in range(n):
        je = min(j + kl, n - 1)
        colv = col[j, :je - j + 1]
        ip = j + int(np.argmax(np.abs(colv)))
        piv = T[ip, j - ip + kl]
        if abs(piv) <= pivtol:
            raise SingularShift(
                f"pivot modulus {abs(piv):.3e} at column {j} below "
                f"{_PIVOT_RTOL:.0e} of matrix scale"
            )
        k, c = divmod(j, B)
        cend = min(j + kl + ku, n - 1)
        if ip != j:
            q = ip - k * B
            perm[k, c], perm[k, q] = perm[k, q], perm[k, c]
            L[k, [c, q]] = L[k, [q, c]]
            lng = cend - j + 1
            tmp = T[j, kl:kl + lng].copy()
            T[j, kl:kl + lng] = T[ip, j - ip + kl:j - ip + kl + lng]
            T[ip, j - ip + kl:j - ip + kl + lng] = tmp
        nbl = je - j
        if nbl:
            m = colv[1:] / T[j, kl]
            L[k, c + 1:c + 1 + nbl, c] = m
            ublen = cend - j
            if ublen:
                u = T[j, kl + 1:kl + 1 + ublen]
                blk[j, :nbl, :ublen] -= m[:, None] * u[None, :]
    _invert_unit_lower(L[:, :B])

    rows = B * np.arange(nb)[:, None, None] + np.arange(B)[None, :, None]
    off = np.arange(B)[None, :] - np.arange(B)[:, None]  # column minus row
    U = np.where(off >= 0, T[rows, kl + np.maximum(off, 0)], 0.0)
    pad = np.arange(n, nb * B)
    U[pad // B, pad % B, pad % B] = 1.0
    _invert_upper(U)
    return Factorization(n, kl, ku, T, perm, L, U)


# ---------------------------------------------------------------------------
# projected eigenproblem: complex Hessenberg QR with accumulated Schur vectors


def _givens(a: complex, b: complex) -> tuple[float, complex]:
    """c (real), s with [[c, s], [-conj(s), c]] @ (a, b) = (r, 0)."""
    if b == 0:
        return 1.0, 0.0 + 0.0j
    aa, ab = abs(a), abs(b)
    r = np.hypot(aa, ab)
    alpha = a / aa if aa != 0.0 else 1.0 + 0.0j
    return aa / r, alpha * np.conj(b) / r


def hessenberg_eig(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a complex upper-Hessenberg matrix.

    Explicit single-shift QR with Wilkinson shifts reduces H to triangular
    Schur form while accumulating the unitary transform; eigenvectors come
    from back-substitution on the triangular factor. Intended for the small
    projected matrices produced by Arnoldi (K up to a few hundred).
    """
    T = np.array(H, dtype=np.complex128)
    K = T.shape[0]
    if T.shape != (K, K):
        raise ValueError("square matrix required")
    Z = np.eye(K, dtype=np.complex128)
    eps = np.finfo(np.float64).eps
    hi = K - 1
    iters = 0
    budget = 60 * max(K, 4)
    while hi > 0:
        if abs(T[hi, hi - 1]) <= eps * (abs(T[hi - 1, hi - 1])
                                        + abs(T[hi, hi])):
            T[hi, hi - 1] = 0.0
            hi -= 1
            continue
        if iters >= budget:
            raise NoConvergence(budget, float(abs(T[hi, hi - 1])))
        iters += 1
        lo = hi
        while lo > 0 and abs(T[lo, lo - 1]) > eps * (
                abs(T[lo - 1, lo - 1]) + abs(T[lo, lo])):
            lo -= 1
        # Wilkinson shift: trailing 2x2 eigenvalue nearest T[hi, hi]
        a, b = T[hi - 1, hi - 1], T[hi - 1, hi]
        c, d = T[hi, hi - 1], T[hi, hi]
        tr2 = (a + d) / 2.0
        s = np.sqrt(tr2 * tr2 - (a * d - b * c))
        mu = tr2 + s if abs((tr2 + s) - d) <= abs((tr2 - s) - d) else tr2 - s
        if not (np.isfinite(mu.real) and np.isfinite(mu.imag)):
            mu = d
        if iters % 16 == 0:
            # exceptional shift breaks the rare shift-cycle stall
            mu = d + 0.75 * abs(T[hi, hi - 1])
        # explicit shifted QR on the active block: T - mu = QR, T <- RQ + mu
        dia = np.arange(lo, hi + 1)
        T[dia, dia] -= mu
        rots = []
        for i in range(lo, hi):
            gc, gs = _givens(T[i, i], T[i + 1, i])
            rots.append((gc, gs))
            r0 = T[i, i:].copy()
            r1 = T[i + 1, i:]
            T[i, i:] = gc * r0 + gs * r1
            T[i + 1, i:] = -np.conj(gs) * r0 + gc * r1
            T[i + 1, i] = 0.0
        for t, i in enumerate(range(lo, hi)):
            gc, gs = rots[t]
            top = min(i + 2, hi + 1)
            c0 = T[:top, i].copy()
            c1 = T[:top, i + 1]
            T[:top, i] = gc * c0 + np.conj(gs) * c1
            T[:top, i + 1] = -gs * c0 + gc * c1
            z0 = Z[:, i].copy()
            z1 = Z[:, i + 1]
            Z[:, i] = gc * z0 + np.conj(gs) * z1
            Z[:, i + 1] = -gs * z0 + gc * z1
        T[dia, dia] += mu
    evals = T.diagonal().copy()
    # eigenvectors of the triangular factor, then rotate back
    tnorm = max(np.abs(T).max(), eps)
    smin = eps * tnorm
    Y = np.zeros((K, K), dtype=np.complex128)
    for k in range(K):
        y = np.zeros(K, dtype=np.complex128)
        y[k] = 1.0
        for i in range(k - 1, -1, -1):
            s = (T[i, i + 1:k + 1] * y[i + 1:k + 1]).sum()
            den = T[i, i] - evals[k]
            if abs(den) < smin:
                den = smin
            y[i] = -s / den
        nrm = _norm(y)
        Y[:, k] = y / nrm
    V = np.zeros((K, K), dtype=np.complex128)
    for k in range(K):
        V[:, k] = (Z * Y[:, k][None, :]).sum(axis=1)
    return evals, V


# ---------------------------------------------------------------------------
# shift-invert Arnoldi


def _unit_gauge(v: np.ndarray) -> np.ndarray:
    """Unit 2-norm with the largest-modulus entry rotated to be real positive.

    Deterministic tie-break: argmax takes the first maximal entry, so
    recomputation is bitwise stable.
    """
    i = int(np.argmax(np.abs(v)))
    piv = v[i]
    if piv != 0:
        v = v * (np.conj(piv) / abs(piv))
    nrm = _norm(v)
    return v / nrm


def shift_invert_eigs(A: SparseOperator, shift: complex, m: int,
                      tol: float = 1e-10, max_iter: int = 400) -> list[EigenPair]:
    """The m eigenpairs of A nearest `shift`, sorted by |lambda - shift|.

    Arnoldi runs on (A - shift I)^{-1}; Ritz values mu map back through
    lambda = shift + 1/mu. Residuals are measured on A itself, never on the
    projected problem, so the returned `residual_norm` is the real thing.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > A.n:
        raise ValueError("m exceeds operator dimension")
    if not tol > 0:
        raise ValueError("tol must be positive")
    n = A.n
    lu = lu_factor(A, shift)
    rng = np.random.default_rng(_SEED)
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v0 /= _norm(v0)

    cap = min(n, max(4 * m + 24, 200))
    K = min(n, max(2 * m + 4, 8))
    V = np.zeros((cap + 1, n), dtype=np.complex128)  # basis vectors as rows
    Hm = np.zeros((cap + 1, cap), dtype=np.complex128)
    V[0] = v0
    built = 0
    solves = 0
    best_res = np.inf

    while True:
        while built < K:
            if solves >= max_iter:
                raise NoConvergence(max_iter, float(best_res))
            w = lu.solve(V[built])
            solves += 1
            wnorm = _norm(w)
            # classical Gram-Schmidt, twice: cheap and reliably orthogonal
            for _ in range(2):
                h = (np.conj(V[:built + 1]) * w[None, :]).sum(axis=1)
                w = w - (V[:built + 1] * h[:, None]).sum(axis=0)
                Hm[:built + 1, built] += h
            beta = _norm(w)
            if beta <= 1e-12 * max(wnorm, 1e-300):
                # w already in the span: try a fresh orthogonal direction
                fresh = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                for _ in range(2):
                    h = (np.conj(V[:built + 1]) * fresh[None, :]).sum(axis=1)
                    fresh = fresh - (V[:built + 1] * h[:, None]).sum(axis=0)
                bn = _norm(fresh)
                if bn <= 1e-10 * np.sqrt(2.0 * n):
                    # whole space spanned: the square Hessenberg including
                    # the column just written is an exact invariant relation
                    built += 1
                    K = built
                    cap = built
                    break
                Hm[built + 1, built] = 0.0
                V[built + 1] = fresh / bn
            else:
                Hm[built + 1, built] = beta
                V[built + 1] = w / beta
            built += 1
        k = built
        mu, Y = hessenberg_eig(Hm[:k, :k])
        lam = shift + 1.0 / np.where(mu == 0, np.finfo(float).tiny, mu)
        order = np.argsort(np.abs(lam - shift), kind="stable")
        pairs: list[EigenPair] = []
        worst = 0.0
        for idx in order[:max(m, min(k, m + 2))]:
            v = (V[:k] * Y[:, idx][:, None]).sum(axis=0)
            v = _unit_gauge(v)
            r = A.apply(v) - lam[idx] * v
            res = float(_norm(r))
            best_res = min(best_res, res)
            if len(pairs) < m:
                pairs.append(EigenPair(complex(lam[idx]), v, res))
                worst = max(worst, res)
        if worst <= tol and len(pairs) == m:
            return pairs
        if K >= min(n, cap):
            raise NoConvergence(max_iter, float(best_res))
        K = min(min(n, cap), K + 4)


def eig2x2(H) -> list[EigenPair]:
    """Analytic eigenpairs of a 2x2 complex matrix via the quadratic formula.

    At a defective (exceptional) point the single eigenvector is returned
    twice with `degenerate=True`; no generalized eigenvector is constructed,
    because the diagnostics downstream want exactly the self-orthogonal mode.
    """
    M = np.asarray(H, dtype=np.complex128)
    if M.shape != (2, 2):
        raise ValueError("2x2 matrix required")
    _require_finite(M, "matrix")
    mean = (M[0, 0] + M[1, 1]) / 2.0
    d = (M[0, 0] - M[1, 1]) / 2.0
    s = np.sqrt(d * d + M[0, 1] * M[1, 0])
    lam_p, lam_m = mean + s, mean - s
    scale = max(np.abs(M).max(), np.finfo(float).tiny)
    degenerate = abs(lam_p - lam_m) <= 1e-12 * scale

    def vec(lam: complex) -> np.ndarray:
        v = np.array([M[0, 1], lam - M[0, 0]], dtype=np.complex128)
        if _norm(v) <= 1e-14 * scale:
            v = np.array([lam - M[1, 1], M[1, 0]], dtype=np.complex128)
        if _norm(v) <= 1e-14 * scale:
            v = np.array([1.0, 0.0], dtype=np.complex128)
        return _unit_gauge(v)

    def residual(lam: complex, v: np.ndarray) -> float:
        r = np.array([M[0, 0] * v[0] + M[0, 1] * v[1] - lam * v[0],
                      M[1, 0] * v[0] + M[1, 1] * v[1] - lam * v[1]])
        return float(_norm(r))

    if degenerate:
        v = vec(lam_p)
        return [EigenPair(complex(lam_p), v, residual(lam_p, v), True),
                EigenPair(complex(lam_m), v.copy(), residual(lam_m, v), True)]
    vp, vm = vec(lam_p), vec(lam_m)
    return [EigenPair(complex(lam_p), vp, residual(lam_p, vp)),
            EigenPair(complex(lam_m), vm, residual(lam_m, vm))]
