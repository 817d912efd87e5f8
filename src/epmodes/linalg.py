"""Complex linear algebra for a few eigenpairs near a shift, from scratch.

The operators studied here are complex symmetric (H^T = H, not Hermitian), so
the left eigenvector of every mode is the plain transpose of the right one and
a right-eigenpair solver is all that is needed. The chain is:

    banded LU (partial pivoting by largest modulus) over A's independent
    diagonal blocks at once, as lanes of one batch, with per-block inverses
    of the triangular factors' diagonal blocks built once per factor
      -> shift-invert Arnoldi with full reorthogonalization; each solve
         replays the triangles a block of rows at a time in every lane
      -> eigenvalue-only Hessenberg QR, inverse iteration for m vectors only
      -> one gauge for every eigenvector: unit norm, sum v^2 real positive

numpy is used as array storage and elementwise arithmetic only: every
product is a broadcast multiply and an explicit sum, with no matrix-product
operator, no BLAS and nothing delegated to numpy's dense linear algebra or
any external solver. That keeps the whole eigenpath auditable and
bit-reproducible, which the sweep output format relies on.
"""

from __future__ import annotations

import cmath
import math
import numpy as np
from dataclasses import dataclass
from numpy.lib.stride_tricks import as_strided, sliding_window_view

_SEED = 2718281828  # fixed Arnoldi start vector; reruns must be bitwise equal
_PIVOT_RTOL = 1e-14
_BLOCK = 32  # rows per replay block: a solve takes about 2n/32 Python steps
RESIDUAL_TOL = 1e-10  # every returned eigenpair's residual on A meets it


class SingularShift(Exception):
    """A pivot fell below 1e-14 x (largest entry modulus): the shift sits
    numerically on an eigenvalue."""


class NoConvergence(Exception):
    """A solve hit a solver limit first (Arnoldi's Krylov cap or the QR's
    iteration budget), named in `reason`; `max_iter` is the count it
    stopped at, `best_residual` the smallest residual over RESIDUAL_TOL."""

    def __init__(self, max_iter: int, best_residual: float, reason: str):
        self.max_iter = max_iter
        self.best_residual = best_residual
        super().__init__(reason)


def norm(v: np.ndarray) -> float:
    """The one 2-norm: a plain sum of squared moduli (no BLAS, same bits on
    rerun). Diagnostics' sums of |psi|^2 stay strict folds by contract."""
    return np.sqrt((np.abs(v) ** 2).sum())


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} contains non-finite entries")


class SparseOperator:
    """Complex-symmetric square sparse matrix in row-grouped triplet form.

    The constructor verifies the symmetry (entry list closed under
    (i, j) -> (j, i) with equal values, no tolerance), because every
    downstream rigidity identity silently depends on it.
    """

    def __init__(self, n: int, rows, cols, vals):
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
        tkey = self.cols * n + self.rows
        torder = np.argsort(tkey)  # keys are unique: one order, no ties
        if not np.array_equal(key, tkey[torder]):
            raise ValueError("operator pattern is not symmetric")
        if not np.array_equal(self.vals[torder], self.vals):
            raise ValueError("operator values are not symmetric")

    def apply(self, x: np.ndarray) -> np.ndarray:
        """y = A x by scatter-add over the triplets."""
        x = np.asarray(x, dtype=np.complex128)
        if x.shape != (self.n,):
            raise ValueError("vector length mismatch")
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

    A's independent diagonal blocks (the parity sectors of a rotated cavity)
    are factored side by side as lanes of one batch, one lane per block,
    each padded to the largest block's length with identity rows (matrix
    scale on the diagonal, so they never trip the pivot check). An operator
    with one block is a batch of one lane. `_rows[i]` is global row i's row
    in the stacked lanes; zero rows past each lane's padding keep the replay
    in bounds.

    `_T[r, t]` is U's entry (r, r + 1 + t). Each row keeps the wu columns
    right of its diagonal, where wu is the widest update the factor made, so
    no row of U reaches further. Each lane is cut into blocks of B rows.
    Block k (lane rows s = kB .. s+B-1) keeps, for every lane:

    - `_perm[k]`: the row order its B pivot swaps give its window of B + kl
      rows, as indices into the stacked solution vector;
    - `_L[k]`: the (B + kl) x B multiplier panel in the dense-getrf
      convention (a swap at column t also swaps rows t and p of the panel
      columns to its left), with the unit-lower B x B head replaced by its
      inverse;
    - `_Uinv[k]`: the inverse of its B x B diagonal block of U.

    A solve replays both triangles a block at a time with broadcast mat-vecs
    over all lanes.
    """

    def __init__(self, n, kl, ku, band, rows, perm, lpanel, uinv):
        self.n = n
        self.kl = kl
        self.ku = ku
        self._T = band
        self._rows = rows
        self._perm = perm
        self._L = lpanel
        self._Uinv = uinv
        self.real = band.dtype == np.float64  # A and the shift were real

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=np.complex128)
        if b.shape != (self.n,):
            raise ValueError("rhs length mismatch")
        T, perm, L, Uinv = self._T, self._perm, self._L, self._Uinv
        kl, wu = self.kl, T.shape[1]
        nb, nl, B = Uinv.shape[:3]
        x = np.zeros(T.shape[0], dtype=np.complex128)
        x[self._rows] = b
        xl = x.reshape(nl, -1)
        for k in range(nb):
            s = k * B
            win = x[perm[k]]
            y = (L[k, :, :B] * win[:, None, :B]).sum(axis=2)
            xl[:, s:s + B] = y
            xl[:, s + B:s + B + kl] = win[:, B:] - (
                L[k, :, B:] * y[:, None, :]).sum(axis=2)
        Tl = T.reshape(nl, T.shape[0] // nl, wu)
        xw = sliding_window_view(xl, wu, axis=1)
        for k in range(nb - 1, -1, -1):
            s = k * B
            r = xl[:, s:s + B].copy()
            xl[:, s:s + B] = 0.0
            r -= (Tl[:, s:s + B] * xw[:, s + 1:s + 1 + B]).sum(axis=2)
            xl[:, s:s + B] = (Uinv[k] * r[:, None, :]).sum(axis=2)
        return x[self._rows]


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
    closed cavity; the result's `real` says so), in complex128 otherwise. The
    block data that `Factorization.solve` replays is built here, once per
    factor.

    Row-slot storage while factoring: T[r, t] holds matrix entry
    (r, r - kl + t), giving each row a contiguous window of 2*kl + ku + 1
    columns; the extra kl columns on the right absorb pivoting fill-in. The
    column loop runs once over all lanes. Row j of U ends at column j + ku
    unless a swap pulled a longer row up; `reach`, the furthest column a
    swap has brought into the rows not yet eliminated, keeps every row
    r > j zero past max(r + ku, reach), so each column updates only the
    columns its pivot row reaches. The scale is read from the entries. L's
    panels and the band share one buffer, so a factor makes one large
    allocation and frees it once. After the loop U's diagonal and wu slots
    move to the band's front, in row chunks that end before their source
    begins, and the buffer shrinks to L, those slots and U's blocks.
    """
    n = A.n
    kl, ku = A.bandwidths()
    w = 2 * kl + ku + 1
    # explicit inverses of blocks wider than the band cost accuracy on
    # narrow bands (1-D Laplacian: Ritz floor 5e-12 -> 2e-11 at B = 32)
    B = max(1, min(_BLOCK, kl + ku))
    # a block ends after row r when no entry (i, j) has min <= r < max
    last = np.arange(n)
    np.maximum.at(last, np.minimum(A.rows, A.cols),
                  np.maximum(A.rows, A.cols))
    ends = np.flatnonzero(np.maximum.accumulate(last) == np.arange(n)) + 1
    lens = np.diff(ends, prepend=0)
    starts = ends - lens
    span = int(lens.max(initial=0))
    nl, nb = starts.size, -(-span // B)
    ln = nb * B + kl + ku + 1  # zero rows keep strided views in bounds
    base = ln * np.arange(nl)
    rows = np.arange(n) + np.repeat(base - starts, lens)
    if not np.any(A.vals.imag) and complex(shift).imag == 0.0:
        vals, shift = A.vals.real, complex(shift).real
    else:
        vals = A.vals
    nL, nU = nb * nl * (B + kl) * B, nb * nl * B * B
    buf = np.zeros(nL + nl * ln * w, dtype=vals.dtype)
    L, T = buf[:nL].reshape(nb, nl, B + kl, B), buf[nL:].reshape(-1, w)
    T[rows[A.rows], A.cols - A.rows + kl] = vals
    T[rows, kl] -= shift
    scale = max(np.abs(vals[A.rows != A.cols]).max(initial=0.0),
                np.abs(T[rows, kl]).max(initial=0.0))
    if scale == 0.0:
        raise SingularShift("operator minus shift is identically zero")
    pad = np.arange(span) >= lens[:, None]
    T[(base[:, None] + np.arange(span))[pad], kl] = scale

    perm = (B * np.arange(nb)[:, None, None] + np.arange(B + kl)
            + base[:, None])
    sz = T.itemsize
    # S[l, j, r, t] is lane l's entry (j + r, j + t)
    S = as_strided(T.reshape(-1)[kl:], shape=(nl, span, kl + 1, kl + ku + 1),
                   strides=(ln * w * sz, w * sz, (w - 1) * sz, sz))
    reach = wu = 0
    with np.errstate(all="ignore"):  # a failed pivot is reported below
        for j in range(span):
            Sj = S[:, j]
            nbl, ncol = min(kl, span - 1 - j), min(kl + ku, span - 1 - j)
            k, c = divmod(j, B)
            below = np.abs(Sj[:, :nbl + 1, 0]).argmax(axis=1)
            for l, d in enumerate(below.tolist()):
                if d:
                    perm[k, l, [c, c + d]] = perm[k, l, [c + d, c]]
                    L[k, l, [c, c + d]] = L[k, l, [c + d, c]]
                    Sj[l, [0, d], :ncol + 1] = Sj[l, [d, 0], :ncol + 1]
                    reach = max(reach, j + d + ku)
            m = Sj[:, 1:nbl + 1, 0] / Sj[:, :1, 0]
            L[k, :, c + 1:c + 1 + nbl, c] = m
            ub = min(max(ku, reach - j), ncol)
            wu = max(wu, ub)
            Sj[:, 1:nbl + 1, 1:ub + 1] -= m[:, :, None] * Sj[:, :1, 1:ub + 1]
    # the first small pivot in global column order, as a single band has it
    piv = np.abs(S[:, :, 0, 0])
    at = np.where(piv <= _PIVOT_RTOL * scale,
                  starts[:, None] + np.arange(span), n)
    if at.min() < n:
        bad = np.unravel_index(at.argmin(), at.shape)
        raise SingularShift(
            f"pivot modulus {piv[bad]:.3e} at column {at[bad]} below "
            f"{_PIVOT_RTOL:.0e} of matrix scale"
        )
    del S, Sj
    R, W, a = T.shape[0], max(wu, B - 1) + 1, 0
    while a < R:
        b = min(R, max(a + 1, (a * w + kl) // W))
        T.reshape(-1)[a * W:b * W].reshape(b - a, W)[:] = T[a:b, kl:kl + W]
        a = b
    del L, T  # with S and Sj deleted above, no view of buf is left
    # refcheck=False: under a profiler or tracer the bound method holds one
    # more reference to buf, which numpy's check cannot tell from a view
    buf.resize(nL + R * W + nU, refcheck=False)  # U's blocks behind the band
    L = buf[:nL].reshape(nb, nl, B + kl, B)
    T = buf[nL:nL + R * W].reshape(R, W)
    U = buf[nL + R * W:].reshape(nb, nl, B, B)
    _invert_unit_lower(L.reshape(-1, B + kl, B)[:, :B])

    # U[k, l, i, j] = T[base_l + kB + i, j - i], zeroed where j < i
    U[:] = as_strided(T, shape=(nb, nl, B, B),
                      strides=(B * W * sz, ln * W * sz, (W - 1) * sz, sz))
    off = np.arange(B)[None, :] - np.arange(B)[:, None]  # column minus row
    U[:, :, off < 0] = 0.0
    tail = np.arange(span, nb * B)
    U[tail // B, :, tail % B, tail % B] = 1.0
    _invert_upper(U.reshape(-1, B, B))
    return Factorization(n, kl, ku, T[:, 1:wu + 1], rows, perm, L, U)


# ---------------------------------------------------------------------------
# projected eigenproblem: eigenvalue-only Hessenberg QR, inverse iteration


def _givens(a: complex, b: complex) -> tuple[float, complex]:
    """c (real), s with [[c, s], [-conj(s), c]] @ (a, b) = (r, 0)."""
    if b == 0:
        return 1.0, 0j
    aa = abs(a)
    r = math.hypot(aa, abs(b))
    alpha = a / aa if aa != 0.0 else 1.0 + 0.0j
    return aa / r, alpha * b.conjugate() / r


def hessenberg_eig(H: np.ndarray, count: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of a complex upper-Hessenberg matrix by decreasing modulus
    (ties in diagonal order), and a (K, count) array whose column j is a
    unit eigenvector of eigenvalue j.

    Explicit single-shift QR with Wilkinson shifts, each rotation kept inside
    the active window and no Schur vectors kept, then inverse iteration on H
    for the wanted vectors (LAPACK's ZHSEQR job 'E' and ZHSEIN). Arnoldi's
    K is small, so both run on Python complex scalars.
    """
    H = np.asarray(H, dtype=np.complex128)
    K = H.shape[0]
    if H.shape != (K, K):
        raise ValueError("square matrix required")
    T = H.tolist()
    eps = np.finfo(np.float64).eps
    hi, iters, budget = K - 1, 0, 60 * max(K, 4)
    while hi > 0:
        sub = abs(T[hi][hi - 1])
        if sub <= eps * (abs(T[hi - 1][hi - 1]) + abs(T[hi][hi])):
            hi -= 1
            continue
        if iters >= budget:
            raise NoConvergence(budget, sub, f"Hessenberg QR used its {budget}"
                                f" iterations; subdiagonal {sub:.3e} left")
        iters += 1
        lo = hi
        while lo > 0 and abs(T[lo][lo - 1]) > eps * (
                abs(T[lo - 1][lo - 1]) + abs(T[lo][lo])):
            lo -= 1
        # Wilkinson shift: trailing 2x2 eigenvalue nearest T[hi, hi]
        a, b = T[hi - 1][hi - 1], T[hi - 1][hi]
        c, d = T[hi][hi - 1], T[hi][hi]
        tr2 = (a + d) / 2.0
        s = cmath.sqrt(tr2 * tr2 - (a * d - b * c))
        mu = tr2 + s if abs((tr2 + s) - d) <= abs((tr2 - s) - d) else tr2 - s
        if not cmath.isfinite(mu):
            mu = d
        if iters % 16 == 0:
            # exceptional shift breaks the rare shift-cycle stall
            mu = d + 0.75 * sub
        # explicit shifted QR on the window: T - mu = QR, T <- RQ + mu
        for i in range(lo, hi + 1):
            T[i][i] -= mu
        rots = []
        for i in range(lo, hi):
            top, low = T[i], T[i + 1]
            gc, gs = _givens(top[i], low[i])
            gsc = gs.conjugate()
            r0, r1 = top[i:hi + 1], low[i:hi + 1]
            top[i:hi + 1] = [gc * x + gs * y for x, y in zip(r0, r1)]
            low[i:hi + 1] = [gc * y - gsc * x for x, y in zip(r0, r1)]
            low[i] = 0j
            rots.append((i, gc, gs, gsc))
        for i, gc, gs, gsc in rots:
            for row in T[lo:min(i + 2, hi + 1)]:
                x, y = row[i], row[i + 1]
                row[i] = gc * x + gsc * y
                row[i + 1] = gc * y - gs * x
        for i in range(lo, hi + 1):
            T[i][i] += mu
    evals = sorted((T[i][i] for i in range(K)), key=lambda z: -abs(z))
    # inverse iteration: two solves with H - lam I, each column pivoting
    # between its diagonal and subdiagonal row (a zero pivot reads eps |H|_1),
    # each from the last vector made orthogonal to those taken for an equal
    # eigenvalue: a semisimple one so yields an orthonormal set, a defective
    # one its single eigenvector again.
    floor = eps * (np.abs(H).sum(axis=0).max(initial=0.0) or 1.0)
    rng = np.random.default_rng(_SEED)
    vecs = []
    for lam in evals[:count]:
        peers = [v for v, mu in zip(vecs, evals) if abs(mu - lam) <= floor]
        x = rng.standard_normal(K).astype(complex).tolist()
        for _ in range(2):
            for p in peers:
                c = sum(q.conjugate() * z for q, z in zip(p, x))
                x = [z - c * q for q, z in zip(p, x)]
            U = H.tolist()
            for j in range(K):
                U[j][j] -= lam
                if j:
                    if abs(U[j][j - 1]) > abs(U[j - 1][j - 1]):
                        U[j - 1], U[j] = U[j], U[j - 1]
                        x[j - 1], x[j] = x[j], x[j - 1]
                    top, low = U[j - 1], U[j]
                    f = low[j - 1] / (top[j - 1] or floor)
                    low[j:] = [v - f * u for u, v in zip(top[j:], low[j:])]
                    x[j] -= f * x[j - 1]
            for i in range(K - 1, -1, -1):
                dot = sum(u * v for u, v in zip(U[i][i + 1:], x[i + 1:]))
                x[i] = (x[i] - dot) / (U[i][i] or floor)
            s = math.sqrt(sum(z.real * z.real + z.imag * z.imag for z in x))
            x = [z / s for z in x]
        vecs.append(x)
    return (np.array(evals, dtype=np.complex128),
            np.array(vecs, dtype=np.complex128).reshape(len(vecs), K).T)


# ---------------------------------------------------------------------------
# shift-invert Arnoldi


def _unit_gauge(v: np.ndarray) -> np.ndarray:
    """The one eigenvector gauge: unit 2-norm, the phase that makes sum v^2
    (the biorthogonal norm of a complex-symmetric mode) real positive, and
    the sign that gives the largest-modulus entry (the first, on ties) a
    positive real part. A self-orthogonal v (|sum v^2| < 1e-12) has no such
    phase; its largest entry is made real positive instead."""
    v = v / norm(v)
    piv = v[int(np.argmax(np.abs(v)))]
    s = (v * v).sum()
    if abs(s) < 1e-12:
        return v * (np.conj(piv) / abs(piv))
    rot = np.exp(-0.5j * np.angle(s))
    return v * (rot if (piv * rot).real >= 0 else -rot)


def shift_invert_eigs(A: SparseOperator, shift: complex, m: int
                      ) -> list[EigenPair]:
    """The m eigenpairs of A nearest `shift`, sorted by |lambda - shift|,
    each vector in `_unit_gauge` and each residual within RESIDUAL_TOL.

    Arnoldi runs on (A - shift I)^{-1}, one LU solve per Krylov vector, up to
    the cap min(n, max(4m + 24, 200)) vectors, its one limit. Ritz values mu
    map back through lambda = shift + 1/mu. Residuals are measured on A
    itself, never on the projected problem. The basis V starts at K + 1
    rows and doubles, up to cap + 1, when K outgrows it.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > A.n:
        raise ValueError("m exceeds operator dimension")
    n = A.n
    lu = lu_factor(A, shift)
    rng = np.random.default_rng(_SEED)

    def draw():  # real draws keep a real factor's Krylov space real
        x = rng.standard_normal(n)
        return x if lu.real else x + 1j * rng.standard_normal(n)

    v0 = draw()
    v0 /= norm(v0)

    cap = min(n, max(4 * m + 24, 200))
    K = min(n, max(2 * m + 4, 8))
    V = np.zeros((K + 1, n), dtype=np.complex128)  # basis vectors as rows
    Hm = np.zeros((cap + 1, cap), dtype=np.complex128)
    V[0] = v0
    built = 0  # one LU solve per built vector
    best_res = np.inf

    while True:
        if len(V) <= K:
            V = np.concatenate((V, np.zeros_like(V[:cap + 1 - len(V)])))
        while built < K:
            w = lu.solve(V[built])
            wnorm = norm(w)
            # classical Gram-Schmidt, twice: cheap and reliably orthogonal;
            # conj(sum V conj(w)) conjugates w once instead of a copy of V
            for _ in range(2):
                h = np.conj((V[:built + 1] * np.conj(w)[None, :]).sum(axis=1))
                w = w - (V[:built + 1] * h[:, None]).sum(axis=0)
                Hm[:built + 1, built] += h
            beta = norm(w)
            if beta <= 1e-12 * max(wnorm, 1e-300):
                # w already in the span: try a fresh orthogonal direction
                fresh = draw()
                for _ in range(2):
                    h = np.conj((V[:built + 1]
                                 * np.conj(fresh)[None, :]).sum(axis=1))
                    fresh = fresh - (V[:built + 1] * h[:, None]).sum(axis=0)
                bn = norm(fresh)
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
        mu, Y = hessenberg_eig(Hm[:k, :k], count=m)
        lam = shift + 1.0 / np.where(mu[:m] == 0, np.finfo(float).tiny, mu[:m])
        order = np.argsort(np.abs(lam - shift), kind="stable")
        pairs: list[EigenPair] = []
        worst = 0.0
        for idx in order:
            v = _unit_gauge((V[:k] * Y[:, idx][:, None]).sum(axis=0))
            r = A.apply(v) - lam[idx] * v
            res = float(norm(r))
            best_res = min(best_res, res)
            pairs.append(EigenPair(complex(lam[idx]), v, res))
            worst = max(worst, res)
        if worst <= RESIDUAL_TOL:
            return pairs
        if K >= cap:
            raise NoConvergence(built, float(best_res), (
                f"no convergence at the Krylov cap of {K} vectors after "
                f"{built} solves (best residual {best_res:.3e})"))
        K = min(cap, K + 4)


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
        if norm(v) <= 1e-14 * scale:
            v = np.array([lam - M[1, 1], M[1, 0]], dtype=np.complex128)
        if norm(v) <= 1e-14 * scale:
            v = np.array([1.0, 0.0], dtype=np.complex128)
        return _unit_gauge(v)

    def residual(lam: complex, v: np.ndarray) -> float:
        r = np.array([M[0, 0] * v[0] + M[0, 1] * v[1] - lam * v[0],
                      M[1, 0] * v[0] + M[1, 1] * v[1] - lam * v[1]])
        return float(norm(r))

    if degenerate:
        v = vec(lam_p)
        return [EigenPair(complex(lam_p), v, residual(lam_p, v), True),
                EigenPair(complex(lam_m), v.copy(), residual(lam_m, v), True)]
    vp, vm = vec(lam_p), vec(lam_m)
    return [EigenPair(complex(lam_p), vp, residual(lam_p, vp)),
            EigenPair(complex(lam_m), vm, residual(lam_m, vm))]
