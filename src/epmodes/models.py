"""Parametric systems whose eigenmodes get analyzed downstream.

Two families: an analytic two-level matrix [[delta - i*gamma, g], [g, -delta]]
that hosts an exceptional point at delta = 0, gamma = 2g, and finite-difference
Helmholtz operators on an ellipse with semi-axes a = R(1+eps), b = R(1-eps).
The open variant absorbs inside the rim through a quadratic CAP strip,
-i*eta*W(r) on the diagonal, which keeps the operator complex symmetric while
making it non-Hermitian.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass, field
from functools import cached_property

from .linalg import SparseOperator, eig2x2, norm, shift_invert_eigs


_THETA_MIN = 1e-3  # a point on the wall would put 1/theta -> inf on the diagonal


class GridTooCoarse(Exception):
    """Fewer than 100 interior points: the grid cannot resolve a mode."""


class InvalidSetting(ValueError):
    """A setting with a bad value; `field` names the setting as the caller
    wrote it: a dataclass field, a config key, an override item or a flag."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(message)


def check_finite(**settings) -> None:
    """InvalidSetting naming the first of `settings` (name=value, a value a
    number or an array) that holds a NaN or an infinity. A float setting's
    owner calls this once, before its range checks."""
    for name, value in settings.items():
        if not np.all(np.isfinite(value)):
            raise InvalidSetting(name, f"{name} must be finite")


@dataclass(frozen=True)
class TwoLevelParams:
    delta: float
    g: float
    gamma: float = 0.0

    def __post_init__(self):
        check_finite(g=self.g, gamma=self.gamma)
        if not self.g > 0:
            raise InvalidSetting("g", "coupling g must be positive")
        if self.gamma < 0:
            raise InvalidSetting("gamma", "loss gamma must be nonnegative")


@dataclass(frozen=True)
class CavitySpec:
    epsilon: float
    mean_radius: float = 1.0
    h: float | None = None  # None -> mean_radius / 50
    variant: str = "closed"
    cap_strength: float = 0.0
    cap_width: float = 0.2

    def __post_init__(self):
        if self.h is None:
            object.__setattr__(self, "h", self.mean_radius / 50.0)
        check_finite(mean_radius=self.mean_radius, h=self.h,
                     cap_strength=self.cap_strength, cap_width=self.cap_width)
        # checked in field order, so the first bad field is the one named
        if not (0.0 <= self.epsilon < 0.5):
            raise InvalidSetting("epsilon", "epsilon must lie in [0, 0.5)")
        if not self.mean_radius > 0:
            raise InvalidSetting("mean_radius", "mean_radius must be positive")
        if not self.h > 0:
            raise InvalidSetting("h", "grid step h must be positive")
        if self.variant not in ("closed", "open"):
            raise InvalidSetting("variant",
                                 "variant must be 'closed' or 'open'")
        if self.cap_strength < 0:
            raise InvalidSetting("cap_strength",
                                 "cap_strength must be nonnegative")
        if self.variant == "closed" and self.cap_strength != 0.0:
            raise InvalidSetting("cap_strength",
                                 "closed variant requires cap_strength = 0")
        if not self.cap_width > 0:
            raise InvalidSetting("cap_width", "cap_width must be positive")

    @property
    def semi_axes(self) -> tuple[float, float]:
        return (self.mean_radius * (1.0 + self.epsilon),
                self.mean_radius * (1.0 - self.epsilon))


class GridGeometry:
    """Square lattice clipped to the strict ellipse interior.

    The lattice is anchored at the origin: array cell (i, j) sits at
    (ix_min + i, iy_min + j) * h. pt_ix/pt_iy are array indices, which shift
    with the bounding box; `lattice_key` (absolute lattice coordinates, one
    int64 per point) is the cross-grid identity that lets a sweep compare
    modes across deformation without interpolation.

    `neighbors`, the one lattice adjacency, is built on first use: for each
    stencil arm (dx, dy) it holds every point's neighbour index, -1 where
    that lattice point lies outside the ellipse. `cap_profile` is per point.

    The anchoring is load-bearing: coordinates negate exactly, so the grid
    and its operators are bitwise mirror symmetric (see `parity_basis`).
    """

    def __init__(self, spec: CavitySpec):
        a, b = spec.semi_axes
        h = spec.h
        mx = int(np.floor(a / h))
        my = int(np.floor(b / h))
        self.spec = spec
        self.h = h
        self.ix_min = -mx
        self.iy_min = -my
        self.nx = 2 * mx + 1
        self.ny = 2 * my + 1
        self.xs = (np.arange(self.nx) + self.ix_min) * h
        self.ys = (np.arange(self.ny) + self.iy_min) * h
        X = self.xs[:, None]
        Y = self.ys[None, :]
        rho2 = (X / a) ** 2 + (Y / b) ** 2
        self.interior_mask = rho2 < 1.0
        self.npts = int(self.interior_mask.sum())
        if self.npts < 100:
            raise GridTooCoarse(
                f"{self.npts} interior points at h={h}; need at least 100")
        # x-major flattening, y fastest: bandwidth stays ~ ny
        self.index_of = np.full((self.nx, self.ny), -1, dtype=np.int64)
        self.index_of[self.interior_mask] = np.arange(self.npts)
        self.pt_ix, self.pt_iy = np.nonzero(self.interior_mask)
        self.pt_x = self.xs[self.pt_ix]
        self.pt_y = self.ys[self.pt_iy]
        # boundary distance along the radial ray through each point:
        # the ray exits the ellipse at r/rho, so d = r (1 - rho) / rho
        r = np.sqrt(self.pt_x**2 + self.pt_y**2)
        rho = np.sqrt((self.pt_x / a) ** 2 + (self.pt_y / b) ** 2)
        d = np.where(rho > 1e-15, r * (1.0 - rho) / np.where(rho > 1e-15, rho, 1.0), b)
        d0 = spec.cap_width
        self.cap_profile = np.where(d < d0, ((d0 - d) / d0) ** 2, 0.0)

    @cached_property
    def lattice_key(self) -> np.ndarray:
        # built on first use: only tracking across grids reads it
        return (self.ix_min + self.pt_ix.astype(np.int64)) * 2**32 \
            + (self.iy_min + self.pt_iy)  # ascending while |y| < 2^31

    @cached_property
    def neighbors(self) -> dict[tuple[int, int], np.ndarray]:
        pad = np.pad(self.index_of, 1, constant_values=-1)
        return {(dx, dy): pad[self.pt_ix + 1 + dx, self.pt_iy + 1 + dy]
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))}

    @cached_property
    def parity_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """(block, weight), each (4, npts): point p enters column block[s, p]
        of the real orthogonal D2 basis Q with weight chi_s(p) / sqrt|O_p|,
        O_p being p's mirror orbit and chi_s the sign pattern of sector
        s = ee, eo, oe, oo (x parity first); weight 0 where s has no vector
        for O_p. Each sector's columns follow its quadrant points x-major."""
        X, Y = self.ix_min + self.pt_ix, self.iy_min + self.pt_iy
        odd_x, odd_y = np.array([[0, 0, 1, 1], [0, 1, 0, 1]])[..., None]
        member = ((X != 0) | (odd_x == 0)) & ((Y != 0) | (odd_y == 0))
        # sector by sector, a quadrant point's rank is its column
        col = np.cumsum(member & (X >= 0) & (Y >= 0)).reshape(4, -1) - 1
        rep = self.index_of[np.abs(X) - self.ix_min, np.abs(Y) - self.iy_min]
        chi = (-1.0) ** (odd_x * (X < 0) + odd_y * (Y < 0))
        scale = 1.0 / np.sqrt((1.0 + (X != 0)) * (1.0 + (Y != 0)))
        return (np.where(member, col[:, rep], 0),
                np.where(member, chi * scale, 0.0))


def provenance_of(geometry: GridGeometry | None) -> str:
    """`two_level` with no geometry, else `cavity_<the grid's variant>`."""
    return "two_level" if geometry is None \
        else f"cavity_{geometry.spec.variant}"


@dataclass
class Mode:
    """One eigenmode: complex values on interior points, intensity-normalized
    so that sum |psi|^2 h^2 = 1 (h = 1 for the two-level system)."""

    geometry: GridGeometry | None
    psi: np.ndarray
    eigen_k: complex
    provenance: str
    residual_norm: float = 0.0
    degenerate: bool = False

    def __post_init__(self):
        want = provenance_of(self.geometry)
        if self.provenance != want:
            raise InvalidSetting("provenance", f"provenance must be "
                                 f"{want!r}, not {self.provenance!r}")
        if np.ndim(self.psi) != 1:
            raise ValueError(f"psi must be 1-D, not of shape "
                             f"{np.shape(self.psi)}")
        if self.geometry is not None and len(self.psi) != self.geometry.npts:
            raise ValueError(f"psi has {len(self.psi)} entries, its grid "
                             f"{self.geometry.npts} points")
        total = float(norm(self.psi) * self.h) ** 2
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"mode not intensity-normalized: {total!r}")

    @property
    def h(self) -> float:
        return self.geometry.h if self.geometry is not None else 1.0


def two_level_hamiltonian(p: TwoLevelParams) -> np.ndarray:
    return np.array([[p.delta - 1j * p.gamma, p.g],
                     [p.g, -p.delta]], dtype=np.complex128)


def two_level_modes(p: TwoLevelParams) -> list[Mode]:
    """Both eigenmodes of the two-level matrix, psi in eig2x2's gauge."""
    pairs = eig2x2(two_level_hamiltonian(p))
    return [Mode(None, q.eigenvector, q.eigenvalue, provenance_of(None),
                 q.residual_norm, q.degenerate) for q in pairs]


def build_ellipse_grid(spec: CavitySpec) -> GridGeometry:
    return GridGeometry(spec)


def assemble_helmholtz(geom: GridGeometry, spec: CavitySpec) -> SparseOperator:
    """5-point -laplacian/h^2 on interior points, second-order Dirichlet wall.

    A point whose +-x or +-y neighbor lies outside the ellipse sees the wall
    at arm theta*h along that axis (closed form from the ellipse equation).
    Linear extrapolation to psi = 0 there gives the ghost value
    psi (1 - 1/theta), i.e. (1/theta - 1)/h^2 on the diagonal (Gibou, Fedkiw,
    Cheng & Kang, J. Comput. Phys. 176 (2002) 205); only the diagonal moves,
    so symmetry is kept. The open variant subtracts i*eta*W on the diagonal.
    Both variants are complex symmetric; the closed one is real symmetric.
    `spec` must equal `geom.spec`: `neighbors` and W come from the grid.
    """
    if spec != geom.spec:
        raise ValueError("spec differs from the spec geom was built from")
    h = geom.h
    h2 = h * h
    a, b = spec.semi_axes
    own = np.arange(geom.npts)
    rows, cols = [own], [own]
    # wall coordinates on the point's own row and column
    x_wall = a * np.sqrt(1.0 - (geom.pt_y / b) ** 2)
    y_wall = b * np.sqrt(1.0 - (geom.pt_x / a) ** 2)
    arms = {(1, 0): x_wall - geom.pt_x, (-1, 0): x_wall + geom.pt_x,
            (0, 1): y_wall - geom.pt_y, (0, -1): y_wall + geom.pt_y}
    diag = np.full(geom.npts, 4.0 / h2)
    vals = []
    for (dx, dy), arm in arms.items():
        nb = geom.neighbors[dx, dy]
        inside = nb >= 0
        theta = np.clip(arm / h, _THETA_MIN, 1.0)
        diag += np.where(inside, 0.0, 1.0 / theta - 1.0) / h2
        rows.append(own[inside])
        cols.append(nb[inside])
        vals.append(np.full(int(inside.sum()), -1.0 / h2))
    if spec.variant == "open" and spec.cap_strength > 0.0:
        diag = diag - 1j * spec.cap_strength * geom.cap_profile
    return SparseOperator(geom.npts, np.concatenate(rows),
                          np.concatenate(cols), np.concatenate([diag] + vals))


def parity_reduce(op: SparseOperator, geom: GridGeometry) -> SparseOperator:
    """Q^T A Q in the geometry's `parity_basis`: four diagonal blocks. A is
    checked to be bitwise invariant under both reflections, the condition
    for the cross-sector blocks to vanish. Each entry sums equal terms
    (w_r w_c) v, so the result is exactly complex symmetric. Only the
    representative row (X >= 0, Y >= 0) of each orbit O_r is read, its
    terms scaled by |O_r| in {1, 2, 4}: 2 or 4 equal terms sum exactly."""
    n = op.n
    for mirror in (geom.index_of[::-1, :], geom.index_of[:, ::-1]):
        image = mirror[geom.interior_mask]
        key = image[op.rows] * n + image[op.cols]
        order = np.argsort(key)
        if image.min() < 0 or np.any(key[order] != op.rows * n + op.cols) \
                or np.any(op.vals[order] != op.vals):
            raise ValueError("operator is not mirror symmetric")
    X = (geom.ix_min + geom.pt_ix)[op.rows]
    Y = (geom.iy_min + geom.pt_iy)[op.rows]
    rep = (X >= 0) & (Y >= 0)
    rows, cols = op.rows[rep], op.cols[rep]
    block, weight = geom.parity_basis
    w = weight[:, rows] * weight[:, cols] * (
        (1.0 + (X[rep] != 0)) * (1.0 + (Y[rep] != 0)))
    keep = w != 0.0
    keys = (block[:, rows] * n + block[:, cols])[keep]
    uniq, inv = np.unique(keys, return_inverse=True)
    vals = np.zeros(uniq.size, dtype=np.complex128)
    np.add.at(vals, inv, (w * op.vals[rep][None, :])[keep])
    return SparseOperator(n, uniq // n, uniq % n, vals)


def solve_cavity_modes(spec: CavitySpec, k_target: float, m: int
                       ) -> list[Mode]:
    """m modes of `spec` with k nearest k_target, shift-invert at k_target^2.

    One Arnoldi runs on `parity_reduce(A, grid)`, A the Helmholtz operator
    on the spec's grid; each Ritz vector y maps back as psi = Q y / h, with
    its residual measured on A. Q is real orthogonal, so psi keeps the
    solver's gauge of y: unit intensity and sum psi^2 real positive.
    k = sqrt(lambda) on the principal branch (Re k >= 0); for absorbing
    cavities Im lambda < 0 puts Im k < 0.
    """
    if not k_target > 0:
        raise ValueError("k_target must be positive")
    geom = build_ellipse_grid(spec)
    if m > geom.npts:  # a config's m, checkable only once the grid is built
        raise InvalidSetting("m", "m exceeds operator dimension")
    op = assemble_helmholtz(geom, spec)
    shift = k_target * k_target
    pairs = shift_invert_eigs(parity_reduce(op, geom), shift, m)
    block, weight = geom.parity_basis
    provenance = provenance_of(geom)
    out = []
    for q in pairs:
        k = complex(np.sqrt(np.complex128(q.eigenvalue)))
        v = (weight * q.eigenvector[block]).sum(axis=0)
        res = float(norm(op.apply(v) - q.eigenvalue * v))  # on A itself
        out.append(Mode(geom, v / geom.h, k, provenance, res, q.degenerate))
    return out
