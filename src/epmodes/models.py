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

from .linalg import SparseOperator, shift_invert_eigs, eig2x2


_THETA_MIN = 1e-3  # a point on the wall would put 1/theta -> inf on the diagonal


class GridTooCoarse(Exception):
    """Fewer than 100 interior points: the grid cannot resolve a mode."""


@dataclass(frozen=True)
class TwoLevelParams:
    delta: float
    g: float
    gamma: float = 0.0

    def __post_init__(self):
        if not self.g > 0:
            raise ValueError("coupling g must be positive")
        if self.gamma < 0:
            raise ValueError("loss gamma must be nonnegative")


@dataclass(frozen=True)
class CavitySpec:
    epsilon: float
    mean_radius: float = 1.0
    h: float | None = None  # None -> mean_radius / 50
    variant: str = "closed"
    cap_strength: float = 0.0
    cap_width: float = 0.2

    def __post_init__(self):
        if not (0.0 <= self.epsilon < 0.5):
            raise ValueError("epsilon must lie in [0, 0.5)")
        if not self.mean_radius > 0:
            raise ValueError("mean_radius must be positive")
        if self.variant not in ("closed", "open"):
            raise ValueError("variant must be 'closed' or 'open'")
        if self.h is None:
            object.__setattr__(self, "h", self.mean_radius / 50.0)
        if not self.h > 0:
            raise ValueError("grid step h must be positive")
        if self.cap_strength < 0:
            raise ValueError("cap_strength must be nonnegative")
        if self.variant == "closed" and self.cap_strength != 0.0:
            raise ValueError("closed variant requires cap_strength = 0")
        if not self.cap_width > 0:
            raise ValueError("cap_width must be positive")

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
        w = np.where(d < d0, ((d0 - d) / d0) ** 2, 0.0)
        self.cap_profile = np.zeros((self.nx, self.ny))
        self.cap_profile[self.interior_mask] = w

    @cached_property
    def lattice_key(self) -> np.ndarray:
        # built on first use: only tracking across grids reads it
        return (self.ix_min + self.pt_ix.astype(np.int64)) * 2**32 \
            + (self.iy_min + self.pt_iy)  # ascending while |y| < 2^31

    def embed(self, values: np.ndarray) -> np.ndarray:
        """Scatter per-point values onto the full grid, zero outside."""
        g = np.zeros((self.nx, self.ny), dtype=values.dtype)
        g[self.interior_mask] = values
        return g


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
        if self.provenance not in ("two_level", "cavity_closed", "cavity_open"):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        h = self.geometry.h if self.geometry is not None else 1.0
        total = float((np.abs(self.psi) ** 2).sum()) * h * h
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"mode not intensity-normalized: {total!r}")

    @property
    def h(self) -> float:
        return self.geometry.h if self.geometry is not None else 1.0


def two_level_hamiltonian(p: TwoLevelParams) -> np.ndarray:
    return np.array([[p.delta - 1j * p.gamma, p.g],
                     [p.g, -p.delta]], dtype=np.complex128)


def _align_gauge(v: np.ndarray) -> np.ndarray:
    # rotate so sum psi^2 is real positive; at self-orthogonality the sum
    # vanishes and the incoming gauge is kept
    s = sum((v * v).tolist())
    tot = float((np.abs(v) ** 2).sum())
    if abs(s) < 1e-12 * tot:
        return v
    return v * np.exp(-0.5j * np.angle(s))


def two_level_modes(p: TwoLevelParams) -> list[Mode]:
    """Both eigenmodes of the two-level matrix, as analyzable Mode objects."""
    pairs = eig2x2(two_level_hamiltonian(p))
    return [Mode(None, _align_gauge(q.eigenvector), q.eigenvalue,
                 "two_level", q.residual_norm, q.degenerate)
            for q in pairs]


def build_ellipse_grid(spec: CavitySpec) -> GridGeometry:
    return GridGeometry(spec)


class CavityOperator(SparseOperator):
    """Complex-symmetric SparseOperator on the interior points of `geometry`,
    which it keeps (with its spec) for turning eigenvectors into Modes."""

    def __init__(self, geometry: GridGeometry, rows, cols, vals):
        super().__init__(geometry.npts, rows, cols, vals, symmetric=True)
        self.geometry = geometry


def neighbor_view(arr: np.ndarray, dx: int, dy: int, fill) -> np.ndarray:
    """out[i, j] = arr[i + dx, j + dy], `fill` past the edges (no wrap)."""
    out = np.full_like(arr, fill)
    nx, ny = arr.shape
    out[max(0, -dx):nx + min(0, -dx), max(0, -dy):ny + min(0, -dy)] = \
        arr[max(0, dx):nx + min(0, dx), max(0, dy):ny + min(0, dy)]
    return out


def assemble_helmholtz(geom: GridGeometry, spec: CavitySpec) -> CavityOperator:
    """5-point -laplacian/h^2 on interior points, second-order Dirichlet wall.

    A point whose +-x or +-y neighbor lies outside the ellipse sees the wall
    at arm theta*h along that axis (closed form from the ellipse equation).
    Linear extrapolation to psi = 0 there gives the ghost value
    psi (1 - 1/theta), i.e. (1/theta - 1)/h^2 on the diagonal (Gibou, Fedkiw,
    Cheng & Kang, J. Comput. Phys. 176 (2002) 205); only the diagonal moves,
    so symmetry is kept. The open variant subtracts i*eta*W on the diagonal.
    Both variants are complex symmetric; the closed one is real symmetric.
    """
    h = geom.h
    h2 = h * h
    a, b = spec.semi_axes
    mask = geom.interior_mask
    idx = geom.index_of
    rows = [idx[mask]]
    cols = [idx[mask]]
    # wall coordinates on the point's own row and column
    x_wall = a * np.sqrt(1.0 - (geom.pt_y / b) ** 2)
    y_wall = b * np.sqrt(1.0 - (geom.pt_x / a) ** 2)
    arms = {(1, 0): x_wall - geom.pt_x, (-1, 0): x_wall + geom.pt_x,
            (0, 1): y_wall - geom.pt_y, (0, -1): y_wall + geom.pt_y}
    diag = np.full(geom.npts, 4.0 / h2)
    vals = []
    for (dx, dy), arm in arms.items():
        inside = neighbor_view(mask, dx, dy, False)
        theta = np.clip(arm / h, _THETA_MIN, 1.0)
        diag += np.where(inside[mask], 0.0, 1.0 / theta - 1.0) / h2
        both = mask & inside
        rows.append(idx[both])
        cols.append(neighbor_view(idx, dx, dy, -1)[both])
        vals.append(np.full(int(both.sum()), -1.0 / h2))
    if spec.variant == "open" and spec.cap_strength > 0.0:
        diag = diag - 1j * spec.cap_strength * geom.cap_profile[mask]
    return CavityOperator(geom, np.concatenate(rows), np.concatenate(cols),
                          np.concatenate([diag] + vals))


def solve_cavity_modes(op: CavityOperator, k_target: float, m: int
                       ) -> list[Mode]:
    """m modes with k nearest k_target, via shift-invert at shift = k_target^2.

    The operator must come from assemble_helmholtz: the modes live on its
    geometry, and the geometry's spec names their variant. Eigenvalues
    convert through k = sqrt(lambda) on the principal branch (Re k >= 0);
    for absorbing cavities Im lambda < 0 puts Im k < 0.
    """
    if not k_target > 0:
        raise ValueError("k_target must be positive")
    if not isinstance(op, CavityOperator):
        raise ValueError("operator lacks geometry; use assemble_helmholtz")
    geom = op.geometry
    shift = k_target * k_target
    pairs = shift_invert_eigs(op, shift, m)
    provenance = ("cavity_open" if geom.spec.variant == "open"
                  else "cavity_closed")
    out = []
    for q in pairs:
        k = complex(np.sqrt(np.complex128(q.eigenvalue)))
        psi = _align_gauge(q.eigenvector) / geom.h  # unit 2-norm -> unit intensity
        out.append(Mode(geom, psi, k, provenance, q.residual_norm, q.degenerate))
    return out
