"""Parameter sweeps with mode tracking, diagnostics rows, and peak finding.

A sweep walks a strictly increasing parameter grid (detuning for the
two-level model, deformation for the cavity), solves for m modes at each
point, matches them to the previous point's modes by eigenvector overlap,
and assembles one record per point carrying every per-mode diagnostic the
rest of the package defines. `detect_peaks` then locates a diagnostic's
argmax along the sweep, raw and refined to sub-grid precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circstats import extract_phases
from .entropy import entropy_report
from .linalg import NoConvergence, SingularShift
from .models import (
    CavitySpec,
    GridTooCoarse,
    TwoLevelParams,
    assemble_helmholtz,
    build_ellipse_grid,
    solve_cavity_modes,
    two_level_modes,
)
from .nonorth import rigidity_report


class AmbiguousTracking(Exception):
    """Best and second-best overlaps too close to assign a branch."""


class NoInteriorPeak(Exception):
    """Field maximum sits on a sweep endpoint."""


def anchored_grid(start: float, stop: float, step: float) -> np.ndarray:
    """Grid (k0 + i) * step with k0 = round(start / step).

    Anchoring to integer multiples of the step keeps special parameter
    values (zero detuning in particular) exactly on the grid, and the point
    set is reproducible bitwise from the three scalars.
    """
    if not (step > 0.0):
        raise ValueError("step must be positive")
    if stop < start:
        raise ValueError("stop must be >= start")
    k0 = int(round(start / step))
    q = stop / step
    n = int(np.floor(q + max(1e-9, abs(q) * 1e-12))) - k0 + 1
    if n < 1:
        raise ValueError("grid is empty")
    return (k0 + np.arange(n, dtype=np.float64)) * step


@dataclass
class SweepConfig:
    model: str
    grid: np.ndarray
    m: int = 2
    # two-level couplings
    g: float = 1.0
    gamma: float = 0.0
    # cavity geometry and absorber
    variant: str = "closed"
    cap_strength: float = 0.0
    cap_width: float = 0.2
    h: float | None = None
    mean_radius: float = 1.0
    k_target: float = 2.4
    # analysis settings shared by every row
    N_bins: int = 720
    K_max: int = 50
    alphas: tuple = (1.0, 1.5, 2.0)
    node_cutoff: float = 1e-12

    def __post_init__(self):
        if self.model not in ("two_level", "cavity"):
            raise ValueError(f"unknown model '{self.model}'")
        self.grid = np.asarray(self.grid, dtype=np.float64)
        if self.grid.ndim != 1 or self.grid.size < 1:
            raise ValueError("grid must be a nonempty 1-D array")
        if self.grid.size > 1 and not np.all(np.diff(self.grid) > 0.0):
            raise ValueError("grid must be strictly increasing")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.model == "two_level":
            if self.m != 2:
                raise ValueError("two-level sweeps always track both modes")
            TwoLevelParams(float(self.grid[0]), self.g, self.gamma)
        else:
            if not (self.k_target > 0.0):
                raise ValueError("k_target must be positive")
            # epsilon constraints are monotone, so the endpoints vet the grid
            for eps in (float(self.grid[0]), float(self.grid[-1])):
                CavitySpec(eps, self.mean_radius, self.h, self.variant,
                           self.cap_strength, self.cap_width)
        if self.N_bins < 2:
            raise ValueError("N_bins must be >= 2")
        if self.K_max < 1:
            raise ValueError("K_max must be >= 1")
        if len(self.alphas) < 1 or any(a <= 0.0 for a in self.alphas):
            raise ValueError("alphas must be positive")
        self.alphas = tuple(float(a) for a in self.alphas)
        if not (0.0 <= self.node_cutoff < 1.0):
            raise ValueError("node_cutoff must lie in [0, 1)")


@dataclass(frozen=True)
class ModeDiagnostics:
    re_eigenvalue: float
    im_eigenvalue: float
    R1: float
    R2: float
    r_abs: float
    K: float
    S_folded: float
    S_unfolded: float
    S_value: float
    uncertainty_sum: float
    renyi: dict
    chi_squared: float
    degenerate_alignment: bool


@dataclass(frozen=True)
class SweepRecord:
    parameter: float
    modes: list
    error: str | None = None
    track_ambiguous: bool = False

    def __post_init__(self):
        # cross-module identity recorded per row: away from the flagged
        # self-orthogonal regime, K must be the inverse square of R2
        for row in self.modes:
            if row.R2 > 1e-5:
                if not np.isfinite(row.K) \
                        or abs(row.K * row.R2 ** 2 - 1.0) > 1e-8:
                    raise ValueError("row violates K * R2^2 = 1")


def mode_diagnostics(m, N_bins: int = 720, K_max: int = 50,
                     alphas: tuple = (1.0, 1.5, 2.0),
                     node_cutoff: float = 1e-12) -> ModeDiagnostics:
    """Every per-mode scalar the sweep records, from one solved mode.

    R1, R2 and the entropies all come from the report's one mu_2 alignment.
    """
    s = extract_phases(m, node_cutoff)
    rep = entropy_report(s, N_bins, K_max, alphas)
    rig = rigidity_report(m)
    lam = complex(m.eigen_k)
    return ModeDiagnostics(
        re_eigenvalue=lam.real,
        im_eigenvalue=lam.imag,
        R1=rep.alignment.R1,
        R2=rep.alignment.R2,
        r_abs=rig.r_abs,
        K=rig.K,
        S_folded=rep.S_folded,
        S_unfolded=rep.S_unfolded,
        S_value=rep.S_value,
        uncertainty_sum=rep.uncertainty_sum,
        renyi=dict(rep.renyi),
        chi_squared=rep.chi_squared,
        degenerate_alignment=rep.alignment.degenerate,
    )


def _lattice_keys(g) -> np.ndarray:
    # composite integer key per interior point; indices sit well inside 2^20
    off = np.int64(1) << 20
    return (g.pt_ix.astype(np.int64) + off) * (np.int64(1) << 21) \
        + (g.pt_iy.astype(np.int64) + off)


def _overlap(pa, pb) -> float:
    """Cosine overlap |<a|b>| / (|a| |b|), on the shared lattice when the
    two modes live on different deformations of the same integer grid."""
    ga, gb = pa.geometry, pb.geometry
    if ga is None and gb is None:
        a, b = pa.psi, pb.psi
    elif ga is not None and gb is not None:
        _, ia, ib = np.intersect1d(_lattice_keys(ga), _lattice_keys(gb),
                                   assume_unique=True, return_indices=True)
        if ia.size == 0:
            return 0.0
        a, b = pa.psi[ia], pb.psi[ib]
    else:
        raise ValueError("cannot mix grid modes with two-level modes")
    na = float(np.sqrt(np.sum(np.abs(a) ** 2)))
    nb = float(np.sqrt(np.sum(np.abs(b) ** 2)))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(abs(np.sum(np.conj(a) * b))) / (na * nb)


def track_modes(prev: list, nxt: list) -> np.ndarray:
    """Greedy maximum-overlap branch assignment.

    Returns perm with perm[i] the nxt-index taken by previous branch i.
    Raises AmbiguousTracking when the winning overlap for some branch beats
    the runner-up by less than 1e-6; the caller decides the fallback.
    """
    if len(prev) != len(nxt):
        raise ValueError("mode lists must have equal length")
    n = len(prev)
    overlaps = np.array([[_overlap(p, q) for q in nxt] for p in prev])
    perm = np.full(n, -1, dtype=np.int64)
    row_free = np.ones(n, dtype=bool)
    col_free = np.ones(n, dtype=bool)
    for _ in range(n):
        masked = np.where(np.outer(row_free, col_free), overlaps, -1.0)
        i, j = np.unravel_index(int(np.argmax(masked)), masked.shape)
        if int(col_free.sum()) > 1:
            others = masked[i].copy()
            others[j] = -1.0
            second = float(others.max())
            if overlaps[i, j] - second < 1e-6:
                raise AmbiguousTracking(
                    f"branch {i}: best overlap {overlaps[i, j]:.9f} "
                    f"vs runner-up {second:.9f}")
        perm[i] = j
        row_free[i] = False
        col_free[j] = False
    return perm


def _solve_point(cfg: SweepConfig, x: float) -> list:
    if cfg.model == "two_level":
        return two_level_modes(TwoLevelParams(x, cfg.g, cfg.gamma))
    spec = CavitySpec(x, cfg.mean_radius, cfg.h, cfg.variant,
                      cfg.cap_strength, cfg.cap_width)
    op = assemble_helmholtz(build_ellipse_grid(spec), spec)
    return solve_cavity_modes(op, cfg.k_target, cfg.m)


def solve_points(cfg: SweepConfig):
    """Yield (x, modes, error) for each grid point, in grid order.

    A solver failure yields no modes and an error naming its cause, and the
    walk keeps going: shifts near a degeneracy can be close to singular, and
    that neighborhood is exactly the region under study.
    """
    for x in cfg.grid.tolist():
        try:
            modes = _solve_point(cfg, x)
        except (SingularShift, NoConvergence, GridTooCoarse) as exc:
            yield x, [], f"{type(exc).__name__}: {exc}"
            continue
        yield x, modes, None


def run_sweep(cfg: SweepConfig) -> list:
    """One record per grid point, in grid order.

    Failed points keep their row with its error. Tracking is an ordered
    reduction over the successful points, so a failed point tracks across
    the gap.
    """
    records = []
    prev = None
    for x, modes, error in solve_points(cfg):
        if error is not None:
            records.append(SweepRecord(x, [], error))
            continue
        ambiguous = False
        if prev is not None:
            try:
                order = track_modes(prev, modes)
                modes = [modes[int(j)] for j in order]
            except AmbiguousTracking:
                ambiguous = True  # identity fallback, row flagged
        rows = [mode_diagnostics(md, cfg.N_bins, cfg.K_max, cfg.alphas,
                                 cfg.node_cutoff) for md in modes]
        records.append(SweepRecord(x, rows, None, ambiguous))
        prev = modes
    return records


@dataclass(frozen=True)
class PeakEntry:
    field: str
    raw_argmax: float
    refined_argmax: float
    height: float
    index: int


def _row_value(record: SweepRecord, field: str, mode_index: int) -> float:
    if record.error is not None or mode_index >= len(record.modes):
        return float("nan")
    row = record.modes[mode_index]
    if field.startswith("renyi_"):
        try:
            alpha = float(field[len("renyi_"):])
        except ValueError:
            raise ValueError(f"unknown field '{field}'") from None
        for key, val in row.renyi.items():
            if abs(key - alpha) < 1e-12:
                return float(val)
        raise ValueError(f"field '{field}': alpha missing from records")
    if field == "renyi" or not hasattr(row, field):
        raise ValueError(f"unknown field '{field}'")
    return float(getattr(row, field))


def field_series(records: list, field: str, mode_index: int = 0):
    """(parameters, values) arrays; failed rows contribute NaN."""
    params = np.array([r.parameter for r in records])
    vals = np.array([_row_value(r, field, mode_index) for r in records])
    return params, vals


def detect_peaks(records: list, field: str, mode_index: int = 0) -> PeakEntry:
    """Raw grid argmax plus quadratic sub-grid refinement over its triple.

    The refined vertex is x0 + step (y- - y+) / (2 (y- - 2 y0 + y+)); when
    any of those values is non-finite, or the triple is flat, the refined
    argmax falls back to the raw one.
    """
    if len(records) < 3:
        raise ValueError("need at least 3 records")
    params, vals = field_series(records, field, mode_index)
    run = best_run = 0
    for f in np.isfinite(vals):
        run = run + 1 if f else 0
        best_run = max(best_run, run)
    if best_run < 3:
        raise ValueError(
            f"field '{field}' is finite on fewer than 3 consecutive rows")
    comparable = np.where(np.isnan(vals), -np.inf, vals)
    i = int(np.argmax(comparable))
    if i == 0 or i == len(records) - 1:
        raise NoInteriorPeak(
            f"field '{field}' peaks at sweep endpoint {params[i]!r}")
    x0 = float(params[i])
    step = float(params[i + 1] - params[i - 1]) / 2.0
    ym, y0, yp = float(vals[i - 1]), float(vals[i]), float(vals[i + 1])
    refined = x0
    den = ym - 2.0 * y0 + yp
    if np.isfinite(ym) and np.isfinite(y0) and np.isfinite(yp) \
            and den != 0.0:
        cand = x0 + 0.5 * step * (ym - yp) / den
        if np.isfinite(cand):
            refined = cand
    return PeakEntry(field, x0, refined, y0, i)
