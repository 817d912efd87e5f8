"""Parameter sweeps with mode tracking, diagnostics rows, and peak finding.

A sweep walks a strictly increasing parameter grid (detuning for the
two-level model, deformation for the cavity), solves for m modes at each
point, matches them to the previous point's modes by eigenvector overlap,
and assembles one record per point carrying every per-mode diagnostic the
rest of the package defines. `detect_peaks` then locates a diagnostic's
argmax along the sweep, raw and refined to sub-grid precision.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .circstats import NODE_CUTOFF, extract_phases
from .entropy import ALPHAS, K_MAX, N_BINS, entropy_report
from .linalg import NoConvergence, SingularShift, norm
from .models import (
    CavitySpec,
    GridTooCoarse,
    InvalidSetting,
    TwoLevelParams,
    check_finite,
    solve_cavity_modes,
    two_level_modes,
)
from .nonorth import rigidity_report


class NoInteriorPeak(Exception):
    """Field maximum sits on a sweep endpoint."""


def anchored_grid(start: float, stop: float, step: float) -> np.ndarray:
    """Grid (k0 + i) * step with k0 = round(start / step).

    Anchoring to integer multiples of the step keeps special parameter
    values (zero detuning in particular) exactly on the grid, and the point
    set is reproducible bitwise from the three scalars.
    """
    if not np.all(np.isfinite((start, stop, step))):
        raise ValueError("start, stop and step must be finite")
    if not (step > 0.0):
        raise ValueError("step must be positive")
    if stop < start:
        raise ValueError("stop must be >= start")
    q0, q = start / step, stop / step
    if not np.all(np.isfinite((q0, q))):
        raise ValueError("start / step and stop / step must be finite")
    k0 = int(round(q0))
    n = int(np.floor(q + max(1e-9, abs(q) * 1e-12))) - k0 + 1
    if n < 1:
        raise ValueError("grid is empty")
    return (k0 + np.arange(n, dtype=np.float64)) * step


def check_orders(alphas) -> None:
    """The rule for Renyi orders, each positive (NaN fails here) and finite,
    as an InvalidSetting naming `alphas`; a CSV header's orders obey it
    too."""
    if not all(a > 0.0 for a in alphas):
        raise InvalidSetting("alphas", "alpha must be positive")
    check_finite(alphas=alphas)


def _check_count(name: str, value, least: int) -> None:
    """The rule for a count setting, an integer (NaN, inf and 3.5 are not)
    of at least `least`, as an InvalidSetting naming `name`."""
    if not isinstance(value, (int, np.integer)) or value < least:
        raise InvalidSetting(name, f"{name} must be an integer >= {least}")


def check_analysis(N_bins: int, K_max: int, alphas: tuple,
                   node_cutoff: float) -> None:
    """The analysis settings' checks, each an InvalidSetting naming its
    SweepConfig field; `analyze` runs them before it reads a file."""
    _check_count("N_bins", N_bins, 2)
    _check_count("K_max", K_max, 1)
    if len(alphas) < 1:
        raise InvalidSetting("alphas", "alpha must be positive")
    check_orders(alphas)
    if not (0.0 <= node_cutoff < 1.0):
        raise InvalidSetting("node_cutoff", "node_cutoff must lie in [0, 1)")


@dataclass
class SweepConfig:
    """Every setting of one sweep. Each range is checked here or in the
    TwoLevelParams/CavitySpec built here, as an InvalidSetting naming it."""
    model: str
    grid: np.ndarray
    m: int = 2
    # two-level couplings
    g: float = 1.0
    gamma: float = 0.0
    # cavity geometry and absorber
    variant: str = CavitySpec.variant
    cap_strength: float = CavitySpec.cap_strength
    cap_width: float = CavitySpec.cap_width
    h: float | None = CavitySpec.h
    mean_radius: float = CavitySpec.mean_radius
    k_target: float = 2.4
    # analysis settings shared by every row
    N_bins: int = N_BINS
    K_max: int = K_MAX
    alphas: tuple = ALPHAS
    node_cutoff: float = NODE_CUTOFF

    def __post_init__(self):
        if self.model not in ("two_level", "cavity"):
            raise InvalidSetting("model", f"unknown model '{self.model}'")
        self.grid = np.asarray(self.grid, dtype=np.float64)
        if self.grid.ndim != 1 or self.grid.size < 1:
            raise InvalidSetting("grid", "grid must be a nonempty 1-D array")
        check_finite(grid=self.grid, k_target=self.k_target)
        if self.grid.size > 1 and not np.all(np.diff(self.grid) > 0.0):
            raise InvalidSetting("grid", "grid must be strictly increasing")
        _check_count("m", self.m, 1)
        if self.model == "two_level":
            if self.m != 2:
                raise InvalidSetting(
                    "m", "two-level sweeps always track both modes")
            TwoLevelParams(float(self.grid[0]), self.g, self.gamma)
            self.spec(0.0)
        else:
            TwoLevelParams(0.0, self.g, self.gamma)
            if not (self.k_target > 0.0):
                raise InvalidSetting("k_target", "k_target must be positive")
            # epsilon constraints are monotone, so the endpoints vet the grid
            for eps in (float(self.grid[0]), float(self.grid[-1])):
                self.spec(eps)
        check_analysis(self.N_bins, self.K_max, self.alphas, self.node_cutoff)
        self.alphas = tuple(float(a) for a in self.alphas)

    def spec(self, epsilon: float) -> CavitySpec:
        """The cavity this sweep solves at deformation `epsilon`."""
        return CavitySpec(epsilon, self.mean_radius, self.h, self.variant,
                          self.cap_strength, self.cap_width)


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


_RENYI = "renyi_"  # the one spelling of a Renyi column name's prefix


def _columns(alphas):
    """(name, field, Renyi order or None) of each diagnostics column in CSV
    order: the fields as declared, renyi as one column per distinct order,
    ascending, spelled :g where that reads back to the order exactly and
    repr() elsewhere, so each name reads back to its own order."""
    for f in fields(ModeDiagnostics):
        if f.name != "renyi":
            yield f.name, f, None
            continue
        for a in sorted(set(alphas)):
            short = f"{a:g}"
            yield _RENYI + (short if float(short) == a else repr(a)), f, a


def diagnostic_columns(alphas) -> list:
    """The diagnostics column names of rows with Renyi orders `alphas`."""
    return [name for name, _, _ in _columns(alphas)]


def diagnostic_values(row, alphas) -> list:
    """`row`'s values in diagnostic_columns(alphas) order, a flag as 0 or 1;
    a failed point (row None) has nan for every number and 0 for every
    flag."""
    if row is None:
        return [0 if f.type == "bool" else np.nan
                for _, f, _ in _columns(alphas)]
    return [row.renyi[a] if a is not None else int(getattr(row, f.name))
            if f.type == "bool" else getattr(row, f.name)
            for _, f, a in _columns(alphas)]


def diagnostics_from_values(values, alphas) -> ModeDiagnostics:
    """The row whose diagnostic_values(row, alphas) are `values`, each read
    with float() and a flag with int(), so CSV cells read as well."""
    cols = [(f, a, bool(int(v)) if f.type == "bool" else float(v))
            for (_, f, a), v in zip(_columns(alphas), values, strict=True)]
    return ModeDiagnostics(
        renyi={a: v for _, a, v in cols if a is not None},
        **{f.name: v for f, a, v in cols if a is None})


def column_order(name: str):
    """The Renyi order a Renyi column name spells, or None."""
    try:
        return float(name[len(_RENYI):]) if name.startswith(_RENYI) else None
    except ValueError:
        return None


def record_orders(records: list) -> tuple:
    """The Renyi orders of the first record that has a mode, or ()."""
    return next((tuple(r.modes[0].renyi) for r in records if r.modes), ())


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


def mode_diagnostics(m, N_bins: int = N_BINS, K_max: int = K_MAX,
                     alphas: tuple = ALPHAS,
                     node_cutoff: float = NODE_CUTOFF) -> ModeDiagnostics:
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


def track_modes(prev: list, nxt: list) -> tuple:
    """Greedy maximum-overlap branch assignment.

    Overlaps are |<a|b>| / (|a| |b|) on the lattice points both grids share,
    matched by GridGeometry.lattice_key; 0 when nothing is shared or a vector
    vanishes. Returns (perm, margin): perm[i] is the nxt-index taken by
    previous branch i, and margin is the smallest lead of a winning overlap
    over its runner-up among the steps that had a choice (inf if none did).
    """
    if len(prev) != len(nxt):
        raise ValueError("mode lists must have equal length")
    ga, gb = prev[0].geometry, nxt[0].geometry
    if any(p.geometry is not ga for p in prev) \
            or any(q.geometry is not gb for q in nxt):
        raise ValueError("modes of one point must share one grid")
    if (ga is None) != (gb is None):
        raise ValueError("cannot mix grid modes with two-level modes")
    a = np.stack([p.psi for p in prev])
    b = np.stack([q.psi for q in nxt])
    if ga is not None:
        _, ia, ib = np.intersect1d(ga.lattice_key, gb.lattice_key,
                                   assume_unique=True, return_indices=True)
        a, b = a[:, ia], b[:, ib]
    dots = np.abs(np.sum(np.conj(a)[:, None, :] * b[None, :, :], axis=2))
    norms = np.array([norm(v) for v in a])[:, None] \
        * np.array([norm(v) for v in b])[None, :]
    overlaps = np.divide(dots, norms, out=np.zeros_like(dots),
                         where=norms > 0.0)
    n = len(prev)
    perm = np.full(n, -1, dtype=np.int64)
    margin = np.inf
    for step in range(n):
        i, j = np.unravel_index(int(np.argmax(overlaps)), overlaps.shape)
        if step < n - 1:
            margin = min(margin, float(overlaps[i, j]
                                       - np.delete(overlaps[i], j).max()))
        perm[i] = j
        overlaps[i, :] = -1.0  # taken rows and columns drop out
        overlaps[:, j] = -1.0
    return perm, margin


def _solve_point(cfg: SweepConfig, x: float) -> list:
    if cfg.model == "two_level":
        return two_level_modes(TwoLevelParams(x, cfg.g, cfg.gamma))
    return solve_cavity_modes(cfg.spec(x), cfg.k_target, cfg.m)


@dataclass(frozen=True)
class SolvedPoint:
    """One point of `solve_points`: its modes, or none and an error naming
    the cause. `margin` is `track_modes`' lead, inf at the first solved
    point and at a failed one; an ambiguous point keeps the solver's order,
    any other its modes' branch order."""
    parameter: float
    modes: list
    error: str | None
    margin: float

    @property
    def ambiguous(self) -> bool:
        return self.margin < 1e-6


def solve_points(cfg: SweepConfig):
    """Yield a SolvedPoint for each grid point, in grid order, its modes
    matched to the last solved point's by `track_modes`. A solver failure
    yields no modes and an error naming its cause, and the walk keeps going
    and tracks across the gap: shifts near a degeneracy can be close to
    singular, and that neighborhood is exactly the region under study.
    """
    prev = None
    for x in cfg.grid.tolist():
        try:
            modes = _solve_point(cfg, x)
        except (SingularShift, NoConvergence, GridTooCoarse) as exc:
            yield SolvedPoint(x, [], f"{type(exc).__name__}: {exc}", np.inf)
            continue
        order, margin = (range(len(modes)), np.inf) if prev is None \
            else track_modes(prev, modes)
        point = SolvedPoint(x, modes, None, margin)
        if not point.ambiguous:
            point = replace(point, modes=[modes[int(j)] for j in order])
        prev = point.modes
        yield point


def run_sweep(cfg: SweepConfig) -> list:
    """One record per point of `solve_points`, in grid order; failed points
    keep their row with its error."""
    return [SweepRecord(p.parameter,
                        [mode_diagnostics(md, cfg.N_bins, cfg.K_max,
                                          cfg.alphas, cfg.node_cutoff)
                         for md in p.modes], p.error, p.ambiguous)
            for p in solve_points(cfg)]


@dataclass(frozen=True)
class PeakEntry:
    field: str
    raw_argmax: float
    refined_argmax: float
    height: float
    index: int


def check_fields(names, alphas) -> list:
    """The index in diagnostic_columns(alphas) of each of `names`: a column
    name, or a Renyi name whose number lies within 1e-12 of an order. The
    first name that is neither raises InvalidSetting."""
    columns, _, orders = zip(*_columns(alphas))
    found = []
    for name in names:
        order = column_order(name)
        near = [i for i, a in enumerate(orders)
                if None not in (a, order) and abs(a - order) < 1e-12]
        if name not in columns and not near:
            raise InvalidSetting(name, f"unknown field '{name}'"
                                 if order is None else f"field '{name}': "
                                 "alpha missing from records")
        found.append(columns.index(name) if name in columns else near[0])
    return found


def field_series(records: list, field: str, mode_index: int = 0):
    """(parameters, values) arrays of column `field`, named as check_fields
    takes it for the records' Renyi orders; failed rows and rows without
    that mode contribute NaN."""
    alphas = record_orders(records)
    i, = check_fields([field], alphas)
    vals = [float(diagnostic_values(r.modes[mode_index], alphas)[i])
            if r.error is None and mode_index < len(r.modes) else np.nan
            for r in records]
    return np.array([r.parameter for r in records]), np.array(vals)


def detect_peaks(records: list, field: str) -> PeakEntry:
    """Mode 0's raw argmax plus quadratic sub-grid refinement over its triple.

    The refined argmax is the vertex of the parabola through the triple,
    x0 + (d-^2 g+ - d+^2 g-) / (2 (d- g+ - d+ g-)), where d+- and g+- are the
    neighbours' offsets from (x0, y0), so an uneven grid refines as truly as
    a uniform one. When any of those values is non-finite, or the triple is
    collinear, the refined argmax falls back to the raw one.
    """
    if len(records) < 3:
        raise ValueError("need at least 3 records")
    params, vals = field_series(records, field)
    finite = np.isfinite(vals)
    if not np.any(finite[:-2] & finite[1:-1] & finite[2:]):
        raise ValueError(
            f"field '{field}' is finite on fewer than 3 consecutive rows")
    comparable = np.where(np.isnan(vals), -np.inf, vals)
    i = int(np.argmax(comparable))
    if i == 0 or i == len(records) - 1:
        raise NoInteriorPeak(
            f"field '{field}' peaks at sweep endpoint {params[i]!r}")
    x0 = float(params[i])
    dm, dp = float(params[i - 1]) - x0, float(params[i + 1]) - x0
    ym, y0, yp = float(vals[i - 1]), float(vals[i]), float(vals[i + 1])
    gm, gp = ym - y0, yp - y0
    refined = x0
    den = dm * gp - dp * gm
    if np.isfinite(ym) and np.isfinite(y0) and np.isfinite(yp) \
            and den != 0.0:
        cand = x0 + 0.5 * (dm * dm * gp - dp * dp * gm) / den
        if np.isfinite(cand):
            refined = cand
    return PeakEntry(field, x0, refined, y0, i)
