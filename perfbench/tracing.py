"""Span recording around the public functions of each epmodes module.

The benchmark times the program from outside: `install` replaces each public
function (and the two hot methods `Factorization.solve` and
`SparseOperator.apply`) with a wrapper that records a span, and `restore`
puts the originals back. Nothing under `src/` knows about it.

A name must be patched everywhere a caller looks it up, because
`from .circstats import fold_sum` binds a second reference in the importing
module; `install` therefore rebinds the name in every loaded `epmodes`
module whose attribute is the original object.

Spans stay in memory as tuples (name, start, end, parent, point, size) and
are written out once, when the run ends. `point` counts calls of the
per-point boundaries (`sweep._solve_point`, `io.read_mode_file`); `size` is
a per-call quantity noted after the call returns (elements summed, Krylov
dimension, bytes written, ...).
"""

from __future__ import annotations

import gzip
import inspect
import json
import os
import statistics
import sys
from time import perf_counter

import numpy as np

MODULES = ("models", "linalg", "sweep", "circstats", "entropy", "nonorth", "io")

# private names wrapped because they mark where one grid point (or one mode
# file) starts: spans after it carry its point identifier
POINT_BOUNDARIES = {("sweep", "_solve_point"), ("io", "read_mode_file")}

METHODS = (("linalg", "Factorization", "solve"),
           ("linalg", "SparseOperator", "apply"))


def _path_size(args, result):
    path = args[1] if len(args) > 1 else None
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


# per-call quantities, computed after the wrapped call returns
NOTES = {
    "circstats.fold_sum": lambda args, result: len(args[0]),
    "linalg.hessenberg_eig": lambda args, result: args[0].shape[0],
    "linalg.lu_factor": lambda args, result: (result.n, result.kl, result.ku),
    "io.write_sweep_csv": _path_size,
    "io.write_mode_file": _path_size,
    "io.read_mode_file": lambda args, result: os.path.getsize(args[0]),
}


class Tracer:
    """In-memory span recorder; one per traced phase."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.point = -1
        self._patched: list = []

    def _wrap(self, name, fn, new_point):
        spans, stack = self.spans, self._stack
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            if new_point:
                self.point += 1
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (name, t0, t1, parent, self.point, 0)
            if note is not None:
                spans[sid] = (name, t0, t1, parent, self.point,
                              note(args, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.span_name = name
        return traced

    def install(self) -> None:
        """Wrap every public function of MODULES where callers find it."""
        loaded = [m for k, m in sys.modules.items()
                  if k == "epmodes" or k.startswith("epmodes.")]
        for short in MODULES:
            mod = sys.modules[f"epmodes.{short}"]
            for attr, obj in list(vars(mod).items()):
                if not (inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    continue
                boundary = (short, attr) in POINT_BOUNDARIES
                if attr.startswith("_") and not boundary:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", obj, boundary)
                for holder in loaded:
                    if vars(holder).get(attr) is obj:
                        self._patched.append((holder, attr, obj))
                        setattr(holder, attr, wrapper)
        for short, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"epmodes.{short}"], cls_name)
            orig = cls.__dict__[meth]
            self._patched.append((cls, meth, orig))
            setattr(cls, meth,
                    self._wrap(f"{short}.{cls_name}.{meth}", orig, False))

    def restore(self) -> None:
        for holder, attr, obj in reversed(self._patched):
            setattr(holder, attr, obj)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def write(self, path) -> None:
        """All spans as gzipped JSON lines, one span per line."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for name, t0, t1, parent, point, size in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "point": point,
                                     "size": size}) + "\n")


def is_patched() -> bool:
    """True while any wrapper is still bound somewhere (a restore bug)."""
    for k, mod in list(sys.modules.items()):
        if k == "epmodes" or k.startswith("epmodes."):
            for obj in vars(mod).values():
                if hasattr(obj, "span_name"):
                    return True
    for short, cls_name, meth in METHODS:
        cls = getattr(sys.modules[f"epmodes.{short}"], cls_name)
        if hasattr(cls.__dict__[meth], "span_name"):
            return True
    return False


# ---------------------------------------------------------------------------
# span analysis


class SpanIndex:
    """Durations, self times and groupings over one tracer's spans."""

    def __init__(self, spans):
        self.spans = spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, point, size in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self.self_time = [s[2] - s[1] - c for s, c in zip(spans, child)]
        # nearest enclosing mode_diagnostics span, -1 outside any; parents
        # always precede their children, so one forward pass suffices
        mode_of = [-1] * len(spans)
        for i, (name, _, _, parent, _, _) in enumerate(spans):
            if name == "sweep.mode_diagnostics":
                mode_of[i] = i
            elif parent >= 0:
                mode_of[i] = mode_of[parent]
        self.mode_of = mode_of
        self.by_name: dict = {}
        for i, s in enumerate(spans):
            self.by_name.setdefault(s[0], []).append(i)

    def count(self, name) -> int:
        return len(self.by_name.get(name, ()))

    def durations(self, name) -> list:
        return [self.spans[i][2] - self.spans[i][1]
                for i in self.by_name.get(name, ())]

    def median_ms(self, name) -> float:
        d = self.durations(name)
        return 1e3 * statistics.median(d) if d else 0.0

    def median_self_ms(self, name) -> float:
        d = [self.self_time[i] for i in self.by_name.get(name, ())]
        return 1e3 * statistics.median(d) if d else 0.0

    def sizes(self, name) -> list:
        return [self.spans[i][5] for i in self.by_name.get(name, ())]

    def points(self) -> list:
        """Point identifiers that solved (had a `_solve_point` span)."""
        return sorted({self.spans[i][4]
                       for i in self.by_name.get("sweep._solve_point", ())})

    def per_point(self, name, points, reduce=len) -> float:
        """Median over `points` of reduce(spans named `name` in the point)."""
        if not points:
            return 0.0
        groups = {p: [] for p in points}
        for i in self.by_name.get(name, ()):
            p = self.spans[i][4]
            if p in groups:
                groups[p].append(i)
        return float(statistics.median(reduce(g) for g in groups.values()))

    def per_mode(self, name, reduce=len) -> float:
        """Median over mode_diagnostics calls of reduce(spans inside it)."""
        modes = self.by_name.get("sweep.mode_diagnostics", ())
        if not modes:
            return 0.0
        groups = {m: [] for m in modes}
        for i in self.by_name.get(name, ()):
            if self.mode_of[i] >= 0:
                groups[self.mode_of[i]].append(i)
        return float(statistics.median(reduce(g) for g in groups.values()))


def band_figures(n: int, kl: int, ku: int) -> dict:
    """Bytes and flops of the banded LU, computed from n, kl and ku.

    Follows `lu_factor`'s storage (n rows of 2*kl + ku + 1 complex slots)
    and loop: column j eliminates min(kl, n-1-j) rows against a row of
    min(kl+ku, n-1-j) entries; a solve replays min(kl, n-1-j) multipliers
    and min(kl+ku, n-1-i) back-substitution terms per row. A complex
    multiply-add counts as 8 real flops; divisions are left out.
    """
    j = np.arange(n, dtype=np.float64)
    below = np.minimum(kl, n - 1 - j)
    right = np.minimum(kl + ku, n - 1 - j)
    return {
        "band_mb": n * (2 * kl + ku + 1) * 16 / 1e6,
        "factor_gflop": 8.0 * float((below * right).sum()) / 1e9,
        "solve_gflop": 8.0 * float((below + right).sum()) / 1e9,
    }


def layer_metrics(ix: SpanIndex, setup_ix: SpanIndex) -> dict:
    """Per-layer figures of one traced phase (values only, no units);
    `setup_ix` holds the spans of one traced set-up."""
    pts = ix.points()
    out = {}
    n = kl = ku = 0
    if ix.count("linalg.lu_factor"):
        n, kl, ku = (int(statistics.median(v)) for v in
                     zip(*ix.sizes("linalg.lu_factor")))
    fig = band_figures(n, kl, ku)
    factor_ms = ix.median_ms("linalg.lu_factor")
    out["linalg.lu_solve_ms"] = ix.median_ms("linalg.Factorization.solve")
    out["linalg.lu_solves_per_point"] = ix.per_point(
        "linalg.Factorization.solve", pts)
    out["linalg.arnoldi_self_ms"] = ix.median_self_ms(
        "linalg.shift_invert_eigs")
    out["linalg.lu_factor_ms"] = factor_ms
    out["linalg.n"] = n
    out["linalg.kl"] = kl
    out["linalg.ku"] = ku
    out["linalg.band_mb_computed"] = fig["band_mb"]
    out["linalg.factor_gflop_computed"] = fig["factor_gflop"]
    out["linalg.solve_gflop_computed"] = fig["solve_gflop"]
    out["linalg.factor_gflops_per_s"] = (
        fig["factor_gflop"] / (factor_ms / 1e3) if factor_ms else 0.0)
    out["linalg.hessenberg_ms"] = ix.median_ms("linalg.hessenberg_eig")
    out["linalg.hessenberg_calls_per_point"] = ix.per_point(
        "linalg.hessenberg_eig", pts)
    out["linalg.krylov_dim"] = max(ix.sizes("linalg.hessenberg_eig"),
                                   default=0)
    out["linalg.apply_calls_per_point"] = ix.per_point(
        "linalg.SparseOperator.apply", pts)
    out["linalg.apply_ms"] = ix.median_ms("linalg.SparseOperator.apply")
    out["linalg.lu_calls"] = (ix.count("linalg.lu_factor")
                              + ix.count("linalg.Factorization.solve"))
    out["models.grid_ms"] = ix.median_ms("models.build_ellipse_grid")
    out["models.assemble_ms"] = ix.median_ms("models.assemble_helmholtz")
    out["sweep.point_ms"] = ix.median_ms("sweep._solve_point")
    out["sweep.track_ms"] = ix.median_ms("sweep.track_modes")
    out["sweep.diagnostics_ms_per_mode"] = ix.median_ms(
        "sweep.mode_diagnostics")
    out["sweep.run_sweep_self_ms"] = ix.median_self_ms("sweep.run_sweep")
    out["circstats.extract_phases_ms"] = ix.median_ms(
        "circstats.extract_phases")
    out["circstats.resultant_calls_per_mode"] = ix.per_mode(
        "circstats.resultant")
    out["circstats.fold_sum_calls_per_mode"] = ix.per_mode(
        "circstats.fold_sum")
    out["circstats.fold_sum_elems_per_mode"] = ix.per_mode(
        "circstats.fold_sum",
        reduce=lambda g: sum(ix.spans[i][5] for i in g))
    out["entropy.report_ms"] = ix.median_ms("entropy.entropy_report")
    out["entropy.fourier_coeffs_ms"] = ix.median_ms("entropy.fourier_coeffs")
    out["entropy.histogram_ms"] = ix.median_ms("entropy.histogram")
    out["nonorth.rigidity_ms"] = ix.median_ms("nonorth.rigidity_report")
    out["io.csv_write_ms"] = ix.median_ms("io.write_sweep_csv")
    out["io.csv_bytes"] = max(ix.sizes("io.write_sweep_csv"), default=0)
    out["io.mode_read_ms"] = ix.median_ms("io.read_mode_file")
    out["io.mode_write_ms"] = setup_ix.median_ms("io.write_mode_file")
    sizes = ix.sizes("io.read_mode_file")
    out["io.mode_bytes"] = float(statistics.median(sizes)) if sizes else 0.0
    return out


def baseline_row(ix: SpanIndex) -> dict:
    """The ROADMAP baseline table's columns for one cavity point, as
    medians over the traced points."""
    pts = ix.points()
    n, kl, ku = (int(statistics.median(v)) for v in
                 zip(*ix.sizes("linalg.lu_factor")))

    def hess_s(g):
        return sum(ix.spans[i][2] - ix.spans[i][1] for i in g)

    return {
        "points": len(pts),
        "n": n,
        "half_bandwidth": max(kl, ku),
        "factor_s": ix.median_ms("linalg.lu_factor") / 1e3,
        "lu_solve_ms": ix.median_ms("linalg.Factorization.solve"),
        "solves": ix.per_point("linalg.Factorization.solve", pts),
        "hessenberg_s": ix.per_point("linalg.hessenberg_eig", pts,
                                     reduce=hess_s),
        "diagnostics_ms_per_mode": ix.median_ms("sweep.mode_diagnostics"),
        "total_solve_s": ix.median_ms("sweep._solve_point") / 1e3,
    }
