"""Acceptance battery: one test and one scoreboard line per release criterion.

Criterion 3 contains a sub-check that this implementation is known not to
satisfy under the pinned normalization (the reason is documented at the
assertion site). It is asserted exactly as stated rather than loosened, so
that test fails and the scoreboard reports the measured values.
"""

import time

import numpy as np
import pytest

from epmodes.circstats import extract_phases, fold_sum, resultant
from epmodes.entropy import HistogramPMF, chi_squared, renyi, shannon
from epmodes.io import write_sweep_csv
from epmodes.models import (CavitySpec, Mode, build_ellipse_grid,
                            solve_cavity_modes)
from epmodes.circstats import current_field
from epmodes.nonorth import petermann, phase_rigidity_cs
from epmodes.sweep import SweepConfig, anchored_grid, field_series, run_sweep

# first zeros of the Bessel functions J0 and J1: exact disc eigenvalues
J0_1 = 2.404825557695773
J1_1 = 3.8317059702075125


def _random_mode(rng):
    n = int(rng.integers(4, 64))
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2))
    return Mode(None, psi, 1.0 + 0.0j, "two_level")


def test_criterion_1(acceptance_log):
    """Exact identities over random inputs, under 1 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260817)
    n_bins = 720
    ln_n = float(np.log(n_bins))
    worst_h2 = worst_parseval = 0.0
    for _ in range(1000):
        raw = rng.random(n_bins)
        p = HistogramPMF(n_bins, raw / fold_sum(raw))
        worst_h2 = max(worst_h2, abs(
            renyi(p, 2.0) - (ln_n - np.log1p(chi_squared(p)))))
        spectrum = np.fft.fft(p.p)
        worst_parseval = max(worst_parseval, abs(
            np.sum(np.abs(spectrum) ** 2) - n_bins * np.sum(p.p ** 2)))
    worst_r = worst_k = 0.0
    for _ in range(1000):
        mode = _random_mode(rng)
        r = abs(phase_rigidity_cs(mode))
        r2 = resultant(extract_phases(mode), 2).R_k
        worst_r = max(worst_r, abs(r - r2))
        worst_k = max(worst_k, abs(petermann(r) * r2 ** 2 - 1.0))
    elapsed = time.perf_counter() - t0
    ok = (worst_h2 <= 1e-10 and worst_parseval <= 1e-10
          and worst_r <= 1e-10 and worst_k <= 1e-10 and elapsed < 1.0)
    acceptance_log(1, ok,
                   f"1000 PMFs: H2 identity {worst_h2:.1e}, Parseval "
                   f"{worst_parseval:.1e}; 1000 modes: |r|-R2 {worst_r:.1e},"
                   f" K*R2^2-1 {worst_k:.1e} ({elapsed:.2f}s < 1s)")
    assert worst_h2 <= 1e-10
    assert worst_parseval <= 1e-10
    assert worst_r <= 1e-10
    assert worst_k <= 1e-10
    assert elapsed < 1.0


def test_criterion_2(acceptance_log):
    """The worked entropy-to-spread chain at H = 6.22 nats, under 1 s."""
    t0 = time.perf_counter()
    n_bins = 720
    ln_n = float(np.log(n_bins))

    def vm_pmf(kappa):
        ang = 2.0 * np.pi * (np.arange(n_bins) + 0.5) / n_bins
        w = np.exp(kappa * np.cos(ang))
        return HistogramPMF(n_bins, w / fold_sum(w))

    # concentration is monotone in kappa, so bisect the entropy to target
    lo, hi = 0.0, 5.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if shannon(vm_pmf(mid)) < 6.22 else (mid, hi)
    p = vm_pmf(0.5 * (lo + hi))
    h1 = shannon(p)
    gap = ln_n - h1
    # inverting H ~ ln N - chi^2/2 gives the quoted chi^2, and dividing by
    # N gives the quoted spread; both follow from the measured entropy.
    # The PMF's own chi^2 is shape-dependent and is reported alongside.
    chi2_inverted = 2.0 * gap
    spread_inverted = chi2_inverted / n_bins
    spread_actual = chi_squared(p) / n_bins
    elapsed = time.perf_counter() - t0
    ok = (abs(h1 - 6.22) <= 0.005
          and abs(ln_n - 6.579) <= 1e-3
          and abs(gap - 0.359) <= 1e-3
          and abs(chi2_inverted - 0.718) <= 0.02 * 0.718
          and abs(spread_inverted - 9.98e-4) <= 0.02 * 9.98e-4
          and abs(spread_actual - 9.98e-4) <= 0.02 * 9.98e-4
          and elapsed < 1.0)
    acceptance_log(2, ok,
                   f"H={h1:.4f}, ln N={ln_n:.4f}, gap={gap:.4f}, inverted "
                   f"chi^2={chi2_inverted:.4f}, spread={spread_inverted:.3e}"
                   f" (actual {spread_actual:.3e}) ({elapsed:.2f}s < 1s)")
    assert abs(h1 - 6.22) <= 0.005
    assert abs(ln_n - 6.579) <= 1e-3
    assert abs(gap - 0.359) <= 1e-3
    assert abs(chi2_inverted - 0.718) <= 0.02 * 0.718
    assert abs(spread_inverted - 9.98e-4) <= 0.02 * 9.98e-4
    assert abs(spread_actual - 9.98e-4) <= 0.02 * 9.98e-4
    assert elapsed < 1.0


def _ep_sweep_config():
    return SweepConfig("two_level", anchored_grid(-1.0, 1.0, 0.005),
                       gamma=2.0, alphas=(1.0, 1.25, 1.5, 1.75, 2.0))


def test_criterion_3(acceptance_log):
    """Entropy and excess-noise maxima locking at the degeneracy, < 10 s."""
    t0 = time.perf_counter()
    records = run_sweep(_ep_sweep_config())
    step = 0.005

    r_at_zero = next(r for r in records if r.parameter == 0.0)
    r_abs_zero = r_at_zero.modes[0].r_abs

    def argmax_at(field):
        params, vals = field_series(records, field, 0)
        return float(params[int(np.nanargmax(vals))])

    lock_fields = ("K", "S_folded", "S_value", "uncertainty_sum",
                   "renyi_1", "renyi_2")
    pos = {f: argmax_at(f) for f in lock_fields}
    max_sep = max(abs(pos[a] - pos[b])
                  for a in lock_fields for b in lock_fields)
    max_from_zero = max(abs(v) for v in pos.values())

    alpha_pos = [argmax_at(f) for f in
                 ("renyi_1", "renyi_1.25", "renyi_1.5", "renyi_1.75",
                  "renyi_2")]
    alpha_drift = max(alpha_pos) - min(alpha_pos)

    elapsed = time.perf_counter() - t0
    tol = step + 1e-12
    ok = (r_abs_zero <= 1e-6 and max_sep <= tol
          and max_from_zero <= tol and alpha_drift <= tol
          and elapsed < 10.0)
    acceptance_log(3, ok,
                   f"|r|(0)={r_abs_zero:.1e}; argmax K={pos['K']:g}, "
                   f"S_folded={pos['S_folded']:g}, H1={pos['renyi_1']:g}, "
                   f"H2={pos['renyi_2']:g}, S_value={pos['S_value']:g}, "
                   f"sum={pos['uncertainty_sum']:g}; alpha drift "
                   f"{alpha_drift:g} ({elapsed:.1f}s < 10s)")
    assert r_abs_zero <= 1e-6
    assert alpha_drift <= tol
    # The line-count entropy S_value is smallest at the degeneracy, where
    # the doubled phases collapse onto one spectral line, and it grows
    # toward the sweep edges; its raw argmax therefore sits on the
    # boundary, and the combined uncertainty sum peaks in the shoulders
    # instead of at zero. Both are asserted as stated and fail; K,
    # S_folded, and every Renyi order do lock.
    assert max_from_zero <= tol, \
        f"argmax positions {pos} not all within one step of 0"
    assert max_sep <= tol
    assert elapsed < 10.0


def test_criterion_4(acceptance_log):
    """Closed-cavity sweep: rigid real modes, two-lobe entropy, < 60 s."""
    t0 = time.perf_counter()
    cfg = SweepConfig("cavity", np.linspace(0.10, 0.23, 10), m=2,
                      h=0.02, k_target=2.5)
    records = run_sweep(cfg)
    rows = [(rec.parameter, d) for rec in records for d in rec.modes]
    n_err = sum(1 for rec in records if rec.error is not None)

    min_r2 = min(d.R2 for _, d in rows)
    max_im = max(abs(d.im_eigenvalue)
                 / abs(complex(d.re_eigenvalue, d.im_eigenvalue))
                 for _, d in rows)
    max_folded = max(d.S_folded for _, d in rows)
    balanced = [d for _, d in rows if d.R1 <= 0.2]
    worst_two_lobe = max(abs(d.S_unfolded - np.log(2.0)) for d in balanced) \
        if balanced else float("inf")

    elapsed = time.perf_counter() - t0
    ok = (n_err == 0 and len(rows) == 20
          and min_r2 >= 1.0 - 1e-6 and max_im <= 1e-8
          and max_folded <= 0.05 and balanced
          and worst_two_lobe <= 0.05 and elapsed < 60.0)
    acceptance_log(4, ok,
                   f"{len(rows)} rows: min R2={min_r2:.9f}, max |Im k|/|k|="
                   f"{max_im:.1e}, max folded={max_folded:.1e}, "
                   f"{len(balanced)} balanced rows, worst |S_unf - ln 2|="
                   f"{worst_two_lobe:.1e} ({elapsed:.1f}s < 60s)")
    assert n_err == 0 and len(rows) == 20
    assert min_r2 >= 1.0 - 1e-6
    assert max_im <= 1e-8
    assert max_folded <= 0.05
    assert balanced and worst_two_lobe <= 0.05
    assert elapsed < 60.0


def test_criterion_5(acceptance_log):
    """Disc eigenvalues against Bessel zeros, and h-convergence, < 30 s."""
    t0 = time.perf_counter()
    errors = {}
    for h in (0.02, 0.01):
        ks = sorted(md.eigen_k.real
                    for md in solve_cavity_modes(CavitySpec(0.0, h=h), 2.9, 2))
        errors[h] = (abs(ks[0] - J0_1) / J0_1, abs(ks[1] - J1_1) / J1_1)
    ratios = (errors[0.02][0] / errors[0.01][0],
              errors[0.02][1] / errors[0.01][1])
    elapsed = time.perf_counter() - t0
    ok = (max(errors[0.02]) < 0.01 and min(ratios) >= 3.0
          and elapsed < 30.0)
    acceptance_log(5, ok,
                   f"h=1/50 errors {errors[0.02][0]:.2e}, "
                   f"{errors[0.02][1]:.2e}; halving ratios {ratios[0]:.2f}, "
                   f"{ratios[1]:.2f} ({elapsed:.1f}s < 30s)")
    assert max(errors[0.02]) < 0.01
    # The Dirichlet wall is imposed at its true position along each lattice
    # arm (linear ghost-value extrapolation), so the whole scheme is second
    # order and halving h gains ~4x.
    assert min(ratios) >= 3.0, \
        f"halving gained only {ratios} (need >= 3x)"
    assert elapsed < 30.0


def test_criterion_6(acceptance_log):
    """Open-cavity interaction: rigidity dip, co-located maxima, avoided
    crossing in Re k with an Im k crossing, < 10 min."""
    t0 = time.perf_counter()
    # the pair at k ~ 8.015 (odd in x, even in y) near eps = 0.300 is the
    # nearest same-parity avoided crossing; the absorber strength sits below
    # the topology threshold (between 1 and 2 for this pair), where the real
    # parts keep a finite gap while the decay rates exchange through the
    # interaction region
    cfg = SweepConfig("cavity", anchored_grid(0.2960, 0.3040, 0.0002),
                      m=2, variant="open", cap_strength=1.0, cap_width=0.2,
                      h=0.02, k_target=8.015)
    records = run_sweep(cfg)
    n_err = sum(1 for rec in records if rec.error is not None)

    series = {(f, i): field_series(records, f, i)[1]
              for f in ("R2", "K", "S_folded", "re_eigenvalue",
                        "im_eigenvalue")
              for i in (0, 1)}
    n = len(records)
    interior = slice(1, n - 1)

    # the mode whose rigidity dips hardest carries the interaction
    dips = {i: np.nanmin(series[("R2", i)][interior]) for i in (0, 1)}
    who = min(dips, key=dips.get)
    r2_dip = dips[who]
    idx_dip = 1 + int(np.nanargmin(series[("R2", who)][interior]))
    idx_k = int(np.nanargmax(series[("K", who)]))
    idx_s = int(np.nanargmax(series[("S_folded", who)]))

    d_re = series[("re_eigenvalue", 0)] - series[("re_eigenvalue", 1)]
    d_im = series[("im_eigenvalue", 0)] - series[("im_eigenvalue", 1)]
    # repel = the tracked branches never exchange Re order AND the |gap|
    # closes to an interior minimum before reopening (the visible V)
    gap = np.abs(d_re)
    idx_gap = int(np.nanargmin(gap))
    re_repels = bool((np.all(d_re > 0) or np.all(d_re < 0))
                     and 0 < idx_gap < n - 1
                     and gap[0] > 2.0 * gap[idx_gap]
                     and gap[-1] > 2.0 * gap[idx_gap])
    im_crosses = bool(np.nanmin(d_im) < 0.0 < np.nanmax(d_im))

    elapsed = time.perf_counter() - t0
    ok = (n_err == 0 and r2_dip < 0.9
          and abs(idx_k - idx_s) <= 1 and abs(idx_k - idx_dip) <= 1
          and re_repels and im_crosses and elapsed < 600.0)
    acceptance_log(6, ok,
                   f"min R2={r2_dip:.3f} at row {idx_dip}/{n}, K max row "
                   f"{idx_k}, S_folded max row {idx_s}; Re gap V: "
                   f"{gap[0]:.2e} > {gap[idx_gap]:.2e} < {gap[-1]:.2e} at "
                   f"row {idx_gap}, no order exchange; Im crossing="
                   f"{im_crosses} ({elapsed:.0f}s < 600s)")
    assert n_err == 0
    assert r2_dip < 0.9
    assert abs(idx_k - idx_s) <= 1
    assert abs(idx_k - idx_dip) <= 1
    assert re_repels
    assert im_crosses
    assert elapsed < 600.0


def test_criterion_7(acceptance_log):
    """Probability current: zero for closed modes, kappa A^2 for a plane
    wave, < 10 s."""
    t0 = time.perf_counter()
    worst_closed = 0.0
    for mode in solve_cavity_modes(CavitySpec(0.1, h=0.04), 2.5, 2):
        cf = current_field(mode)
        bound = 1e-8 * float(np.max(np.abs(mode.psi) ** 2)) / mode.h
        worst_closed = max(worst_closed,
                           float(np.max(cf.magnitude())) / bound)

    kappa, h = 3.0, 0.02
    geo = build_ellipse_grid(CavitySpec(0.0, h=h))
    psi = np.exp(1j * kappa * geo.pt_x) / np.sqrt(geo.npts * h * h)
    wave = Mode(geo, psi, complex(kappa), "cavity_closed")
    cf = current_field(wave)
    a2 = float(np.max(np.abs(psi) ** 2))
    tol = kappa * a2 * (kappa * h) ** 2 / 3.0  # twice the sin(kh)/h defect
    err_x = float(np.max(np.abs(cf.jx - kappa * np.abs(psi) ** 2)))
    err_y = float(np.max(np.abs(cf.jy)))

    elapsed = time.perf_counter() - t0
    ok = (worst_closed <= 1.0 and err_x <= tol and err_y <= tol
          and elapsed < 10.0)
    acceptance_log(7, ok,
                   f"closed modes at {worst_closed:.1e} of the null bound; "
                   f"plane wave |j - kappa A^2| max {err_x:.2e} "
                   f"(tol {tol:.2e}), |j_y| max {err_y:.1e} "
                   f"({elapsed:.1f}s < 10s)")
    assert worst_closed <= 1.0
    assert err_x <= tol
    assert err_y <= tol
    assert elapsed < 10.0


def test_criterion_8(acceptance_log, tmp_path):
    """Rerunning the locking sweep reproduces the CSV byte for byte."""
    t0 = time.perf_counter()
    paths = []
    for name in ("first.csv", "second.csv"):
        path = tmp_path / name
        write_sweep_csv(run_sweep(_ep_sweep_config()), path, timestamp=False)
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    elapsed = time.perf_counter() - t0
    size = paths[0].stat().st_size
    acceptance_log(8, identical,
                   f"two fresh runs, {size} bytes each, byte-identical="
                   f"{identical} ({elapsed:.1f}s)")
    assert identical
