"""Sweep orchestration: grids, tracking, records, peaks."""

from types import SimpleNamespace

import numpy as np
import pytest

from epmodes import sweep as sweep_mod
from epmodes.linalg import NoConvergence
from epmodes.models import (
    CavitySpec,
    GridGeometry,
    InvalidSetting,
    Mode,
    TwoLevelParams,
    two_level_modes,
)
from epmodes.sweep import (
    ModeDiagnostics,
    NoInteriorPeak,
    SweepConfig,
    SweepRecord,
    anchored_grid,
    check_analysis,
    check_fields,
    detect_peaks,
    field_series,
    mode_diagnostics,
    run_sweep,
    solve_points,
    track_modes,
)

LN2 = float(np.log(2.0))


def stub_row(**kw):
    base = dict(re_eigenvalue=1.0, im_eigenvalue=0.0, R1=0.0, R2=1.0,
                r_abs=1.0, K=1.0, S_folded=0.0, S_unfolded=LN2,
                S_value=0.0, uncertainty_sum=0.0,
                renyi={1.0: 0.0, 1.5: 0.25}, chi_squared=0.0,
                degenerate_alignment=False)
    base.update(kw)
    return ModeDiagnostics(**base)


def stub_records(values, field="S_folded"):
    return [SweepRecord(float(i), [stub_row(**{field: v})])
            for i, v in enumerate(values)]


class TestAnchoredGrid:
    def test_27_point_range(self):
        grid = anchored_grid(0.10, 0.23, 0.005)
        assert grid.size == 27
        assert np.allclose(grid[0], 0.10, atol=1e-15)
        assert np.allclose(grid[-1], 0.23, atol=1e-15)
        assert np.all(np.diff(grid) > 0.0)

    def test_zero_lands_exactly_on_grid(self):
        grid = anchored_grid(-1.0, 1.0, 0.005)
        assert grid.size == 401
        assert grid[200] == 0.0

    def test_single_point(self):
        assert anchored_grid(0.1, 0.1004, 0.005).size == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            anchored_grid(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            anchored_grid(1.0, 0.0, 0.1)

    @pytest.mark.parametrize("args", [(0.0, 1.0, 1e-320),
                                      (0.0, 1e308, 1e-10)],
                             ids=["denormal-step", "huge-stop"])
    def test_overflowing_quotient_rejected(self, args):
        # start / step or stop / step past the largest double would reach
        # int(inf), an OverflowError no caller catches
        with pytest.raises(ValueError, match="step must be finite"):
            anchored_grid(*args)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("at", [0, 1, 2], ids=["start", "stop", "step"])
    def test_non_finite_scalar_rejected(self, at, value):
        args = [0.0, 1.0, 0.1]
        args[at] = value
        with pytest.raises(ValueError, match="must be finite"):
            anchored_grid(*args)


class TestSweepConfig:
    def test_valid_two_level(self):
        cfg = SweepConfig("two_level", anchored_grid(-1.0, 1.0, 0.1),
                          gamma=2.0)
        assert cfg.m == 2 and cfg.alphas == (1.0, 1.5, 2.0)

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            SweepConfig("two_level", np.array([0.0, 0.0, 0.1]))
        with pytest.raises(ValueError):
            SweepConfig("two_level", np.array([]))

    def test_model_and_m(self):
        with pytest.raises(ValueError):
            SweepConfig("ring", np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            SweepConfig("two_level", np.array([0.0, 1.0]), m=1)
        with pytest.raises(ValueError):
            SweepConfig("cavity", np.array([0.1, 0.2]), m=0)

    def test_cavity_grid_vetted_against_geometry(self):
        with pytest.raises(ValueError):
            SweepConfig("cavity", np.array([0.1, 0.6]))  # eps >= 0.5

    def test_analysis_settings(self):
        with pytest.raises(ValueError):
            SweepConfig("two_level", np.array([0.0, 1.0]), alphas=())
        with pytest.raises(ValueError):
            SweepConfig("two_level", np.array([0.0, 1.0]),
                        alphas=(1.0, -2.0))
        with pytest.raises(ValueError):
            SweepConfig("two_level", np.array([0.0, 1.0]), N_bins=1)
        with pytest.raises(ValueError):
            SweepConfig("two_level", np.array([0.0, 1.0]), node_cutoff=1.0)

    @pytest.mark.parametrize("model, field, value", [
        ("two_level", "N_bins", 3.5), ("two_level", "N_bins", np.nan),
        ("two_level", "N_bins", 64.0), ("cavity", "K_max", np.inf),
        ("two_level", "K_max", 2.5), ("cavity", "m", 2.5),
        ("two_level", "m", 2.0), ("cavity", "m", np.nan)])
    def test_count_setting_must_be_an_integer(self, model, field, value):
        # a float count passed no range check yet ended the sweep in a
        # TypeError from the first histogram
        with pytest.raises(InvalidSetting, match=f"{field} must be an "
                           "integer") as err:
            SweepConfig(model, [0.1, 0.2], **{field: value})
        assert err.value.field == field
        if field != "m":
            counts = {"N_bins": 64, "K_max": 8, field: value}
            with pytest.raises(InvalidSetting) as err:
                check_analysis(counts["N_bins"], counts["K_max"], (1.0,),
                               0.0)
            assert err.value.field == field

    @pytest.mark.parametrize("field, value", [
        ("N_bins", 3.5), ("K_max", 2.5), ("N_bins", np.float64(720.0)),
        ("alphas", ()), ("alphas", (1.0, np.nan)), ("node_cutoff", 1.0)])
    def test_mode_diagnostics_applies_the_analysis_rules(self, field, value):
        # called directly, a float count ended in numpy's TypeError and no
        # order at all was accepted
        m = two_level_modes(TwoLevelParams(0.3, 1.0, 0.5))[0]
        with pytest.raises(InvalidSetting) as err:
            mode_diagnostics(m, **{field: value})
        assert err.value.field == field

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("model, setting, field", [
        ("cavity", lambda v: {"k_target": v}, "k_target"),
        ("two_level", lambda v: {"k_target": v}, "k_target"),
        ("two_level", lambda v: {"grid": [0.0, v]}, "grid"),
        ("cavity", lambda v: {"grid": [0.1, v]}, "grid"),
        ("two_level", lambda v: {"alphas": (1.0, v)}, "alphas"),
    ], ids=["cavity_k_target", "two_level_k_target", "two_level_grid",
            "cavity_grid", "alphas"])
    def test_non_finite_setting_names_its_field(self, model, setting, field,
                                                value):
        # a NaN order fails as not positive, the message the CLI pins
        with pytest.raises(InvalidSetting, match="must be (finite|positive)") \
                as err:
            SweepConfig(model, **{"grid": [0.1, 0.2], **setting(value)})
        assert err.value.field == field


def lattice_mode(geom, field):
    """A Mode holding field(x, y) sampled on geom's interior points."""
    psi = field(geom.pt_x, geom.pt_y).astype(np.complex128)
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2)) * geom.h
    return Mode(geom, psi, 8.0 + 0.0j, f"cavity_{geom.spec.variant}")


def coordinate_overlaps(prev, nxt):
    """Oracle: cosine overlaps on the points whose (x, y) coincide."""
    out = np.zeros((len(prev), len(nxt)))
    for i, p in enumerate(prev):
        gp = p.geometry
        at = {(x, y): k for k, (x, y)
              in enumerate(zip(gp.pt_x.tolist(), gp.pt_y.tolist()))}
        for j, q in enumerate(nxt):
            gq = q.geometry
            pairs = [(at[xy], k) for k, xy
                     in enumerate(zip(gq.pt_x.tolist(), gq.pt_y.tolist()))
                     if xy in at]
            ia, ib = (np.array(c) for c in zip(*pairs))
            a, b = p.psi[ia], q.psi[ib]
            out[i, j] = abs(np.vdot(a, b)) / np.sqrt(
                np.vdot(a, a).real * np.vdot(b, b).real)
    return out


# modulus varies along both axes, so a one-step misregistration in either
# direction changes every overlap, not just a global phase
FIELDS = (lambda x, y: np.exp(-(x - 0.2) ** 2 - 3.0 * y * y + 3j * x),
          lambda x, y: (x + 0.5 + 1j * y) * np.exp(-x * x - (y - 0.2) ** 2))


class TestTrackModes:
    def test_identity(self):
        modes = two_level_modes(TwoLevelParams(0.3, 1.0, 1.0))
        perm, margin = track_modes(modes, modes)
        assert list(perm) == [0, 1]
        assert 0.0 < margin <= 1.0

    def test_reversal(self):
        modes = two_level_modes(TwoLevelParams(0.3, 1.0, 1.0))
        assert list(track_modes(modes, modes[::-1])[0]) == [1, 0]

    def test_ambiguous_duplicates(self):
        m = two_level_modes(TwoLevelParams(0.3, 1.0, 1.0))[0]
        assert track_modes([m, m], [m, m])[1] == 0.0

    def test_single_mode_has_no_choice(self):
        m = two_level_modes(TwoLevelParams(0.3, 1.0, 1.0))[0]
        perm, margin = track_modes([m], [m])
        assert list(perm) == [0] and margin == np.inf

    def test_length_mismatch(self):
        modes = two_level_modes(TwoLevelParams(0.3, 1.0, 1.0))
        with pytest.raises(ValueError):
            track_modes(modes, modes[:1])

    def test_mixed_models_rejected(self):
        two = two_level_modes(TwoLevelParams(0.3, 1.0, 1.0))
        geom = GridGeometry(CavitySpec(0.1, h=0.1))
        grid = [lattice_mode(geom, f) for f in FIELDS]
        with pytest.raises(ValueError, match="mix"):
            track_modes(two, grid)

    def test_modes_of_one_point_share_one_grid(self):
        g1 = GridGeometry(CavitySpec(0.1, h=0.1))
        g2 = GridGeometry(CavitySpec(0.1, h=0.1))
        mixed = [lattice_mode(g1, FIELDS[0]), lattice_mode(g2, FIELDS[1])]
        with pytest.raises(ValueError, match="share one grid"):
            track_modes(mixed, mixed)

    def test_nothing_shared_or_zero_vector_overlaps_zero(self):
        def point(keys, *vectors):
            grid = None if keys is None else SimpleNamespace(
                lattice_key=np.array(keys, dtype=np.int64))
            return [SimpleNamespace(geometry=grid,
                                    psi=np.array(v, dtype=complex))
                    for v in vectors]
        # disjoint lattices: every overlap is 0, so no branch leads
        assert track_modes(point([1, 2], [1, 1], [1, 0]),
                           point([3, 4], [1, 1], [0, 1]))[1] == 0.0
        # a zero vector overlaps nothing; the other branch still leads by 1
        perm, margin = track_modes(point(None, [1, 0], [0, 0]),
                                   point(None, [0, 0], [1, 0]))
        assert list(perm) == [1, 0] and margin == 1.0

    @pytest.mark.parametrize("eps_pair", [(0.2998, 0.3000), (0.3000, 0.3002)])
    def test_bounding_box_shift_matches_coordinate_oracle(self, eps_pair):
        # on criterion 6's h = 0.02 grid the box gains an x column at
        # eps = 0.3000 and loses a y row at 0.3002; array indices then name
        # different points, lattice keys do not
        g1, g2 = (GridGeometry(CavitySpec(e, h=0.02, variant="open",
                                          cap_strength=1.0)) for e in eps_pair)
        assert (g1.ix_min, g1.iy_min) != (g2.ix_min, g2.iy_min)
        prev = [lattice_mode(g1, f) for f in FIELDS]
        nxt = [lattice_mode(g2, f) for f in FIELDS[::-1]]
        oracle = coordinate_overlaps(prev, nxt)
        assert oracle[0, 1] == pytest.approx(1.0, abs=1e-12)
        perm, margin = track_modes(prev, nxt)
        assert list(perm) == [1, 0]
        i, j = np.unravel_index(int(np.argmax(oracle)), oracle.shape)
        assert margin == pytest.approx(oracle[i, j] - oracle[i, 1 - j],
                                       abs=1e-12)

    def test_weak_damping_real_parts_repel_imag_cross(self):
        # gamma < 2g: tracked branches keep a real gap >= 2 sqrt(g^2 -
        # gamma^2/4) while the imaginary parts swap sides across zero
        # detuning
        grid = anchored_grid(-0.5, 0.5, 0.05)
        cfg = SweepConfig("two_level", grid, gamma=1.0)
        recs = run_sweep(cfg)
        re_gap = []
        im_diff = []
        for r in recs:
            assert r.error is None and not r.track_ambiguous
            re_gap.append(abs(r.modes[0].re_eigenvalue
                              - r.modes[1].re_eigenvalue))
            im_diff.append(r.modes[0].im_eigenvalue
                           - r.modes[1].im_eigenvalue)
        assert min(re_gap) >= 2.0 * np.sqrt(1.0 - 0.25) - 1e-9
        assert im_diff[0] * im_diff[-1] < 0.0


def test_thin_margin_flags_row():
    # at the EP both eigenvectors coincide, so the steps into and out of
    # delta = 0 have no overlap lead
    recs = run_sweep(SweepConfig("two_level",
                                 anchored_grid(-0.01, 0.01, 0.005), gamma=2.0))
    assert [r.track_ambiguous for r in recs] == [False, False, True, True,
                                                 False]


def test_solve_points_margins(monkeypatch):
    # the first point has no previous point to lead over, and a failed
    # point no modes to track: both read inf and neither is flagged
    cfg = SweepConfig("two_level", anchored_grid(-0.01, 0.01, 0.005),
                      gamma=2.0)
    points = list(solve_points(cfg))
    assert [p.parameter for p in points] == [-0.01, -0.005, 0.0, 0.005, 0.01]
    assert points[0].margin == np.inf
    assert points[1].margin >= 1e-6 and points[4].margin >= 1e-6
    assert points[2].margin < 1e-6 and points[3].margin < 1e-6
    assert [p.ambiguous for p in points] == [False, False, True, True, False]

    def flaky(params):
        if params.delta == 0.005:
            raise NoConvergence(9, 1e-3, "stub gave up")
        return two_level_modes(params)

    monkeypatch.setattr(sweep_mod, "two_level_modes", flaky)
    failed = list(solve_points(cfg))[3]
    assert failed.margin == np.inf and not failed.ambiguous
    assert failed.modes == []
    assert failed.error == "NoConvergence: stub gave up"


@pytest.fixture(scope="module")
def ep_records():
    cfg = SweepConfig("two_level", anchored_grid(-1.0, 1.0, 0.01),
                      gamma=2.0, alphas=(1.0, 1.25, 1.5, 1.75, 2.0))
    return run_sweep(cfg)


class TestRunSweepTwoLevelEP:
    def test_k_maximal_at_zero_detuning(self, ep_records):
        entry = detect_peaks(ep_records, "K")
        assert entry.raw_argmax == 0.0
        assert entry.height == float("inf")
        assert entry.refined_argmax == entry.raw_argmax

    def test_r2_minimal_at_zero_detuning(self, ep_records):
        params, vals = field_series(ep_records, "R2")
        assert params[int(np.argmin(vals))] == 0.0
        assert vals.min() < 1e-12

    def test_row_identities(self, ep_records):
        for r in ep_records:
            assert r.error is None
            for row in r.modes:
                assert abs(row.r_abs - row.R2) <= 1e-8
                if row.R2 > 1e-5:
                    assert abs(row.K * row.R2**2 - 1.0) <= 1e-8

    def test_locking_of_k_and_folded_entropy(self, ep_records):
        # K, S_folded and every Renyi order take their raw argmax within
        # one grid step of each other
        fields = ["K", "S_folded"] + [f"renyi_{a:g}"
                                      for a in (1.0, 1.25, 1.5, 1.75, 2.0)]
        argmaxes = [detect_peaks(ep_records, f).raw_argmax for f in fields]
        params, _ = field_series(ep_records, "K")
        step = float(np.median(np.diff(params)))
        assert abs(step - 0.01) < 1e-12
        assert (max(argmaxes) - min(argmaxes)) / step <= 1.0 + 1e-9

    def test_value_entropy_peaks_at_boundary(self, ep_records):
        # the spectral line count collapses at the degeneracy, so S_value
        # grows away from it and tops out at the sweep edge
        with pytest.raises(NoInteriorPeak):
            detect_peaks(ep_records, "S_value")

    def test_uncertainty_sum_does_not_lock(self, ep_records):
        k = detect_peaks(ep_records, "K").raw_argmax
        u = detect_peaks(ep_records, "uncertainty_sum").raw_argmax
        assert abs(u - k) / 0.01 > 1.0 + 1e-9

    def test_degenerate_flag_only_near_ep(self, ep_records):
        flagged = [r.parameter for r in ep_records
                   if any(m.degenerate_alignment for m in r.modes)]
        assert 0.0 in flagged
        assert all(abs(p) <= 0.02 for p in flagged)

    def test_bitwise_determinism(self, ep_records):
        cfg = SweepConfig("two_level", anchored_grid(-1.0, 1.0, 0.01),
                          gamma=2.0, alphas=(1.0, 1.25, 1.5, 1.75, 2.0))
        again = run_sweep(cfg)
        assert len(again) == len(ep_records)
        for a, b in zip(ep_records, again):
            assert a.parameter == b.parameter
            assert a.error == b.error
            assert a.track_ambiguous == b.track_ambiguous
            for ma, mb in zip(a.modes, b.modes):
                assert ma == mb  # dataclass equality: all floats bitwise


class TestTwoLevelEPLaws:
    """The EP2 laws at g = 1, gamma = 2, whose EP sits at delta = 0. The
    eigenvalues are -i +- s with s = sqrt(delta (delta - 2i)), and the
    eigenvector of lambda is (1, w) with w = lambda - delta + 2i, so
    r = (1 + w^2) / (1 + |w|^2) = (w - i)(w + i) / (1 + |w|^2), where
    w - i = +-s - delta is formed without cancellation."""

    DELTAS = [-10.0 ** -e for e in range(1, 7)] \
        + [10.0 ** -e for e in range(6, 0, -1)]

    @pytest.fixture(scope="class")
    def records(self):
        return run_sweep(SweepConfig("two_level", self.DELTAS, gamma=2.0))

    def test_rows_match_closed_forms(self, records):
        for rec in records:
            d = rec.parameter
            s = np.sqrt(d * complex(d, -2.0))
            lams = [complex(row.re_eigenvalue, row.im_eigenvalue)
                    for row in rec.modes]
            split2 = abs(lams[0] - lams[1]) ** 2
            assert split2 == pytest.approx(4 * abs(d) * abs(complex(d, -2.0)),
                                           rel=1e-12, abs=0.0)
            for lam, row in zip(lams, rec.modes):
                sign = 1.0 if abs(lam - (-1j + s)) < abs(lam - (-1j - s)) \
                    else -1.0
                assert lam == pytest.approx(-1j + sign * s, rel=1e-12)
                w_minus_i = sign * s - d
                r = abs(w_minus_i * (w_minus_i + 2j)) \
                    / (1.0 + abs(w_minus_i + 1j) ** 2)
                assert row.r_abs == pytest.approx(r, rel=1e-12, abs=0.0)
                assert row.K == pytest.approx(1.0 / r ** 2, rel=1e-12, abs=0.0)
            # the two branches take opposite signs of s
            assert abs(lams[0] + lams[1] + 2j) < 1e-12

    def test_limits_at_the_ep(self, records):
        # K |d| -> 1/2, |r|^2 / |d| -> 2 and |split|^2 / |d| -> 8, each
        # within O(|d|)
        for rec in records:
            d = abs(rec.parameter)
            a, b = (complex(row.re_eigenvalue, row.im_eigenvalue)
                    for row in rec.modes)
            assert abs(abs(a - b) ** 2 / d - 8.0) <= d
            for row in rec.modes:
                assert abs(row.K * d - 0.5) <= d
                assert abs(row.r_abs ** 2 / d - 2.0) <= 2.0 * d


class TestRunSweepCavityBaseline:
    def test_closed_sweep_hermitian_pattern(self):
        # dipole-type branch: real spectrum, rigid phases, two balanced
        # lobes; also exercises tracking across deformed grids
        cfg = SweepConfig("cavity", np.array([0.10, 0.12, 0.14]), m=1,
                          h=0.05, k_target=3.8)
        recs = run_sweep(cfg)
        assert len(recs) == 3
        for r in recs:
            assert r.error is None
            row = r.modes[0]
            assert abs(row.im_eigenvalue) <= 1e-8
            assert row.R2 >= 1.0 - 1e-6
            assert row.S_folded <= 0.05
            assert abs(row.S_unfolded - LN2) <= 0.05
            assert row.R1 <= 0.2


class TestErrorRows:
    def test_solver_failure_marks_row_and_sweep_continues(self, monkeypatch):
        real = two_level_modes

        def flaky(params):
            if params.delta == 0.0:
                raise NoConvergence(17, 1e-3, "stub gave up after 17 steps")
            return real(params)

        monkeypatch.setattr(sweep_mod, "two_level_modes", flaky)
        cfg = SweepConfig("two_level", anchored_grid(-0.2, 0.2, 0.1),
                          gamma=1.0)
        recs = run_sweep(cfg)
        assert [r.parameter for r in recs] == [-0.2, -0.1, 0.0, 0.1, 0.2]
        bad = recs[2]
        assert bad.error == "NoConvergence: stub gave up after 17 steps"
        assert bad.modes == []
        for r in recs[:2] + recs[3:]:
            assert r.error is None and len(r.modes) == 2
        _, vals = field_series(recs, "R2")
        assert np.isnan(vals[2]) and np.isfinite(vals[[0, 1, 3, 4]]).all()


class TestDetectPeaks:
    def test_symmetric_triple(self):
        entry = detect_peaks(stub_records([1.0, 3.0, 1.0]), "S_folded")
        assert entry.raw_argmax == 1.0
        assert entry.refined_argmax == 1.0
        assert entry.height == 3.0

    def test_asymmetric_triple_refinement(self):
        # vertex of the parabola through (0,1),(1,3),(2,2)
        entry = detect_peaks(stub_records([1.0, 3.0, 2.0]), "S_folded")
        assert entry.raw_argmax == 1.0
        assert abs(entry.refined_argmax - 7.0 / 6.0) < 1e-12

    def test_uneven_triple_refines_to_parabola_vertex(self):
        # y = -(x - 1.2)^2 on x = 0, 1, 3, 4: the parabola through the
        # triple around the raw argmax is y itself, so its vertex is 1.2
        xs = [0.0, 1.0, 3.0, 4.0]
        recs = [SweepRecord(x, [stub_row(S_folded=-(x - 1.2) ** 2)])
                for x in xs]
        entry = detect_peaks(recs, "S_folded")
        assert entry.raw_argmax == 1.0
        assert entry.refined_argmax == pytest.approx(1.2, abs=1e-12)

    def test_monotone_raises(self):
        with pytest.raises(NoInteriorPeak):
            detect_peaks(stub_records([1.0, 2.0, 3.0]), "S_folded")

    def test_constant_raises(self):
        with pytest.raises(NoInteriorPeak):
            detect_peaks(stub_records([1.0, 1.0, 1.0]), "S_folded")

    def test_too_few_records(self):
        with pytest.raises(ValueError):
            detect_peaks(stub_records([1.0, 2.0]), "S_folded")

    def test_unknown_field_named(self):
        with pytest.raises(ValueError, match="no_such_field"):
            detect_peaks(stub_records([1.0, 3.0, 1.0]), "no_such_field")

    def test_renyi_field_accessor(self):
        recs = stub_records([1.0, 3.0, 1.0])
        _, vals = field_series(recs, "renyi_1.5")
        assert np.allclose(vals, 0.25)
        with pytest.raises(ValueError):
            field_series(recs, "renyi_7")

    @pytest.mark.parametrize("name, message", [
        ("__init__", "unknown field '__init__'"),
        ("__doc__", "unknown field '__doc__'"),
        ("__class__", "unknown field '__class__'"),
        ("renyi", "unknown field 'renyi'"),
        ("renyi_7", "field 'renyi_7': alpha missing from records")])
    def test_only_columns_resolve(self, name, message):
        # attribute names of a row are no columns; the check before a sweep
        # and the lookup on its records reject each with one message
        recs = stub_records([1.0, 3.0, 1.0])
        with pytest.raises(InvalidSetting) as err:
            field_series(recs, name)
        assert str(err.value) == message and err.value.field == name
        with pytest.raises(InvalidSetting, match=str(err.value)):
            check_fields(["K", name], (1.0, 1.5))

    @pytest.mark.parametrize("name, alpha", [
        ("renyi_1", 1.0), ("renyi_1.0", 1.0), ("renyi_1.5", 1.5),
        ("renyi_1.5000000000001", 1.5), ("renyi_15e-1", 1.5)])
    def test_order_spellings_resolve(self, name, alpha):
        recs = [SweepRecord(float(i), [stub_row(renyi={1.0: i, 1.5: -i})])
                for i in range(3)]
        want = [r.modes[0].renyi[alpha] for r in recs]
        assert field_series(recs, name)[1].tolist() == want
        check_fields([name], (1.0, 1.5))

    def test_error_rows_excluded_from_argmax(self):
        recs = stub_records([1.0, 3.0, 2.0, 1.5, 1.0])
        recs[1] = SweepRecord(1.0, [], "NoConvergence: stub")
        entry = detect_peaks(recs, "S_folded")
        assert entry.raw_argmax == 2.0

    def test_all_nan_rejected(self):
        recs = [SweepRecord(float(i), [], "err") for i in range(4)]
        with pytest.raises(ValueError):
            detect_peaks(recs, "S_folded")


class TestSweepRecordInvariant:
    def test_inconsistent_k_r2_rejected(self):
        with pytest.raises(ValueError):
            SweepRecord(0.0, [stub_row(K=4.0, R2=1.0)])

    def test_flagged_infinite_k_allowed_when_r2_tiny(self):
        SweepRecord(0.0, [stub_row(K=float("inf"), R2=1e-9, r_abs=0.0,
                                   degenerate_alignment=True)])


class TestModeDiagnostics:
    def test_two_level_row_contents(self):
        m = two_level_modes(TwoLevelParams(1.0, 1.0, 2.0))[0]
        row = mode_diagnostics(m, alphas=(1.0, 2.0))
        assert row.re_eigenvalue == complex(m.eigen_k).real
        assert set(row.renyi) == {1.0, 2.0}
        assert row.renyi[1.0] == row.S_folded
        assert abs(row.uncertainty_sum
                   - (row.S_folded + row.S_value)) < 1e-15
