"""Model construction against analytic oracles.

Disc eigenvalues are squared Bessel-J zeros; the constants below are the
exact zeros to full double precision. The 5-point scheme places the
Dirichlet wall at its true distance along each lattice arm, so the
eigenvalue error falls at second order in h.
"""

import cmath

import numpy as np
import pytest

from epmodes.circstats import current_field
from epmodes.linalg import SparseOperator, shift_invert_eigs
from epmodes.models import (
    _THETA_MIN,
    TwoLevelParams,
    CavitySpec,
    GridTooCoarse,
    InvalidSetting,
    Mode,
    two_level_hamiltonian,
    two_level_modes,
    build_ellipse_grid,
    assemble_helmholtz,
    parity_reduce,
    solve_cavity_modes,
)

J0_1 = 2.404825557695773     # first zero of J0
J1_1 = 3.8317059702075125    # first zero of J1
J0_2 = 5.5200781102863115    # second zero of J0


def quadratic_eigs(delta, g, gamma):
    mean = -1j * gamma / 2.0
    s = cmath.sqrt((delta - 1j * gamma / 2.0) ** 2 + g * g)
    return mean + s, mean - s


class TestTwoLevel:
    def test_validation(self):
        with pytest.raises(ValueError):
            TwoLevelParams(0.0, g=0.0)
        with pytest.raises(ValueError):
            TwoLevelParams(0.0, g=1.0, gamma=-1.0)

    def test_hermitian_limit(self):
        H = two_level_hamiltonian(TwoLevelParams(0.0, 1.0, 0.0))
        assert np.array_equal(H, np.array([[0.0, 1.0], [1.0, 0.0]]))
        modes = two_level_modes(TwoLevelParams(0.0, 1.0, 0.0))
        got = sorted(m.eigen_k.real for m in modes)
        assert np.allclose(got, [-1.0, 1.0], atol=1e-14)

    def test_exceptional_point_coalescence(self):
        lp, lm = quadratic_eigs(0.0, 1.0, 2.0)
        assert abs(lp - lm) < 1e-15
        modes = two_level_modes(TwoLevelParams(0.0, 1.0, 2.0))
        for m in modes:
            assert m.degenerate
            assert abs(m.eigen_k - (-1.0j)) < 1e-12

    def test_detuned_oracle(self):
        lp, _ = quadratic_eigs(1.0, 1.0, 2.0)
        assert abs(lp - (1.27202 - 1.78615j)) < 5e-6
        modes = two_level_modes(TwoLevelParams(1.0, 1.0, 2.0))
        got = min(abs(m.eigen_k - lp) for m in modes)
        assert got < 1e-12

    def test_mode_normalization_and_gauge(self):
        for m in two_level_modes(TwoLevelParams(0.7, 1.3, 0.9)):
            assert abs((np.abs(m.psi) ** 2).sum() - 1.0) < 1e-12
            s = (m.psi * m.psi).sum()
            assert abs(s.imag) < 1e-12  # gauge puts sum psi^2 on the real axis
            assert s.real > 0


class TestCavitySpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            CavitySpec(epsilon=0.5)
        with pytest.raises(ValueError):
            CavitySpec(epsilon=-0.01)
        with pytest.raises(ValueError):
            CavitySpec(epsilon=0.1, variant="leaky")
        with pytest.raises(ValueError):
            CavitySpec(epsilon=0.1, variant="closed", cap_strength=1.0)
        with pytest.raises(ValueError):
            CavitySpec(epsilon=0.1, mean_radius=-1.0)

    def test_default_step_and_axes(self):
        s = CavitySpec(epsilon=0.16, mean_radius=2.0)
        assert s.h == pytest.approx(0.04)
        a, b = s.semi_axes
        assert a == pytest.approx(2.32) and b == pytest.approx(1.68)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("cls, base, field", [
    (TwoLevelParams, {"delta": 0.0, "g": 1.0}, "g"),
    (TwoLevelParams, {"delta": 0.0, "g": 1.0}, "gamma"),
    (CavitySpec, {"epsilon": 0.1}, "mean_radius"),
    (CavitySpec, {"epsilon": 0.1}, "h"),
    (CavitySpec, {"epsilon": 0.1, "variant": "open"}, "cap_strength"),
    (CavitySpec, {"epsilon": 0.1}, "cap_width"),
], ids=["g", "gamma", "mean_radius", "h", "cap_strength", "cap_width"])
def test_non_finite_setting_names_its_field(cls, base, field, value):
    # checked before the range checks, which NaN and inf could slip past
    with pytest.raises(InvalidSetting, match=f"^{field} must be finite$") \
            as err:
        cls(**{**base, field: value})
    assert err.value.field == field


class TestGrid:
    def test_disc_point_count(self):
        g = build_ellipse_grid(CavitySpec(epsilon=0.0, mean_radius=1.0, h=0.02))
        expect = np.pi / 0.02**2
        assert abs(g.npts - expect) / expect < 0.02

    def test_ellipse_point_count(self):
        g = build_ellipse_grid(CavitySpec(epsilon=0.16, mean_radius=1.0, h=0.02))
        expect = np.pi * 1.16 * 0.84 / 0.02**2
        assert abs(g.npts - expect) / expect < 0.02

    def test_too_coarse(self):
        with pytest.raises(GridTooCoarse):
            build_ellipse_grid(CavitySpec(epsilon=0.0, mean_radius=1.0, h=1.0))

    def test_strict_interior(self):
        s = CavitySpec(epsilon=0.2, mean_radius=1.0, h=0.05)
        g = build_ellipse_grid(s)
        a, b = s.semi_axes
        assert np.all((g.pt_x / a) ** 2 + (g.pt_y / b) ** 2 < 1.0)

    def test_cap_profile_bounds_and_strip(self):
        s = CavitySpec(epsilon=0.1, mean_radius=1.0, h=0.02, variant="open",
                       cap_strength=5.0, cap_width=0.2)
        g = build_ellipse_grid(s)
        w = g.cap_profile
        assert w.shape == (g.npts,)
        assert np.all(w >= 0.0) and np.all(w <= 1.0)
        # center is far from the rim, rim band is absorbing
        assert w.max() > 0.0
        ic = np.where((g.pt_x == 0.0) & (g.pt_y == 0.0))[0]
        assert w[ic].item() == 0.0

    def test_origin_on_lattice(self):
        g = build_ellipse_grid(CavitySpec(epsilon=0.13, mean_radius=1.0, h=0.02))
        assert 0.0 in g.xs and 0.0 in g.ys

    def test_lattice_shared_across_epsilon(self):
        g1 = build_ellipse_grid(CavitySpec(epsilon=0.10, mean_radius=1.0, h=0.02))
        g2 = build_ellipse_grid(CavitySpec(epsilon=0.20, mean_radius=1.0, h=0.02))
        # integer lattice identity: same global index -> same coordinate
        i1 = 5 - g1.ix_min
        i2 = 5 - g2.ix_min
        assert g1.xs[i1] == g2.xs[i2]

    @pytest.mark.parametrize("h", [0.1, 0.05])
    @pytest.mark.parametrize("eps", [0.0, 0.3])
    def test_neighbors_match_the_lattice(self, eps, h):
        s = CavitySpec(epsilon=eps, mean_radius=1.0, h=h)
        g = build_ellipse_grid(s)
        a, b = s.semi_axes
        X, Y = np.rint(g.pt_x / h), np.rint(g.pt_y / h)  # lattice coordinates
        assert sorted(g.neighbors) == [(-1, 0), (0, -1), (0, 1), (1, 0)]
        for (dx, dy), nb in g.neighbors.items():
            assert nb.dtype == np.int64 and nb.shape == (g.npts,)
            # -1 exactly where the geometry's own test rejects the neighbour
            x, y = (X + dx) * h, (Y + dy) * h
            assert np.array_equal(nb == -1, ~((x / a) ** 2 + (y / b) ** 2 < 1))
            on = np.flatnonzero(nb >= 0)
            assert np.array_equal(X[nb[on]] - X[on], np.full(on.size, dx))
            assert np.array_equal(Y[nb[on]] - Y[on], np.full(on.size, dy))
            assert np.abs(g.pt_x[nb[on]] - g.pt_x[on] - dx * h).max() <= 1e-15
            assert np.abs(g.pt_y[nb[on]] - g.pt_y[on] - dy * h).max() <= 1e-15
            assert np.array_equal(g.neighbors[-dx, -dy][nb[on]], on)


def _check_rejects_asymmetry(op):
    """The constructor verifies the transpose closure: one value bent by an
    ulp, or one off-diagonal entry left out, is rejected."""
    off = int(np.flatnonzero(op.rows < op.cols)[0])
    bent = op.vals.copy()
    bent[off] = complex(np.nextafter(bent[off].real, np.inf), bent[off].imag)
    with pytest.raises(ValueError, match="values are not symmetric"):
        SparseOperator(op.n, op.rows, op.cols, bent)
    keep = np.arange(op.vals.size) != off
    with pytest.raises(ValueError, match="pattern is not symmetric"):
        SparseOperator(op.n, op.rows[keep], op.cols[keep], op.vals[keep])


class TestAssembly:
    def test_closed_is_real_symmetric(self):
        s = CavitySpec(epsilon=0.12, mean_radius=1.0, h=0.05)
        op = assemble_helmholtz(build_ellipse_grid(s), s)
        _check_rejects_asymmetry(op)
        assert np.all(op.vals.imag == 0.0)

    def test_open_eta_zero_identical_to_closed(self):
        sc = CavitySpec(epsilon=0.12, mean_radius=1.0, h=0.05)
        so = CavitySpec(epsilon=0.12, mean_radius=1.0, h=0.05, variant="open",
                        cap_strength=0.0)
        a = assemble_helmholtz(build_ellipse_grid(sc), sc)
        b = assemble_helmholtz(build_ellipse_grid(so), so)
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.cols, b.cols)
        assert np.array_equal(a.vals, b.vals)

    def test_open_complex_symmetric(self):
        s = CavitySpec(epsilon=0.12, mean_radius=1.0, h=0.05, variant="open",
                       cap_strength=4.0, cap_width=0.2)
        op = assemble_helmholtz(build_ellipse_grid(s), s)
        _check_rejects_asymmetry(op)
        assert np.abs(op.vals.imag).max() > 0.0

    def test_spec_must_be_the_grids(self):
        # the grid's mask and absorber profile belong to its own cavity; a
        # second spec would mix two cavities into one operator
        s = CavitySpec(epsilon=0.1, h=0.05, variant="open", cap_strength=1.0,
                       cap_width=0.4)
        g = build_ellipse_grid(s)
        other = CavitySpec(epsilon=0.1, h=0.05, variant="open",
                           cap_strength=9.0, cap_width=0.4)
        with pytest.raises(ValueError, match="spec"):
            assemble_helmholtz(g, other)
        same = CavitySpec(epsilon=0.1, h=0.05, variant="open",
                          cap_strength=1.0, cap_width=0.4)
        assert np.array_equal(assemble_helmholtz(g, same).vals,
                              assemble_helmholtz(g, s).vals)


def _shifted(arr, dx, dy, fill):
    """out[i, j] = arr[i + dx, j + dy], `fill` past the edges: the whole-grid
    shift both stencils used before the geometry had a neighbors table."""
    out = np.full_like(arr, fill)
    nx, ny = arr.shape
    out[max(0, -dx):nx + min(0, -dx), max(0, -dy):ny + min(0, -dy)] = \
        arr[max(0, dx):nx + min(0, dx), max(0, dy):ny + min(0, dy)]
    return out


def _full_grid_helmholtz(g, spec):
    """assemble_helmholtz built from whole-grid shifts of the mask."""
    h2 = g.h * g.h
    a, b = spec.semi_axes
    mask, idx = g.interior_mask, g.index_of
    rows, cols = [idx[mask]], [idx[mask]]
    x_wall = a * np.sqrt(1.0 - (g.pt_y / b) ** 2)
    y_wall = b * np.sqrt(1.0 - (g.pt_x / a) ** 2)
    arms = {(1, 0): x_wall - g.pt_x, (-1, 0): x_wall + g.pt_x,
            (0, 1): y_wall - g.pt_y, (0, -1): y_wall + g.pt_y}
    diag = np.full(g.npts, 4.0 / h2)
    vals = []
    for (dx, dy), arm in arms.items():
        inside = _shifted(mask, dx, dy, False)
        theta = np.clip(arm / g.h, _THETA_MIN, 1.0)
        diag += np.where(inside[mask], 0.0, 1.0 / theta - 1.0) / h2
        both = mask & inside
        rows.append(idx[both])
        cols.append(_shifted(idx, dx, dy, -1)[both])
        vals.append(np.full(int(both.sum()), -1.0 / h2))
    if spec.variant == "open" and spec.cap_strength > 0.0:
        diag = diag - 1j * spec.cap_strength * g.cap_profile
    return SparseOperator(g.npts, np.concatenate(rows), np.concatenate(cols),
                          np.concatenate([diag] + vals))


def _full_grid_current(m):
    """current_field from psi scattered onto the box and shifted whole."""
    g = m.geometry
    mask = g.interior_mask
    G = np.zeros((g.nx, g.ny), dtype=m.psi.dtype)
    G[mask] = m.psi
    out = []
    for dx, dy in ((1, 0), (0, 1)):
        fwd = _shifted(mask, dx, dy, False)[mask]
        bwd = _shifted(mask, -dx, -dy, False)[mask]
        vf = _shifted(G, dx, dy, 0.0)[mask]
        vb = _shifted(G, -dx, -dy, 0.0)[mask]
        grad = np.where(
            fwd & bwd, (vf - vb) / (2.0 * g.h),
            np.where(fwd, (vf - m.psi) / g.h,
                     np.where(bwd, (m.psi - vb) / g.h, 0.0)))
        out.append((np.conj(m.psi) * grad).imag)
    return out


@pytest.mark.parametrize("h", [0.1, 0.05])
@pytest.mark.parametrize("eps", [0.0, 0.13, 0.3])
@pytest.mark.parametrize("eta", [0.0, 1.0, 8.0])
class TestNeighborsMatchFullGridShifts:
    """The per-point neighbors table gives the same bytes as the whole-grid
    shifts it replaced, in the stencil and in the current."""

    def test_helmholtz(self, eps, h, eta):
        op, g = _cavity(eps, h, eta)
        want = _full_grid_helmholtz(g, g.spec)
        assert np.array_equal(op.rows, want.rows)
        assert np.array_equal(op.cols, want.cols)
        assert op.vals.tobytes() == want.vals.tobytes()

    def test_current(self, eps, h, eta):
        _, g = _cavity(eps, h, eta)
        rng = np.random.default_rng(5)
        raw = rng.standard_normal(g.npts) + 1j * rng.standard_normal(g.npts)
        m = Mode(g, raw / (np.sqrt((np.abs(raw) ** 2).sum()) * g.h), 1.0,
                 f"cavity_{g.spec.variant}")
        j = current_field(m)
        jx, jy = _full_grid_current(m)
        assert j.jx.tobytes() == jx.tobytes()
        assert j.jy.tobytes() == jy.tobytes()


@pytest.fixture(scope="module")
def disc_h01():
    return CavitySpec(epsilon=0.0, mean_radius=1.0, h=0.01)


class TestCavityModes:
    def test_lowest_disc_mode(self, disc_h01):
        mode = solve_cavity_modes(disc_h01, 2.4, 1)[0]
        k = mode.eigen_k
        assert abs(k.real - J0_1) / J0_1 < 0.005
        assert abs(k.imag) <= 1e-10 * abs(k)
        # spec'd lambda accuracy: 0.5%
        lam = k * k
        assert abs(lam.real - J0_1**2) / J0_1**2 < 0.005
        # real after gauge
        assert np.abs(mode.psi.imag).max() / np.abs(mode.psi).max() <= 1e-8
        assert mode.provenance == "cavity_closed"

    def test_second_j0_mode(self, disc_h01):
        mode = solve_cavity_modes(disc_h01, 5.52, 1)[0]
        assert abs(mode.eigen_k.real - J0_2) / J0_2 < 0.005

    def test_boundary_error_shrinks_under_refinement(self):
        errs = []
        for h in (0.04, 0.02):
            s = CavitySpec(epsilon=0.0, mean_radius=1.0, h=h)
            k = solve_cavity_modes(s, 2.4, 1)[0].eigen_k.real
            errs.append(abs(k - J0_1) / J0_1)
        # halving must shrink the error; the second-order wall gives ~4x
        # here (criterion 5 pins >= 3x at h = 1/50 -> 1/100)
        assert errs[0] / errs[1] >= 1.5

    def test_open_modes_decay(self):
        s = CavitySpec(epsilon=0.0, mean_radius=1.0, h=0.04, variant="open",
                       cap_strength=5.0, cap_width=0.2)
        modes = solve_cavity_modes(s, 2.4, 2)
        for m in modes:
            assert m.eigen_k.imag < 0.0
            lam = m.eigen_k**2
            assert lam.imag <= 1e-8
            assert m.provenance == "cavity_open"
            # the solver's gauge survives the map back through Q
            s = (m.psi * m.psi).sum()
            assert abs(s.imag) <= 1e-12 * abs(s) and s.real > 0

    @pytest.mark.parametrize("eps, k", [(0.1, 2.5), (0.0, J1_1)])
    def test_closed_modes_stay_real(self, eps, k):
        # a real operator and shift factor in float64, and real Arnoldi
        # start vectors keep the Krylov space, the QR and the Ritz vectors
        # real, the degenerate disc pair (eps = 0, J1) included
        s = CavitySpec(epsilon=eps, mean_radius=1.0, h=0.05)
        for m in solve_cavity_modes(s, k, 2):
            assert m.eigen_k.imag == 0.0
            assert not m.psi.imag.any()

    def test_transpose_is_left_eigenvector(self):
        s = CavitySpec(epsilon=0.1, mean_radius=1.0, h=0.04, variant="open",
                       cap_strength=5.0, cap_width=0.2)
        op = assemble_helmholtz(build_ellipse_grid(s), s)
        m = solve_cavity_modes(s, 2.4, 1)[0]
        v = m.psi * m.h  # back to unit norm
        At = SparseOperator(op.n, op.cols, op.rows, op.vals)
        lam = m.eigen_k**2
        r = At.apply(v) - lam * v
        assert float(np.sqrt((np.abs(r) ** 2).sum())) < 1e-8

    def test_intensity_normalization(self):
        s = CavitySpec(epsilon=0.0, mean_radius=1.0, h=0.04)
        m = solve_cavity_modes(s, 2.4, 1)[0]
        assert abs((np.abs(m.psi) ** 2).sum() * m.h**2 - 1.0) < 1e-10

    def test_validation(self, disc_h01):
        with pytest.raises(ValueError):
            solve_cavity_modes(disc_h01, -1.0, 1)

    def test_mode_norm_enforced(self):
        with pytest.raises(InvalidSetting, match="normalized"):
            Mode(None, np.array([1.0, 1.0], dtype=complex), 1.0, "two_level")

    def test_mode_shape_enforced(self):
        # a psi off its grid's points would write an EPMODE file whose rows
        # zip the grid's coordinates with too few values
        geom = build_ellipse_grid(_spec(0.1, 0.1))
        assert geom.npts == 305
        psi = np.full(300, 1.0 / (np.sqrt(300) * geom.h), dtype=complex)
        with pytest.raises(InvalidSetting, match="300 entries, its grid 305"):
            Mode(geom, psi, 1.0, "cavity_closed")
        square = np.full((2, 2), 0.5, dtype=complex)
        with pytest.raises(InvalidSetting,
                           match=r"1-D, not of shape \(2, 2\)"):
            Mode(None, square, 1.0, "two_level")

    @pytest.mark.parametrize("field, value", [
        ("psi", np.array([np.nan, 0.0])), ("psi", np.array([np.inf, 0.0])),
        ("eigen_k", complex(np.nan, 0.0)), ("eigen_k", complex(1.0, np.inf)),
        ("eigen_k", -np.inf), ("residual_norm", np.nan),
        ("residual_norm", np.inf), ("residual_norm", -1.0)])
    def test_mode_values_checked(self, field, value):
        # Mode owns the rules on every value it keeps, one error class
        # naming the field
        kept = {"geometry": None, "psi": np.array([1.0, 0.0], dtype=complex),
                "eigen_k": 1.0, "provenance": "two_level",
                "residual_norm": 0.0}
        with pytest.raises(InvalidSetting) as err:
            Mode(**(kept | {field: value}))
        assert err.value.field == field
        assert field in str(err.value) or "normalized" in str(err.value)

    @pytest.mark.parametrize("variant, label", [
        ("closed", "cavity_open"), (None, "cavity_closed"),
        ("closed", "two_level"), ("open", "cavity_closed"),
        (None, "cavity_x")])
    def test_provenance_follows_geometry(self, variant, label):
        # no geometry is two_level, a grid is cavity_<its variant>; any
        # other label would write an EPMODE file that reads back wrong
        if variant is None:
            geom, psi = None, np.array([1.0, 0.0], dtype=complex)
        else:
            geom = build_ellipse_grid(
                _spec(0.1, 0.1, 1.0 if variant == "open" else 0.0))
            psi = np.full(geom.npts, 1.0 / (np.sqrt(geom.npts) * geom.h),
                          dtype=complex)
        with pytest.raises(InvalidSetting, match="provenance") as err:
            Mode(geom, psi, 1.0, label)
        assert err.value.field == "provenance"
        right = "two_level" if geom is None else f"cavity_{variant}"
        assert Mode(geom, psi, 1.0, right).provenance == right


def _spec(eps, h, eta=0.0):
    return CavitySpec(epsilon=eps, mean_radius=1.0, h=h,
                      variant="open" if eta else "closed",
                      cap_strength=eta, cap_width=0.2)


def _cavity(eps, h, eta=0.0):
    """(operator, grid) of the cavity _spec(eps, h, eta)."""
    g = build_ellipse_grid(_spec(eps, h, eta))
    return assemble_helmholtz(g, g.spec), g


def _basis_matrix(g):
    """Dense Q from the geometry's parity_basis."""
    block, weight = g.parity_basis
    Q = np.zeros((g.npts, g.npts))
    for s in range(4):
        on = weight[s] != 0.0
        Q[np.nonzero(on)[0], block[s, on]] = weight[s, on]
    return Q


def _orthonormal(rows):
    out = []
    for v in rows:
        for q in out:
            v = v - (np.conj(q) * v).sum() * q
        out.append(v / np.sqrt((np.abs(v) ** 2).sum()))
    return np.array(out)


class TestParityBasis:
    @pytest.mark.parametrize("h", [0.1, 0.02])
    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.28, 0.3])
    @pytest.mark.parametrize("eta", [0.0, 8.0])
    def test_operator_is_bitwise_mirror_invariant(self, eps, h, eta):
        op, g = _cavity(eps, h, eta)
        where = {(x, y): i for i, (x, y) in
                 enumerate(zip(g.pt_x.tolist(), g.pt_y.tolist()))}
        for sx, sy in ((-1.0, 1.0), (1.0, -1.0)):
            image = np.array([where[(sx * x, sy * y)] for x, y in
                              zip(g.pt_x.tolist(), g.pt_y.tolist())])
            mirrored = SparseOperator(op.n, image[op.rows], image[op.cols],
                                      op.vals)
            assert np.array_equal(mirrored.rows, op.rows)
            assert np.array_equal(mirrored.cols, op.cols)
            assert np.array_equal(mirrored.vals.view(np.uint64),
                                  op.vals.view(np.uint64))

    @pytest.mark.parametrize("eps", [0.0, 0.13])
    def test_basis_is_orthogonal(self, eps):
        _, g = _cavity(eps, 0.1)
        Q = _basis_matrix(g)
        y = np.random.default_rng(7).standard_normal(g.npts)
        assert abs(np.sqrt((Q @ y) @ (Q @ y)) - np.sqrt(y @ y)) \
            <= 1e-14 * np.sqrt(y @ y)
        assert np.abs(Q.T @ (Q @ y) - y).max() <= 1e-14 * np.abs(y).max()
        assert np.abs(Q.T @ Q - np.eye(g.npts)).max() <= 1e-14

    @pytest.mark.parametrize("h", [0.1, 0.02])
    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.28, 0.3])
    def test_reduced_blocks_are_narrow_and_diagonal(self, eps, h):
        op, g = _cavity(eps, h, 8.0)
        red = parity_reduce(op, g)
        assert red.n == op.n  # its constructor checked the symmetry
        b = g.spec.semi_axes[1]
        assert max(red.bandwidths()) <= int(np.floor(b / h)) + 2
        block, weight = g.parity_basis
        sector = np.zeros(op.n, dtype=np.int64)
        for s in range(4):
            sector[block[s, weight[s] != 0.0]] = s
        assert np.array_equal(sector[red.rows], sector[red.cols])

    @pytest.mark.parametrize("h", [0.1, 0.05])
    @pytest.mark.parametrize("eps", [0.0, 0.13, 0.28])
    @pytest.mark.parametrize("eta", [0.0, 1.0, 8.0])
    def test_representative_rows_reduce_bit_for_bit(self, eps, h, eta):
        # reference: every entry of A in every sector, summed term by term
        op, g = _cavity(eps, h, eta)
        n = op.n
        block, weight = g.parity_basis
        w = weight[:, op.rows] * weight[:, op.cols]
        keep = w != 0.0
        keys = (block[:, op.rows] * n + block[:, op.cols])[keep]
        uniq, inv = np.unique(keys, return_inverse=True)
        vals = np.zeros(uniq.size, dtype=np.complex128)
        np.add.at(vals, inv, (w * op.vals[None, :])[keep])
        want = SparseOperator(n, uniq // n, uniq % n, vals)
        red = parity_reduce(op, g)
        assert np.array_equal(red.rows, want.rows)
        assert np.array_equal(red.cols, want.cols)
        assert red.vals.tobytes() == want.vals.tobytes()

    def test_asymmetric_operator_rejected(self):
        op, g = _cavity(0.1, 0.1, 8.0)
        # one ulp on one diagonal entry: the check has no tolerance
        vals = op.vals.copy()
        first = int(np.nonzero(op.rows == op.cols)[0][0])
        vals[first] = complex(np.nextafter(vals[first].real, np.inf),
                              vals[first].imag)
        bent = SparseOperator(op.n, op.rows, op.cols, vals)
        with pytest.raises(ValueError, match="mirror"):
            parity_reduce(bent, g)

    @pytest.mark.parametrize("eps, eta, k", [(0.28, 8.0, 6.92),
                                             (0.300, 1.0, 8.015),
                                             (0.1, 0.0, 2.4)])
    def test_matches_unreduced_solve(self, eps, eta, k):
        op, g = _cavity(eps, 0.02, eta)
        modes = solve_cavity_modes(g.spec, k, 2)
        oracle = shift_invert_eigs(op, k * k, 2)
        for md, q in zip(modes, oracle):
            lam = md.eigen_k ** 2
            assert abs(lam - q.eigenvalue) <= 1e-10 * abs(q.eigenvalue)
            v = md.psi * md.h
            assert abs(abs((np.conj(v) * q.eigenvector).sum()) - 1.0) <= 1e-10
            r = op.apply(v) - lam * v
            assert md.residual_norm <= 1e-10
            assert abs(np.sqrt((np.abs(r) ** 2).sum()) - md.residual_norm) \
                <= 1e-12

    @pytest.mark.parametrize("eta", [0.0, 5.0])
    def test_degenerate_pair_spans_oracle_subspace(self, eta):
        # at eps = 0 the J1 cos/sin pair is degenerate and falls into two
        # sectors: only the eigenvalues and the spanned plane are defined
        op, g = _cavity(0.0, 0.04, eta)
        modes = solve_cavity_modes(g.spec, 3.83, 2)
        oracle = shift_invert_eigs(op, 3.83 ** 2, 2)
        got = sorted((md.eigen_k ** 2 for md in modes), key=lambda z: z.real)
        want = sorted((q.eigenvalue for q in oracle), key=lambda z: z.real)
        for a, b in zip(got, want):
            assert abs(a - b) <= 1e-10 * abs(b)
        A = _orthonormal([md.psi * md.h for md in modes])
        B = _orthonormal([q.eigenvector for q in oracle])
        overlap = np.conj(A) @ B.T
        assert abs(abs(np.linalg.det(overlap)) - 1.0) <= 1e-10
