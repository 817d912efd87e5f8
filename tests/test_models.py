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
    CavityOperator,
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


class TestAssembly:
    def test_closed_is_real_symmetric(self):
        s = CavitySpec(epsilon=0.12, mean_radius=1.0, h=0.05)
        op = assemble_helmholtz(build_ellipse_grid(s), s)
        assert op.symmetric
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
        assert op.symmetric  # constructor verifies the transpose closure
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
                          np.concatenate([diag] + vals), symmetric=True)


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
        op = _cavity(eps, h, eta)
        want = _full_grid_helmholtz(op.geometry, op.geometry.spec)
        assert np.array_equal(op.rows, want.rows)
        assert np.array_equal(op.cols, want.cols)
        assert op.vals.tobytes() == want.vals.tobytes()

    def test_current(self, eps, h, eta):
        g = _cavity(eps, h, eta).geometry
        rng = np.random.default_rng(5)
        raw = rng.standard_normal(g.npts) + 1j * rng.standard_normal(g.npts)
        m = Mode(g, raw / (np.sqrt((np.abs(raw) ** 2).sum()) * g.h), 1.0,
                 "cavity_open")
        j = current_field(m)
        jx, jy = _full_grid_current(m)
        assert j.jx.tobytes() == jx.tobytes()
        assert j.jy.tobytes() == jy.tobytes()


@pytest.fixture(scope="module")
def disc_h01():
    s = CavitySpec(epsilon=0.0, mean_radius=1.0, h=0.01)
    g = build_ellipse_grid(s)
    return assemble_helmholtz(g, s), s


class TestCavityModes:
    def test_lowest_disc_mode(self, disc_h01):
        op, _ = disc_h01
        mode = solve_cavity_modes(op, 2.4, 1)[0]
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
        op, _ = disc_h01
        mode = solve_cavity_modes(op, 5.52, 1)[0]
        assert abs(mode.eigen_k.real - J0_2) / J0_2 < 0.005

    def test_boundary_error_shrinks_under_refinement(self):
        errs = []
        for h in (0.04, 0.02):
            s = CavitySpec(epsilon=0.0, mean_radius=1.0, h=h)
            op = assemble_helmholtz(build_ellipse_grid(s), s)
            k = solve_cavity_modes(op, 2.4, 1)[0].eigen_k.real
            errs.append(abs(k - J0_1) / J0_1)
        # halving must shrink the error; the second-order wall gives ~4x
        # here (criterion 5 pins >= 3x at h = 1/50 -> 1/100)
        assert errs[0] / errs[1] >= 1.5

    def test_open_modes_decay(self):
        s = CavitySpec(epsilon=0.0, mean_radius=1.0, h=0.04, variant="open",
                       cap_strength=5.0, cap_width=0.2)
        op = assemble_helmholtz(build_ellipse_grid(s), s)
        modes = solve_cavity_modes(op, 2.4, 2)
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
        op = assemble_helmholtz(build_ellipse_grid(s), s)
        for m in solve_cavity_modes(op, k, 2):
            assert m.eigen_k.imag == 0.0
            assert not m.psi.imag.any()

    def test_transpose_is_left_eigenvector(self):
        s = CavitySpec(epsilon=0.1, mean_radius=1.0, h=0.04, variant="open",
                       cap_strength=5.0, cap_width=0.2)
        op = assemble_helmholtz(build_ellipse_grid(s), s)
        m = solve_cavity_modes(op, 2.4, 1)[0]
        v = m.psi * m.h  # back to unit norm
        At = SparseOperator(op.n, op.cols, op.rows, op.vals)
        lam = m.eigen_k**2
        r = At.apply(v) - lam * v
        assert float(np.sqrt((np.abs(r) ** 2).sum())) < 1e-8

    def test_intensity_normalization(self):
        s = CavitySpec(epsilon=0.0, mean_radius=1.0, h=0.04)
        op = assemble_helmholtz(build_ellipse_grid(s), s)
        m = solve_cavity_modes(op, 2.4, 1)[0]
        assert abs((np.abs(m.psi) ** 2).sum() * m.h**2 - 1.0) < 1e-10

    def test_validation(self, disc_h01):
        op, _ = disc_h01
        with pytest.raises(ValueError):
            solve_cavity_modes(op, -1.0, 1)
        bare = SparseOperator(2, [0, 1], [0, 1], [1.0, 2.0])
        with pytest.raises(ValueError, match="geometry"):
            solve_cavity_modes(bare, 1.0, 1)

    def test_mode_norm_enforced(self):
        with pytest.raises(ValueError, match="normalized"):
            Mode(None, np.array([1.0, 1.0], dtype=complex), 1.0, "two_level")


def _cavity(eps, h, eta=0.0):
    spec = CavitySpec(epsilon=eps, mean_radius=1.0, h=h,
                      variant="open" if eta else "closed",
                      cap_strength=eta, cap_width=0.2)
    return assemble_helmholtz(build_ellipse_grid(spec), spec)


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
        op = _cavity(eps, h, eta)
        g = op.geometry
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
        g = _cavity(eps, 0.1).geometry
        Q = _basis_matrix(g)
        y = np.random.default_rng(7).standard_normal(g.npts)
        assert abs(np.sqrt((Q @ y) @ (Q @ y)) - np.sqrt(y @ y)) \
            <= 1e-14 * np.sqrt(y @ y)
        assert np.abs(Q.T @ (Q @ y) - y).max() <= 1e-14 * np.abs(y).max()
        assert np.abs(Q.T @ Q - np.eye(g.npts)).max() <= 1e-14

    @pytest.mark.parametrize("h", [0.1, 0.02])
    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.28, 0.3])
    def test_reduced_blocks_are_narrow_and_diagonal(self, eps, h):
        op = _cavity(eps, h, 8.0)
        red = parity_reduce(op)
        assert red.symmetric and red.n == op.n
        b = op.geometry.spec.semi_axes[1]
        assert max(red.bandwidths()) <= int(np.floor(b / h)) + 2
        block, weight = op.geometry.parity_basis
        sector = np.zeros(op.n, dtype=np.int64)
        for s in range(4):
            sector[block[s, weight[s] != 0.0]] = s
        assert np.array_equal(sector[red.rows], sector[red.cols])

    @pytest.mark.parametrize("h", [0.1, 0.05])
    @pytest.mark.parametrize("eps", [0.0, 0.13, 0.28])
    @pytest.mark.parametrize("eta", [0.0, 1.0, 8.0])
    def test_representative_rows_reduce_bit_for_bit(self, eps, h, eta):
        # reference: every entry of A in every sector, summed term by term
        op = _cavity(eps, h, eta)
        n = op.n
        block, weight = op.geometry.parity_basis
        w = weight[:, op.rows] * weight[:, op.cols]
        keep = w != 0.0
        keys = (block[:, op.rows] * n + block[:, op.cols])[keep]
        uniq, inv = np.unique(keys, return_inverse=True)
        vals = np.zeros(uniq.size, dtype=np.complex128)
        np.add.at(vals, inv, (w * op.vals[None, :])[keep])
        want = SparseOperator(n, uniq // n, uniq % n, vals, symmetric=True)
        red = parity_reduce(op)
        assert np.array_equal(red.rows, want.rows)
        assert np.array_equal(red.cols, want.cols)
        assert red.vals.tobytes() == want.vals.tobytes()

    def test_asymmetric_operator_rejected(self):
        op = _cavity(0.1, 0.1, 8.0)
        # one ulp on one diagonal entry: the check has no tolerance
        vals = op.vals.copy()
        first = int(np.nonzero(op.rows == op.cols)[0][0])
        vals[first] = complex(np.nextafter(vals[first].real, np.inf),
                              vals[first].imag)
        bent = CavityOperator(op.geometry, op.rows, op.cols, vals)
        with pytest.raises(ValueError, match="mirror"):
            parity_reduce(bent)

    @pytest.mark.parametrize("eps, eta, k", [(0.28, 8.0, 6.92),
                                             (0.300, 1.0, 8.015),
                                             (0.1, 0.0, 2.4)])
    def test_matches_unreduced_solve(self, eps, eta, k):
        op = _cavity(eps, 0.02, eta)
        modes = solve_cavity_modes(op, k, 2)
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
        op = _cavity(0.0, 0.04, eta)
        modes = solve_cavity_modes(op, 3.83, 2)
        oracle = shift_invert_eigs(op, 3.83 ** 2, 2)
        got = sorted((md.eigen_k ** 2 for md in modes), key=lambda z: z.real)
        want = sorted((q.eigenvalue for q in oracle), key=lambda z: z.real)
        for a, b in zip(got, want):
            assert abs(a - b) <= 1e-10 * abs(b)
        A = _orthonormal([md.psi * md.h for md in modes])
        B = _orthonormal([q.eigenvector for q in oracle])
        overlap = np.conj(A) @ B.T
        assert abs(abs(np.linalg.det(overlap)) - 1.0) <= 1e-10
