import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from skwave import functionals as fn
from skwave import spectral as sp
from skwave import waves as wv
from skwave.errors import DegenerateProfileError, UsageError
from skwave.kernel import Grid, quadrature, symmetric_eigen


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------

def apply_lre_direct(p: wv.Profile, P: np.ndarray) -> np.ndarray:
    """Unsymmetrized node-wise action of L_Re, kept as a matvec oracle:
    -c P'' - 2 (phi', P') phi'' + omega P - (2r+1) phi^2r P."""
    from skwave.functionals import state_derivative

    P = np.asarray(P, dtype=float)
    dP = state_derivative(p.grid, P)
    d2P = state_derivative(p.grid, dP)
    r, w, c = p.params.r, p.params.omega, p.params.c
    cross = quadrature(p.grid, p.dphi * dP)
    return -c * d2P - 2 * cross * p.d2phi + w * P - (2 * r + 1) * p.phi ** (2 * r) * P


def even_restriction(grid: Grid) -> np.ndarray:
    """Orthonormal basis (columns) of the even-reflection subspace."""
    n = grid.n
    if grid.topology == "torus":
        ncols = n // 2 + 1
        B = np.zeros((n, ncols))
        B[0, 0] = 1.0
        B[n // 2, n // 2] = 1.0
        for j in range(1, n // 2):
            B[j, j] = B[n - j, j] = 1 / math.sqrt(2)
        return B
    ncols = n // 2
    B = np.zeros((n, ncols))
    for j in range(ncols):
        B[j, j] = B[n - 1 - j, j] = 1 / math.sqrt(2)
    return B


# ----------------------------------------------------------------------
# assembly
# ----------------------------------------------------------------------

def test_lre_annihilates_translation_mode(dn_profile, solitary_r1_profile):
    for prof in (dn_profile, solitary_r1_profile):
        op = sp.assemble("L_Re", prof)
        resid = op.matrix @ prof.dphi
        scale = np.max(np.abs(op.matrix)) * np.max(np.abs(prof.dphi))
        assert np.max(np.abs(resid)) <= 1e-6 * scale


def test_lim_annihilates_phi(dn_profile, solitary_r1_profile):
    for prof in (dn_profile, solitary_r1_profile):
        op = sp.assemble("L_Im", prof)
        resid = op.matrix @ prof.phi
        scale = np.max(np.abs(op.matrix)) * np.max(np.abs(prof.phi))
        assert np.max(np.abs(resid)) <= 1e-6 * scale


def test_matrix_quadratic_form_matches_functional(dn_profile, rng):
    op = sp.assemble("L_Re", dn_profile)
    g = dn_profile.grid
    for _ in range(20):
        coef = rng.standard_normal(9)
        P = coef[0] + sum(c * np.cos((i + 1) * g.nodes) for i, c in enumerate(coef[1:5]))
        P += sum(c * np.sin((i + 1) * g.nodes) for i, c in enumerate(coef[5:]))
        via_matrix = float(P @ (op.matrix @ P)) * g.weights[0]
        via_form = fn.quadratic_form_LRe(dn_profile, P)
        assert abs(via_matrix - via_form) <= 1e-8 * max(abs(via_form), 1.0)


def test_assembled_lre_matches_direct_action(dn_profile, solitary_r1_profile, rng):
    # validates the symmetric rank-one rewriting of the nonlocal term
    for prof in (dn_profile, solitary_r1_profile):
        g = prof.grid
        if g.topology == "torus":
            P = np.cos(g.nodes) + 0.4 * np.sin(3 * g.nodes)
        else:
            P = np.exp(-g.nodes ** 2 / 6) * (1 + 0.2 * g.nodes)
        lhs = sp.assemble("L_Re", prof).matrix @ P
        rhs = apply_lre_direct(prof, P)
        scale = np.max(np.abs(rhs))
        # the direct route squares D1 where the matrix carries D2; on the
        # line the two differ at the h^4 truncation level (~4e-6)
        tol = 1e-8 if g.topology == "torus" else 1e-5
        assert np.max(np.abs(lhs - rhs)) <= tol * max(scale, 1.0)


def test_assemble_bad_kind(dn_profile):
    with pytest.raises(UsageError):
        sp.assemble("L_zz", dn_profile)


# ----------------------------------------------------------------------
# spectrum counts
# ----------------------------------------------------------------------

def test_counts_dn(dn_profile):
    s_re = sp.spectrum(sp.assemble("L_Re", dn_profile))
    s_im = sp.spectrum(sp.assemble("L_Im", dn_profile))
    assert (s_re.n_neg, s_re.z_kernel) == (1, 1)
    assert (s_im.n_neg, s_im.z_kernel) == (0, 1)
    block = sp.block_summary(s_re, s_im)
    assert (block.n_neg, block.z_kernel) == (1, 2)
    assert s_re.ess_edge is None


def test_counts_solitary(solitary_r1_profile):
    s_re = sp.spectrum(sp.assemble("L_Re", solitary_r1_profile))
    s_im = sp.spectrum(sp.assemble("L_Im", solitary_r1_profile))
    assert (s_re.n_neg, s_re.z_kernel) == (1, 1)
    assert (s_im.n_neg, s_im.z_kernel) == (0, 1)
    w, c = solitary_r1_profile.params.omega, solitary_r1_profile.params.c
    assert s_re.ess_edge == pytest.approx(w / c)
    # third eigenvalue strictly positive (zero is simple)
    assert s_re.lowest[2] > s_re.tol_kernel


def test_discrete_spectrum_stable_under_doubling():
    p = wv.solve_solitary(1, 1.0)
    counts = []
    for n in (512, 1024):
        prof = wv.sample_profile(p, wv.default_grid(p, n))
        s = sp.spectrum(sp.assemble("L_Re", prof))
        counts.append((s.n_neg, s.z_kernel))
        # no stray eigenvalues inside the spectral gap below the
        # essential-spectrum edge
        w_all, _ = symmetric_eigen(sp.assemble("L_Re", prof).matrix)
        gap = np.sum((w_all > s.tol_kernel) & (w_all < 0.95 * s.ess_edge))
        assert gap == 0
    assert counts[0] == counts[1] == (1, 1)


def test_spectrum_confirmation_freezes_tolerance():
    # on the torus ||M||_inf grows ~n^2 with the resolution; the
    # confirmation pass keeps the base tolerance so the genuine third
    # eigenvalue (0.031 at k = 0.5) is not absorbed into the kernel
    params = wv.solve_periodic_r1(0.5)
    base, doubled = sp.spectrum_confirmed("L_Re", params)
    assert base.tol_kernel == doubled.tol_kernel
    assert (base.n_neg, base.z_kernel) == (1, 1)
    assert (doubled.n_neg, doubled.z_kernel) == (1, 1)


def test_ground_state_positivity(dn_profile, solitary_r1_profile):
    for prof in (dn_profile, solitary_r1_profile):
        w_im, v_im = symmetric_eigen(sp.assemble("L_Im", prof).matrix)
        ground = v_im[:, 0]
        corr = abs(ground @ prof.phi) / (np.linalg.norm(ground)
                                         * np.linalg.norm(prof.phi))
        assert corr > 0.999
        w_re, v_re = symmetric_eigen(sp.assemble("L_Re", prof).matrix)
        assert w_re[0] < 0
        g0 = v_re[:, 0]
        g0 = g0 * np.sign(g0[np.argmax(np.abs(g0))])
        assert np.min(g0) > -1e-8 * np.max(g0)


def test_lim_no_negative_spectrum(dnq_profile, solitary_r4_profile):
    for prof in (dnq_profile, solitary_r4_profile):
        s = sp.spectrum(sp.assemble("L_Im", prof))
        assert s.n_neg == 0
        w, _ = symmetric_eigen(sp.assemble("L_Im", prof).matrix)
        assert w[0] >= -s.tol_kernel


# ----------------------------------------------------------------------
# Floquet constant
# ----------------------------------------------------------------------

def test_theta_dn_regression(dn_profile):
    res = sp.floquet_theta(dn_profile)
    assert abs(res.theta - (-18.7569)) < 0.01 * 18.7569
    # frozen high-accuracy value (three independent integrators agree)
    assert res.theta == pytest.approx(-18.756982, abs=2e-4)
    assert abs(res.omega_at - 0.508) < 1e-3
    assert res.theta == res.ybar_end[1] / res.phi_dd0


def test_theta_dnq_regression(dnq_profile):
    # frozen value confirmed by RK45/DOP853/LSODA at rtol 1e-13 and by
    # the translation relation ybar(x+2pi) = ybar(x) + theta*phi'(x);
    # the published reference -40.5143 is 2.7% away from the true value
    # of the exactly constructed wave (see the acceptance suite).
    res = sp.floquet_theta(dnq_profile)
    assert res.theta == pytest.approx(-41.597021, abs=5e-4)
    assert res.theta < 0
    assert abs(res.omega_at - 0.2642) < 1e-3


def test_theta_via_translation_relation(dn_profile):
    # independent extraction of theta: integrate over two periods and
    # fit ybar(x + 2pi) - ybar(x) = theta * phi'(x)
    params = dn_profile.params
    phi_f, dphi_f, d2phi_f = wv.closed_form_evaluators(params)
    c, w, r = params.c, params.omega, params.r
    phidd0 = float(d2phi_f(0.0))

    def rhs(x, y):
        v = float(phi_f(x))
        return np.array([y[1], (w - 3 * v * v) / c * y[0]])

    res = solve_ivp(rhs, (0.0, 4 * np.pi), np.array([-1 / phidd0, 0.0]),
                    method="RK45", rtol=2.5e-12, atol=2.5e-14, dense_output=True)
    xs = np.array([0.7, 1.9, 3.1, 4.4, 5.6])
    vals = (res.sol(xs + 2 * np.pi)[0] - res.sol(xs)[0]) / dphi_f(xs)
    theta_fit = float(np.mean(vals))
    assert np.max(np.abs(vals - theta_fit)) < 1e-6 * abs(theta_fit)
    assert sp.floquet_theta(dn_profile).theta == pytest.approx(theta_fit, rel=1e-6)


def test_wronskian_constant(dn_profile):
    params = dn_profile.params
    phi_f, dphi_f, d2phi_f = wv.closed_form_evaluators(params)
    c, w = params.c, params.omega
    phidd0 = float(d2phi_f(0.0))

    def rhs(x, y):
        v = float(phi_f(x))
        return np.array([y[1], (w - 3 * v * v) / c * y[0]])

    res = solve_ivp(rhs, (0.0, 2 * np.pi), np.array([-1 / phidd0, 0.0]),
                    method="RK45", rtol=2.5e-12, atol=2.5e-14, dense_output=True)
    xs = np.linspace(0.1, 2 * np.pi - 0.1, 9)
    ybar = res.sol(xs)
    wronskian = dphi_f(xs) * ybar[1] - d2phi_f(xs) * ybar[0]
    # normalization ybar(0) = -1/phi''(0) makes it identically one
    assert np.max(np.abs(wronskian - 1.0)) < 1e-8


def theta_dop853(params: wv.WaveParams) -> float:
    """Floquet constant by DOP853 at rtol 1e-13 on the scalar closed form."""
    phi_f, _, d2phi_f = wv.closed_form_evaluators(params)
    phidd0 = float(d2phi_f(0.0))
    r, w, c = params.r, params.omega, params.c

    def rhs(x, y):
        v = float(phi_f(x))
        return np.array([y[1], (w - (2 * r + 1) * v ** (2 * r)) / c * y[0]])

    res = solve_ivp(rhs, (0.0, 2 * np.pi), np.array([-1 / phidd0, 0.0]),
                    method="DOP853", rtol=1e-13, atol=1e-15)
    assert res.success
    return float(res.y[1, -1] / phidd0)


@pytest.mark.parametrize("family, r", [(wv.PERIODIC_DN, 1), (wv.PERIODIC_DNQ, 2)])
def test_floquet_theta_matches_dop853_oracle(family, r):
    # below k = 0.2, phi''(0)^2 ~ k^4 divides a monodromy entry that is
    # small against the propagated state, so both routes lose digits to
    # roundoff there; the oracle itself is off by ~1e-8 at k = 0.05
    bands = [((0.2, 0.35, 0.5, 0.65, 0.8, 0.95), 1e-9), ((0.05, 0.1), 1e-7)]
    for ks, rel in bands:
        for k in ks:
            p = wv.solve_family(family, r, k)
            theta = sp.floquet_theta(wv.sample_profile(p, wv.default_grid(p))).theta
            assert theta == pytest.approx(theta_dop853(p), rel=rel), k


def test_theta_degenerate_profile(dn_profile):
    # a vanishing modulus flattens the wave: phi''(0) ~ k^2 -> 0
    params_flat = wv.WaveParams("periodic_dn", 1, dn_profile.params.omega,
                                dn_profile.params.a, dn_profile.params.b,
                                dn_profile.params.c, k=1e-14)
    prof = wv.sample_profile(params_flat, dn_profile.grid)
    with pytest.raises(DegenerateProfileError):
        sp.floquet_theta(prof)


def test_theta_rejects_line_profile(solitary_r1_profile):
    with pytest.raises(UsageError):
        sp.floquet_theta(solitary_r1_profile)


# ----------------------------------------------------------------------
# isoinertia sweep
# ----------------------------------------------------------------------

def test_isoinertia_dn():
    rep = sp.isoinertia_sweep(wv.PERIODIC_DN, 1, np.linspace(0.1, 0.9, 9))
    assert rep.consistent
    assert all(e.theta < 0 for e in rep.entries)
    assert all((e.n_neg, e.z_kernel) == (1, 1) for e in rep.entries)


def test_isoinertia_dnq():
    rep = sp.isoinertia_sweep(wv.PERIODIC_DNQ, 2, [0.2, 0.5, 0.8])
    assert rep.consistent
    assert all(e.theta < 0 for e in rep.entries)
    assert all(e.z_kernel == 1 for e in rep.entries)


# ----------------------------------------------------------------------
# even-subspace restriction
# ----------------------------------------------------------------------

def test_even_counts_solitary_r4(solitary_r4_profile):
    e_re = sp.spectrum_even(sp.assemble("L_Re", solitary_r4_profile))
    e_im = sp.spectrum_even(sp.assemble("L_Im", solitary_r4_profile))
    # translation mode phi' is odd and drops out of the kernel
    assert (e_re.n_neg, e_re.z_kernel) == (1, 0)
    assert (e_im.n_neg, e_im.z_kernel) == (0, 1)


def test_even_restriction_orthonormal(dn_profile):
    B = even_restriction(dn_profile.grid)
    assert np.max(np.abs(B.T @ B - np.eye(B.shape[1]))) < 1e-14


def test_spectrum_even_matches_basis_oracle(dn_profile, solitary_r4_profile):
    # the index-built even block agrees with B^T M B on both topologies
    for prof in (dn_profile, solitary_r4_profile):
        B = even_restriction(prof.grid)
        for kind in ("L_Re", "L_Im"):
            op = sp.assemble(kind, prof)
            norm = float(np.max(np.abs(op.matrix)))
            w, _ = symmetric_eigen(B.T @ op.matrix @ B)
            tol = 1e-6 * norm
            s = sp.spectrum_even(op)
            assert s.tol_kernel == tol
            assert np.max(np.abs(np.array(s.lowest) - w[:5])) <= 1e-12 * norm
            assert (s.n_neg, s.z_kernel) == (int(np.sum(w < -tol)),
                                             int(np.sum(np.abs(w) <= tol)))


# ----------------------------------------------------------------------
# the eta equation
# ----------------------------------------------------------------------

def test_eta_residual_solitary(solitary_r1_profile):
    assert sp.eta_equation_check(solitary_r1_profile, 1e-4) < 1e-3


def test_eta_residual_halves_with_step(solitary_r1_profile):
    # second-order central differences; tested where the h^2 term
    # dominates the 4th-order discretization floor (~6e-6)
    r1 = sp.eta_equation_check(solitary_r1_profile, 0.1)
    r2 = sp.eta_equation_check(solitary_r1_profile, 0.05)
    assert 2.5 < r1 / r2 < 6.0


def test_eta_periodic(dn_profile):
    assert sp.eta_equation_check(dn_profile, 1e-4) < 1e-3


def test_eta_slope_identity(solitary_r1_profile):
    # (L_Re eta, eta) = -slope/2 links the eta equation to the
    # frequency slope of the squared norm
    prof = solitary_r1_profile
    eta = sp.finite_difference_eta(prof, 1e-4)
    M = sp.assemble("L_Re", prof).matrix
    lhs = float(eta @ (M @ eta) * prof.grid.weights[1])
    slope = fn.vk_slope("solitary", 1, 1.0).slope
    assert abs(lhs - (-slope / 2)) < 0.05 * abs(slope / 2)
