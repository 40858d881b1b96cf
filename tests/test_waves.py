import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from skwave import elliptic as el
from skwave import waves as wv
from skwave.errors import DomainError, ExistenceError, UsageError
from skwave.kernel import line_grid, quadrature, torus_grid

from oracles import read_profile_header


# ----------------------------------------------------------------------
# oracles: the numerical family solves that the closed forms replaced
# ----------------------------------------------------------------------

def shape_constants_by_quadrature(r: int) -> tuple[float, float]:
    """(A, M) by adaptive quadrature on the half line: the oracle for the
    closed forms."""
    p = 2.0 / r

    def sech_pow(x: float) -> float:
        # overflow-safe sech(x)^p for the infinite-interval quadrature
        e = math.exp(-abs(x))
        return (2 * e / (1 + e * e)) ** p

    A = 2 * quad(lambda x: sech_pow(x) * math.tanh(x) ** 2, 0, np.inf,
                 epsabs=1e-13, epsrel=1e-13, limit=200)[0]
    M = 2 * quad(sech_pow, 0, np.inf, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
    return A, M


def _gensolit_a(r: int, omega: float, A: float, b: float) -> float:
    """Amplitude in terms of the width candidate b."""
    disc = A * b * (r * r * omega - b * b)
    if disc <= 0:
        raise DomainError("width candidate outside the admissible range")
    return math.sqrt(disc) * r / (A * b * b)


def _gensolit_residual(r: int, omega: float, A: float, b: float) -> float:
    """Width equation: vanishes exactly on the solitary branch."""
    root = math.sqrt(A * b * (r * r * omega - b * b))
    a = root * r / (A * b * b)
    return (-(a ** (2 * r + 1)) * r ** 4
            + (1 + r) * root * r * (r * r + (r * r * omega - b * b) * r * r / (b * b)) / A)


def _solve_solitary_r1(omega: float) -> tuple[float, float]:
    """Closed-form (a, b) for r = 1."""
    inner = (12 * omega ** 3 - 1) / omega
    D = 24 * omega ** 3 - 1 + 4 * math.sqrt(3) * math.sqrt(inner) * omega ** 2
    cbrt = D ** (1.0 / 3)
    b = (cbrt + 1.0 / cbrt - 1.0) / (4 * omega)
    a = math.sqrt(6 * b * (omega - b * b)) / (2 * b * b)
    return a, b


def solve_solitary_oracle(r: int, omega: float) -> wv.WaveParams:
    """Solitary parameters from the r = 1 radicals, and for r > 1 from a
    129-point scan of the width equation plus Brent."""
    thr = wv.solitary_threshold(r)
    if omega <= thr:
        raise ExistenceError(
            f"solitary family with r={r} requires omega > {thr:.6f}, got {omega}")
    A, _ = wv.shape_constants(r)
    if r == 1:
        a, b = _solve_solitary_r1(omega)
    else:
        bmax = r * math.sqrt(omega)
        lo, hi = 1e-6 * bmax, (1 - 1e-9) * bmax
        # single sign change on (0, bmax); scan picks the subinterval,
        # keeping the branch that continues from b -> 0
        bs = np.linspace(lo, hi, 129)
        vals = [_gensolit_residual(r, omega, A, float(x)) for x in bs]
        bracket = None
        for i in range(len(bs) - 1):
            if vals[i] == 0.0:
                bracket = (bs[i], bs[i])
                break
            if vals[i] * vals[i + 1] < 0:
                bracket = (float(bs[i]), float(bs[i + 1]))
                break
        if bracket is None:
            raise ExistenceError(
                f"no width root in (0, {bmax:.4f}) for r={r}, omega={omega}")
        if bracket[0] == bracket[1]:
            b = bracket[0]
        else:
            b = brentq(lambda x: _gensolit_residual(r, omega, A, x),
                       bracket[0], bracket[1], xtol=1e-14, rtol=8.9e-16,
                       maxiter=200)
        a = _gensolit_a(r, omega, A, b)
    c = omega * r * r / (b * b)
    return wv.WaveParams(wv.SOLITARY, r, omega, a, b, c)


def solve_periodic_r2_oracle(k: float, n_quad: int = wv.DEFAULT_N_TORUS) -> wv.WaveParams:
    """Quotient parameters with the amplitude from a 200-point scan plus
    Brent on the residual projected onto the profile, with the Kirchhoff
    constant recomputed from each candidate on an ``n_quad`` grid."""
    alpha = wv.dnq_alpha(k)
    kappa = wv.dnq_omega_coefficient(k)
    b = el.complete_K(k) / math.pi
    grid = torus_grid(n_quad)
    sn, cn, dn = el.jacobi(b * grid.nodes, k)
    g = 1 - alpha * sn ** 2

    def fields(a: float):
        phi = a * dn / np.sqrt(g)
        dphi = a * b * (alpha - k * k) * sn * cn * g ** -1.5
        d2phi = (a * b * b * (alpha - k * k) * dn * g ** -2.5
                 * ((cn ** 2 - sn ** 2) * g + 3 * alpha * sn ** 2 * cn ** 2))
        return phi, dphi, d2phi

    def projected_residual(a: float) -> float:
        phi, dphi, d2phi = fields(a)
        c = 1 + quadrature(grid, dphi ** 2)
        omega = kappa * a ** 4
        resid = -c * d2phi + omega * phi - phi ** 5
        return quadrature(grid, resid * phi)

    lo, hi = 0.05, 10.0
    aa = np.linspace(lo, hi, 200)
    vals = [projected_residual(float(x)) for x in aa]
    bracket = None
    for i in range(len(aa) - 1):
        if vals[i] * vals[i + 1] < 0:
            bracket = (float(aa[i]), float(aa[i + 1]))
            break
    if bracket is None:
        raise ExistenceError(
            f"no amplitude root in ({lo}, {hi}) for the quotient family at k={k}")
    a = brentq(projected_residual, bracket[0], bracket[1], xtol=1e-14,
               rtol=8.9e-16, maxiter=200)
    _, dphi, _ = fields(a)
    c = 1 + quadrature(grid, dphi ** 2)
    omega = kappa * a ** 4
    return wv.WaveParams(wv.PERIODIC_DNQ, 2, omega, a, b, c, k=k, alpha=alpha)


def closed_form_evaluators_oracle(params: wv.WaveParams):
    """The per-derivative closures that ``profile_values`` replaced, one
    ``jacobi`` call each: (phi, dphi, d2phi) callables."""
    a, b, r = params.a, params.b, params.r
    if params.family == wv.SOLITARY:
        inv_r = 1.0 / r

        def phi(x):
            return a * np.cosh(b * np.asarray(x)) ** -inv_r

        def dphi(x):
            y = b * np.asarray(x)
            return -(a * b / r) * np.cosh(y) ** -inv_r * np.tanh(y)

        def d2phi(x):
            y = b * np.asarray(x)
            s = 1.0 / np.cosh(y)
            t = np.tanh(y)
            return (a * b * b / r) * s ** inv_r * (t * t / r - s * s)

    elif params.family == wv.PERIODIC_DN:
        k = params.k

        def phi(x):
            _, _, dn = el.jacobi(b * np.asarray(x), k)
            return a * dn

        def dphi(x):
            sn, cn, _ = el.jacobi(b * np.asarray(x), k)
            return -a * b * k * k * sn * cn

        def d2phi(x):
            _, _, dn = el.jacobi(b * np.asarray(x), k)
            return a * b * b * ((2 - k * k) * dn - 2 * dn ** 3)

    elif params.family == wv.PERIODIC_DNQ:
        k, alpha = params.k, params.alpha

        def phi(x):
            sn, _, dn = el.jacobi(b * np.asarray(x), k)
            return a * dn / np.sqrt(1 - alpha * sn ** 2)

        def dphi(x):
            sn, cn, _ = el.jacobi(b * np.asarray(x), k)
            g = 1 - alpha * sn ** 2
            return a * b * (alpha - k * k) * sn * cn * g ** -1.5

        def d2phi(x):
            sn, cn, dn = el.jacobi(b * np.asarray(x), k)
            g = 1 - alpha * sn ** 2
            return (a * b * b * (alpha - k * k) * dn * g ** -2.5
                    * ((cn ** 2 - sn ** 2) * g + 3 * alpha * sn ** 2 * cn ** 2))

    else:
        raise UsageError(f"unknown family {params.family!r}")
    return phi, dphi, d2phi


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref)


# ----------------------------------------------------------------------
# shape constants
# ----------------------------------------------------------------------

def test_shape_constants_closed_forms():
    A1, M1 = wv.shape_constants(1)
    assert abs(A1 - 2 / 3) < 1e-10
    assert abs(M1 - 2.0) < 1e-10
    A2, M2 = wv.shape_constants(2)
    assert abs(M2 - np.pi) < 1e-10
    assert abs(A2 - np.pi / 2) < 1e-10


@pytest.mark.parametrize("r", range(1, 7))
def test_shape_constants_vs_quadrature(r):
    A, M = wv.shape_constants(r)
    A_or, M_or = shape_constants_by_quadrature(r)
    assert _rel(A, A_or) < 1e-14
    assert _rel(M, M_or) < 1e-14


def test_shape_constants_vs_substitution_oracle():
    # t = tanh(x) maps the integrals onto a finite interval: an oracle
    # independent of the infinite-interval quadrature above
    for r in (2, 4):
        p = 2.0 / r
        A_or = 2 * quad(lambda t: (1 - t * t) ** (p / 2 - 1) * t * t, 0, 1,
                        epsabs=1e-13, epsrel=1e-13)[0]
        M_or = 2 * quad(lambda t: (1 - t * t) ** (p / 2 - 1), 0, 1,
                        epsabs=1e-13, epsrel=1e-13)[0]
        A, M = wv.shape_constants(r)
        assert abs(A - A_or) < 1e-10
        assert abs(M - M_or) < 1e-10


# ----------------------------------------------------------------------
# solitary family
# ----------------------------------------------------------------------

def test_solitary_r1_limit_values():
    thr = wv.solitary_threshold(1)
    assert abs(thr - 12 ** (-1 / 3)) < 1e-12
    p = wv.solve_solitary(1, thr + 1e-6)
    assert abs(p.a - 0.93467) < 1e-3
    assert abs(p.b - 0.57235) < 1e-3


def test_solitary_r1_closed_form_vs_cubic():
    # phi = a sech(bx) in the stationary equation forces a^2 = 2w and
    # (4/3) w b^3 + b^2 - w = 0 (sech'' = sech - 2 sech^3)
    p = wv.solve_solitary(1, 1.0)
    assert abs((4 / 3) * p.b ** 3 + p.b ** 2 - 1.0) < 1e-10
    assert abs(p.a ** 2 - 2.0) < 1e-10


def test_root_r1_width_cubic_matches_closed_form():
    # the root of (4/3) w b^3 + b^2 - w = 0 at w = 1 against the
    # closed-form width of the solitary r = 1 solver
    root = brentq(lambda b: (4 / 3) * b ** 3 + b * b - 1, 0, (3 / 4) ** (1 / 3),
                  xtol=1e-14, rtol=8.9e-16, maxiter=200)
    assert abs(root - wv.solve_solitary(1, 1.0).b) < 1e-10


@pytest.mark.parametrize("r,omega", [(1, 0.4), (1, 0.43), (2, 0.28), (4, 0.19)])
def test_solitary_existence_rejection(r, omega):
    with pytest.raises(ExistenceError):
        wv.solve_solitary(r, omega)


@pytest.mark.parametrize("r,omega", [(1, 0.44), (2, 0.29), (4, 0.21)])
def test_solitary_existence_acceptance(r, omega):
    p = wv.solve_solitary(r, omega)
    assert p.a > 0 and p.b > 0 and p.c > 1


def test_solitary_general_r_consistency():
    # the width equation is equivalent to a^(2r) = (r+1) omega
    for r, omega in [(2, 0.5), (4, 0.3), (3, 0.4)]:
        p = wv.solve_solitary(r, omega)
        assert abs(p.a ** (2 * r) - (r + 1) * omega) < 1e-9


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_solitary_closed_form_matches_scan_oracle(r):
    thr = wv.solitary_threshold(r)
    for omega in (thr + 1e-9, thr + 1e-6, thr + 1e-3, thr + 0.1, 1.0, 2.0, 5.0, 20.0):
        p = wv.solve_solitary(r, omega)
        q = solve_solitary_oracle(r, omega)
        for x, ref in ((p.a, q.a), (p.b, q.b), (p.c, q.c)):
            assert _rel(x, ref) <= 1e-13, (r, omega)


def test_solitary_one_ulp_above_threshold():
    # at r = 3 the Cardano discriminant rounds to -4.4e-16 here; it must
    # be clamped, not handed to sqrt
    omega = float(np.nextafter(wv.solitary_threshold(3), 2.0))
    p = wv.solve_solitary(3, omega)
    assert all(np.isfinite(x) and x > 0 for x in (p.a, p.b, p.c))


def test_solitary_monotone_parameters():
    thr = wv.solitary_threshold(1)
    omegas = thr + np.linspace(0.01, 1.5, 50)
    ps = [wv.solve_solitary(1, float(w), validate=False) for w in omegas]
    assert np.all(np.diff([p.a for p in ps]) > 0)
    assert np.all(np.diff([p.b for p in ps]) > 0)


# ----------------------------------------------------------------------
# periodic families
# ----------------------------------------------------------------------

def test_periodic_r1_frequency_at_half():
    p = wv.solve_periodic_r1(0.5)
    assert abs(p.omega - 0.508) < 1e-3


def test_periodic_r1_small_k_width_limit():
    p = wv.solve_periodic_r1(1e-4)
    assert abs(p.b - 0.5) < 1e-6


@pytest.mark.parametrize("k", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_periodic_r1_bounds(k):
    p = wv.solve_periodic_r1(k)
    assert p.a > np.sqrt(2) / 2
    assert p.omega > 0.5


def test_periodic_r1_beyond_limit():
    with pytest.raises(DomainError):
        wv.solve_periodic_r1(0.99)


def test_dn_modulus_limit_value():
    assert abs(wv.dn_modulus_limit() - 0.979653) < 1e-5


def test_dn_modulus_limit_brackets_root():
    # the dnoidal family ends where its denominator changes sign
    k_star = wv.dn_modulus_limit()
    assert wv._dn_denominator(k_star - 1e-12) > 0
    assert wv._dn_denominator(k_star + 1e-12) <= 0
    oracle = brentq(wv._dn_denominator, 0.9, 0.9999, xtol=1e-14, rtol=8.9e-16,
                    maxiter=200)
    assert abs(k_star - oracle) <= 1e-12


def test_periodic_r2_alpha():
    assert abs(wv.dnq_alpha(0.5) - (0.75 - np.sqrt(0.8125))) < 1e-12
    assert abs(wv.dnq_alpha(0.5) + 0.151388) < 1e-6
    for k in (0.1, 0.3, 0.5, 0.7, 0.9):
        assert wv.dnq_alpha(k) < 0


def test_periodic_r2_alpha_kappa_vs_mpmath():
    # the defining forms 1 - k^2 - s and k^2 (alpha k^2 - k^2 - alpha) /
    # (alpha^2 (alpha - 2)) at 50 digits; in doubles both cancel at small k
    eps = np.finfo(float).eps
    with mpmath.workdps(50):
        for k in np.geomspace(1e-3, 0.999, 120):
            km = mpmath.mpf(k)
            alpha = 1 - km ** 2 - mpmath.sqrt(km ** 4 - km ** 2 + 1)
            kappa = (km ** 2 * (alpha * km ** 2 - km ** 2 - alpha)
                     / (alpha ** 2 * (alpha - 2)))
            assert abs(wv.dnq_alpha(k) - alpha) <= 4 * eps * abs(alpha)
            assert abs(wv.dnq_omega_coefficient(k) - kappa) <= 4 * eps * kappa


def test_periodic_r2_frequency_at_half():
    p = wv.solve_periodic_r2(0.5)
    assert abs(p.omega - 0.2642) < 1e-3


def test_periodic_r2_closed_form_matches_scan_oracle():
    for k in np.linspace(0.3, 0.95, 14):
        p = wv.solve_periodic_r2(float(k))
        q = solve_periodic_r2_oracle(float(k))
        assert _rel(p.a, q.a) <= 1e-12, k
        assert _rel(p.c, q.c) <= 1e-12, k


@pytest.mark.parametrize("k", [0.05, 0.08, 0.1, 0.15, 0.2, 0.25])
def test_periodic_r2_small_k_residual_no_worse_than_oracle(k):
    # the scan-plus-Brent amplitude drifts by up to 1e-8 here
    p = wv.solve_periodic_r2(k)
    q = solve_periodic_r2_oracle(k)
    res = wv.ode_residual(wv.sample_profile(p, wv.default_grid(p)))
    res_oracle = wv.ode_residual(wv.sample_profile(q, wv.default_grid(q)))
    assert res <= 1e-13
    assert res <= res_oracle


# ----------------------------------------------------------------------
# profiles and the stationary residual
# ----------------------------------------------------------------------

def test_profile_solitary_origin_values():
    p = wv.solve_solitary(1, 1.0)
    phi, dphi, d2phi = wv.closed_form_evaluators(p)
    assert abs(float(phi(0.0)) - p.a) < 1e-14
    assert abs(float(dphi(0.0))) < 1e-14
    assert abs(float(d2phi(0.0)) + p.a * p.b ** 2) < 1e-14


PROFILE_CASES = [(wv.SOLITARY, 1, 1.0), (wv.SOLITARY, 2, 0.5), (wv.SOLITARY, 3, 0.7),
                 (wv.SOLITARY, 4, 0.3), (wv.PERIODIC_DN, 1, 0.5),
                 (wv.PERIODIC_DN, 1, 0.95), (wv.PERIODIC_DNQ, 2, 0.5),
                 (wv.PERIODIC_DNQ, 2, 0.95)]


@pytest.mark.parametrize("family, r, at", PROFILE_CASES)
def test_profile_values_match_closure_oracle_exactly(family, r, at):
    p = wv.solve_family(family, r, at)
    x = wv.default_grid(p).nodes
    for got, closure in zip(wv.profile_values(p, x), closed_form_evaluators_oracle(p)):
        assert np.array_equal(got, closure(x))
    for got, closure in zip(wv.profile_values(p, 0.7), closed_form_evaluators_oracle(p)):
        assert got == closure(0.7)


def test_sample_profile_one_jacobi_call(monkeypatch):
    waves = [wv.solve_periodic_r1(0.5), wv.solve_periodic_r2(0.5)]
    calls = []
    jacobi = el.jacobi

    def counting(u, k):
        calls.append(k)
        return jacobi(u, k)

    monkeypatch.setattr(el, "jacobi", counting)
    for p in waves:
        calls.clear()
        wv.sample_profile(p, wv.default_grid(p))
        assert len(calls) == 1


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_solitary_samples_have_exact_parity(r):
    # on the antisymmetric line nodes phi and phi'' are bitwise even and
    # phi' bitwise odd, so the operators split exactly into parity blocks
    p = wv.solve_solitary(r, wv.solitary_threshold(r) + 0.3)
    prof = wv.sample_profile(p, wv.default_grid(p, 2048))
    assert np.array_equal(prof.phi[::-1], prof.phi)
    assert np.array_equal(prof.d2phi[::-1], prof.d2phi)
    assert np.array_equal(prof.dphi[::-1], -prof.dphi)


def test_profile_values_unknown_family():
    p = wv.WaveParams("kink", 1, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(UsageError):
        wv.profile_values(p, 0.0)


def test_profile_dn_range(dn_profile):
    p = dn_profile.params
    assert abs(dn_profile.phi[0] - p.a) < 1e-13
    idx = np.argmin(np.abs(dn_profile.grid.nodes - np.pi))
    assert abs(np.min(dn_profile.phi) - p.a * np.sqrt(1 - p.k ** 2)) < 1e-10
    assert idx == np.argmin(dn_profile.phi)


def test_profile_positivity_and_periodicity(dn_profile, dnq_profile):
    for prof in (dn_profile, dnq_profile):
        assert np.all(prof.phi > 0)
        phi_f, dphi_f, _ = wv.closed_form_evaluators(prof.params)
        assert abs(float(phi_f(0.0)) - float(phi_f(2 * np.pi))) < 1e-10
        assert abs(float(dphi_f(0.0)) - float(dphi_f(2 * np.pi))) < 1e-10


def test_profile_tail_rule(solitary_r1_profile):
    prof = solitary_r1_profile
    assert prof.phi[0] < 1e-12 * prof.params.a
    assert prof.phi[-1] < 1e-12 * prof.params.a


@pytest.mark.parametrize("fixture", ["solitary_r1_profile", "solitary_r4_profile",
                                     "dn_profile", "dnq_profile"])
def test_ode_residual_all_families(fixture, request):
    prof = request.getfixturevalue(fixture)
    assert wv.ode_residual(prof) < 1e-7


def test_ode_residual_solitary_fine():
    p = wv.solve_solitary(1, 1.0)
    prof = wv.sample_profile(p, wv.default_grid(p, 1024))
    assert wv.ode_residual(prof) < 1e-8


def test_ode_residual_detects_perturbation(dn_profile):
    g = dn_profile.grid
    bad = wv.Profile(dn_profile.params, g,
                     dn_profile.phi + 0.01 * np.cos(g.nodes),
                     dn_profile.dphi - 0.01 * np.sin(g.nodes),
                     dn_profile.d2phi - 0.01 * np.cos(g.nodes))
    assert wv.ode_residual(bad) >= 1e-3


def test_ode_residual_resolution_convergence():
    # trapezoid error on the line family is visible below n ~ 256; each
    # doubling must gain at least 4x until the roundoff floor (~1e-11).
    # (On the torus the rectangle rule is already at the floor at n=16.)
    p = wv.solve_solitary(1, 1.0)
    L = wv.tail_half_length(p)
    res = [wv.ode_residual(wv.sample_profile(p, line_grid(L, n)))
           for n in (64, 128, 256)]
    for coarse, fine in zip(res, res[1:]):
        assert coarse > 4 * fine or coarse < 1e-11
    assert wv.ode_residual(wv.sample_profile(p, line_grid(L, 1024))) < 1e-11
    assert wv.ode_residual(
        wv.sample_profile(wv.solve_periodic_r1(0.9, validate=False),
                          torus_grid(512))) < 1e-11


def test_kirchhoff_constant_self_consistency():
    # The last case re-integrates the dn-quotient c, whose J comes from the
    # fixed default torus grid, on a 4x finer grid at the sharpest modulus.
    for p, n, tol in [(wv.solve_solitary(2, 0.5), 1024, 1e-8),
                      (wv.solve_periodic_r1(0.3), 512, 1e-8),
                      (wv.solve_periodic_r2(0.7), 512, 1e-8),
                      (wv.solve_periodic_r2(0.95), 2048, 1e-13)]:
        prof = wv.sample_profile(p, wv.default_grid(p, n))
        c_quad = 1 + quadrature(prof.grid, prof.dphi ** 2)
        assert abs(c_quad - p.c) < tol * p.c


def test_periodic_r1_gradient_matches_tau1(dn_profile):
    from skwave.functionals import closed_form_tau
    tau1 = closed_form_tau(0.5)[0]
    grad = quadrature(dn_profile.grid, dn_profile.dphi ** 2)
    assert abs(grad - tau1) < 1e-8 * abs(tau1)


def test_topology_mismatch():
    p = wv.solve_solitary(1, 1.0)
    with pytest.raises(UsageError):
        wv.sample_profile(p, torus_grid(64))
    q = wv.solve_periodic_r1(0.5)
    with pytest.raises(UsageError):
        wv.sample_profile(q, line_grid(10.0, 64))


def test_profile_csv_roundtrip(tmp_path, dn_profile):
    path = tmp_path / "dn.csv"
    wv.write_profile_csv(dn_profile, path)
    header = read_profile_header(path)
    assert header["family"] == "periodic_dn"
    assert header["k"] == 0.5
    data = np.loadtxt(path, delimiter=",", skiprows=2)
    assert data.shape == (dn_profile.grid.n, 4)
    assert np.allclose(data[:, 1], dn_profile.phi)
