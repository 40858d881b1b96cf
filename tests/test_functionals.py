import tracemalloc

import numpy as np
import pytest

from skwave import elliptic as el
from skwave import functionals as fn
from skwave import waves as wv
from skwave.errors import DomainError, ExistenceError
from skwave.kernel import quadrature, torus_grid

from oracles import (energy, mass, quadratic_form_LRe, state_derivative,
                     vk_slope_finite_difference, vk_slope_mp)


# ----------------------------------------------------------------------
# mass and energy
# ----------------------------------------------------------------------

def test_zero_state():
    g = torus_grid(64)
    z = np.zeros(64, dtype=complex)
    assert mass(z, g) == 0.0
    assert energy(z, g, 1) == 0.0


def test_plane_wave_moments():
    g = torus_grid(128)
    u = np.exp(2j * g.nodes)
    assert abs(mass(u, g) - np.pi) < 1e-12
    du = state_derivative(g, u)
    assert abs(quadrature(g, np.abs(du) ** 2) - 8 * np.pi) < 1e-10


def test_dn_profile_mass_closed_form(dn_profile):
    p = dn_profile.params
    closed = np.pi * p.a ** 2 * el.complete_E(p.k) / el.complete_K(p.k)
    assert abs(mass(dn_profile) - closed) < 1e-8


def test_energy_two_routes(dn_profile, solitary_r1_profile):
    # spectral differentiation on the torus agrees with the stored
    # derivative at machine level; the 4th-order differences on the line
    # are limited by their h^4 truncation (~4e-6 at n = 1024)
    via_profile = energy(dn_profile)
    via_grid = energy(dn_profile.phi.astype(complex), dn_profile.grid, 1)
    assert abs(via_profile - via_grid) < 1e-9 * max(1, abs(via_profile))
    via_profile = energy(solitary_r1_profile)
    via_grid = energy(solitary_r1_profile.phi.astype(complex),
                      solitary_r1_profile.grid, 1)
    assert abs(via_profile - via_grid) < 1e-5 * max(1, abs(via_profile))


# ----------------------------------------------------------------------
# closed-form integrals vs quadrature
# ----------------------------------------------------------------------

def test_mass_closed_form_solitary_r1():
    p = wv.solve_solitary(1, 1.0)
    prof = wv.sample_profile(p, wv.default_grid(p))
    alt = 4 * p.omega / p.b  # a^2 = 2w, M(1) = 2
    assert abs(fn.mass_closed_form(p) - alt) < 1e-10
    assert abs(fn.mass_closed_form(p)
               - quadrature(prof.grid, prof.phi ** 2)) < 1e-8


@pytest.mark.parametrize("family,r,vals", [
    ("solitary", 1, [0.5, 1.0, 2.0]),
    ("solitary", 2, [0.3, 0.6, 1.2]),
    ("solitary", 4, [0.25, 0.5, 1.0]),
    ("periodic_dn", 1, [0.2, 0.5, 0.8]),
    ("periodic_dn_quotient", 2, [0.2, 0.5, 0.8]),
])
def test_mass_closed_form_vs_quadrature(family, r, vals):
    for x in vals:
        p = wv.solve_family(family, r, x, validate=False)
        prof = wv.sample_profile(p, wv.default_grid(p))
        quad_val = quadrature(prof.grid, prof.phi ** 2)
        assert abs(fn.mass_closed_form(p) - quad_val) < 1e-7 * quad_val


def test_tau_vs_quadrature(dn_profile):
    tau1, tau2, tau = fn.closed_form_tau(0.5)
    g = dn_profile.grid
    assert abs(tau1 - quadrature(g, dn_profile.dphi ** 2)) < 1e-8 * abs(tau1)
    assert abs(tau2 - quadrature(g, dn_profile.phi ** 4)) < 1e-8 * abs(tau2)
    assert abs(tau - (-2 * tau2 + 2 * tau1 ** 2)) < 1e-14


def test_tau_negative_on_grid():
    for k in np.linspace(0.02, 0.97, 40):
        assert fn.closed_form_tau(float(k))[2] < 0


def test_tau_domain_error():
    with pytest.raises(DomainError):
        fn.closed_form_tau(0.999)


# ----------------------------------------------------------------------
# quadratic form
# ----------------------------------------------------------------------

def test_quadratic_form_at_phi_matches_tau(dn_profile):
    val = quadratic_form_LRe(dn_profile, dn_profile.phi)
    tau = fn.closed_form_tau(0.5)[2]
    assert abs(val - tau) < 1e-8 * abs(tau)
    assert val < 0
    assert abs(fn.lre_phi_identity(dn_profile) - tau) < 1e-8 * abs(tau)


def test_quadratic_form_kernel_direction(dn_profile):
    val = quadratic_form_LRe(dn_profile, dn_profile.dphi)
    scale = quadrature(dn_profile.grid, dn_profile.dphi ** 2)
    assert abs(val) < 1e-7 * scale


def test_quadratic_form_gamma_negative(dnq_profile):
    assert quadratic_form_LRe(dnq_profile, dnq_profile.phi) < 0
    assert fn.lre_phi_identity(dnq_profile) < 0


def test_parts_identity_torus(dn_profile, rng):
    g = dn_profile.grid
    modes = rng.standard_normal(5)
    P = sum(m * np.cos((i + 1) * g.nodes) for i, m in enumerate(modes))
    dP = state_derivative(g, P)
    lhs = quadrature(g, dn_profile.dphi * dP)
    rhs = -quadrature(g, dn_profile.d2phi * P)
    assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), 1e-3)


def test_parts_identity_line(solitary_r1_profile):
    g = solitary_r1_profile.grid
    x = g.nodes
    P = np.exp(-x ** 2 / 8) * (1 + 0.3 * x)
    dP = np.exp(-x ** 2 / 8) * (0.3 - x / 4 * (1 + 0.3 * x))
    lhs = quadrature(g, solitary_r1_profile.dphi * dP)
    rhs = -quadrature(g, solitary_r1_profile.d2phi * P)
    assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), 1e-3)


# ----------------------------------------------------------------------
# the frequency slope
# ----------------------------------------------------------------------

def test_vk_slope_signs():
    assert fn.vk_slope("solitary", 1, 1.0).slope > 0
    assert fn.vk_slope("solitary", 2, 0.5).slope > 0
    assert fn.vk_slope("solitary", 4, 0.3).slope < 0
    assert fn.vk_slope("periodic_dn", 1, 0.5).slope > 0
    assert fn.vk_slope("periodic_dn_quotient", 2, 0.5).slope > 0


@pytest.mark.parametrize("k", [0.01, 0.02, 0.05, 0.08, 0.1])
def test_vk_slope_dnq_small_k(k):
    # domega/dk vanishes like k^3, so 1e-11 relative noise in alpha(k),
    # kappa(k) or the amplitude is enough to flag the slope or flip its sign
    from skwave.report import SLOPE_PLUS, slope_sign_of

    res = fn.vk_slope(wv.PERIODIC_DNQ, 2, k)
    ref = fn.vk_slope(wv.PERIODIC_DNQ, 2, 0.15).slope
    assert not res.flagged
    assert slope_sign_of(res) == SLOPE_PLUS
    # the slope is nearly flat in k
    assert abs(res.slope - ref) <= 1e-3 * abs(ref)


@pytest.mark.parametrize("family, r, at", [
    *((wv.SOLITARY, r, w) for r, w in ((1, 1.0), (2, 0.5), (3, 0.4), (4, 0.3))),
    *((wv.PERIODIC_DN, 1, k) for k in (1e-3, 3e-3, 0.01, 0.1, 0.5, 0.97)),
    *((wv.PERIODIC_DNQ, 2, k)
      for k in (1e-3, 3e-3, 0.01, 0.1, 0.5, 0.97, 0.999, 1 - 1e-8, 1 - 1e-9)),
])
def test_vk_slope_matches_mpmath(family, r, at):
    # the closed form is within its stated bound of 50 digits, down to
    # k = 1e-3 where omega'(k) ~ k^3 has lost six digits to cancellation,
    # and up to k = 1 - 1e-9 where the dn quotient's period 2K is ~ 11
    res = fn.vk_slope(family, r, at)
    assert res.method == "closed_form" and not res.flagged
    assert abs(res.slope - vk_slope_mp(family, r, at)) <= res.richardson_discrepancy


def test_vk_slope_dnq_memory_near_k_one():
    # the dn quotient's integrals are one fixed-size rule in u at every k;
    # a rule in the Jacobi amplitude would need ~1/k' nodes here
    tracemalloc.start()
    try:
        fn.vk_slope(wv.PERIODIC_DNQ, 2, 1 - 1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("k", [1e-3, 0.1, 0.5, 0.97, 1 - 1e-8])
def test_dnq_rule_matches_closed_forms(k):
    # int phi^2 = A I / b against the Pi closed form, and the solve's
    # Kirchhoff constant c = 1 + A b J
    p = wv.solve_periodic_r2(k, validate=False)
    I, J, _, _ = wv._dnq_rule(k, p.alpha, p.b)
    A = p.a ** 2
    mass = fn.mass_closed_form(p)
    assert abs(A * I / p.b - mass) <= 1e-14 * mass
    assert abs(1 + A * p.b * J - p.c) <= 1e-14 * p.c


@pytest.mark.parametrize("family, r, at", [
    *((wv.SOLITARY, r, w) for r, w in ((1, 1.0), (2, 0.5), (4, 0.3))),
    *((family, r, k) for family, r in ((wv.PERIODIC_DN, 1), (wv.PERIODIC_DNQ, 2))
      for k in (0.05, 0.2, 0.5, 0.8, 0.95)),
])
def test_vk_slope_matches_finite_difference_oracle(family, r, at):
    # the oracle's error is its truncation, which the Richardson
    # discrepancy bounds, plus the roundoff of its differences
    slope, discrepancy, roundoff = vk_slope_finite_difference(family, r, at)
    assert abs(fn.vk_slope(family, r, at).slope - slope) <= discrepancy + roundoff


def test_vk_slope_r1_implicit_differentiation_oracle():
    # m(w) = 4w/b(w); differentiate the width cubic implicitly:
    # b' = (1 - (4/3) b^3) / (4 w b^2 + 2 b)
    w = 1.0
    p = wv.solve_solitary(1, w)
    bp = (1 - (4 / 3) * p.b ** 3) / (4 * w * p.b ** 2 + 2 * p.b)
    exact = 4 / p.b - 4 * w * bp / p.b ** 2
    res = fn.vk_slope("solitary", 1, w)
    assert abs(res.slope - exact) < 1e-6 * abs(exact)
    assert not res.flagged


def test_vk_slope_periodic_chain_rule_parts():
    h = 1e-5
    pp = wv.solve_periodic_r1(0.5 + h, validate=False)
    pm = wv.solve_periodic_r1(0.5 - h, validate=False)
    assert (pp.omega - pm.omega) > 0  # domega/dk > 0
    res = fn.vk_slope("periodic_dn", 1, 0.5)
    assert res.slope > 0
    assert res.method == "closed_form"


def test_vk_slope_result_invariants():
    res = fn.vk_slope("solitary", 2, 0.5)
    assert res.index_I == -res.slope / 2
    assert res.richardson_discrepancy < 0.01 * abs(res.slope)


def test_vk_slope_threshold_guard():
    # no step straddles the threshold: just above it the slope is exact,
    # and below it the family does not exist
    thr = wv.solitary_threshold(1)
    res = fn.vk_slope("solitary", 1, thr + 1e-9)
    assert res.slope > 0 and not res.flagged
    with pytest.raises(ExistenceError):
        fn.vk_slope("solitary", 1, thr - 1e-9)

