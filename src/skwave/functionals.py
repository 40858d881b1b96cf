"""Conserved quantities, closed-form integral identities, quadratic
forms, and the frequency slope of the squared norm.

A raw torus state's int |u_x|^2 is ``kernel.parseval``, Nyquist mode
included, so its energy is the one the time stepper conserves.

The slope d/domega int phi^2 (whose sign, together with the negative
eigenvalue count of the linearization, decides orbital stability) is
computed by central differences of the closed-form squared norm with a
mandatory Richardson step-halving check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import elliptic as el
from . import waves as wv
from .errors import DomainError, UsageError
from .kernel import Grid, parseval, quadrature


@dataclass(frozen=True)
class VkSlopeResult:
    """d/domega of the squared norm along the family.

    ``index_I`` is the quadratic-form value -slope/2; ``flagged`` is set
    when the step-halved slope disagrees by more than 1%.
    """

    slope: float
    index_I: float
    method: str            # "closed_form" | "finite_difference" | "chain_rule_k"
    step: float
    richardson_discrepancy: float
    flagged: bool


# ----------------------------------------------------------------------
# derivatives of sampled states
# ----------------------------------------------------------------------

def state_derivative(grid: Grid, v: np.ndarray) -> np.ndarray:
    """d/dx of a sampled line state: 4th-order centered differences with
    zero extension (a torus state's gradient is ``kernel.parseval``'s)."""
    if grid.topology != "line":
        raise UsageError("the difference stencil is defined on line grids")
    v = np.asarray(v)
    h = grid.spacing
    vp = np.zeros(grid.n + 4, dtype=v.dtype)
    vp[2:-2] = v
    return (vp[:-4] - 8 * vp[1:-3] + 8 * vp[3:-1] - vp[4:]) / (12 * h)


def _gradient_norm_sq(state, grid: Grid) -> float:
    if grid.topology == "torus":
        return parseval(grid, grid.m2, np.fft.fft(state))
    return quadrature(grid, np.abs(state_derivative(grid, state)) ** 2)


# ----------------------------------------------------------------------
# mass and energy
# ----------------------------------------------------------------------

def mass(state, grid: Grid = None) -> float:
    """F = (1/2) int |u|^2."""
    if isinstance(state, wv.Profile):
        state, grid = state.phi, state.grid
    return 0.5 * quadrature(grid, np.abs(np.asarray(state)) ** 2)


def kirchhoff_energy(grad: float, moment: float, r: int) -> float:
    """The Hamiltonian of i u_t + (1 + G) u_xx + |u|^2r u = 0 from
    G = int |u_x|^2 and ``moment`` = int |u|^(2r+2):
    E = G/2 + G^2/4 - moment/(2r+2)."""
    return 0.5 * grad + 0.25 * grad ** 2 - moment / (2 * r + 2)


def energy(state, grid: Grid = None, r: int = None) -> float:
    """E = 1/2 int |u_x|^2 + 1/4 (int |u_x|^2)^2 - 1/(2r+2) int |u|^(2r+2)."""
    if isinstance(state, wv.Profile):
        if r is None:
            r = state.params.r
        grid = state.grid
        grad = quadrature(grid, state.dphi ** 2)
        u = state.phi
    else:
        if r is None:
            raise UsageError("nonlinearity exponent r is required for raw states")
        grad = _gradient_norm_sq(state, grid)
        u = np.asarray(state)
    return kirchhoff_energy(grad, quadrature(grid, np.abs(u) ** (2 * r + 2)), r)


# ----------------------------------------------------------------------
# closed-form integrals
# ----------------------------------------------------------------------

def mass_closed_form(params: wv.WaveParams) -> float:
    """int phi^2 in closed form (note: without the 1/2 of the mass F).

    solitary:  a^2/b * M(r)
    dn:        2*pi*a^2*E(k)/K(k)
    dn/sqrt:   2*pi*a^2*(k^2 K - k^2 Pi(alpha,k) + alpha Pi(alpha,k))/(alpha K)
    """
    a, b = params.a, params.b
    if params.family == wv.SOLITARY:
        _, M = wv.shape_constants(params.r)
        return a * a / b * M
    k = params.k
    K = el.complete_K(k)
    if params.family == wv.PERIODIC_DN:
        return 2 * math.pi * a * a * el.complete_E(k) / K
    alpha = params.alpha
    Pi = el.complete_Pi(alpha, k)
    return (2 * math.pi * a * a
            * (k * k * K - k * k * Pi + alpha * Pi) / (alpha * K))


def closed_form_tau(k: float) -> tuple[float, float, float]:
    """(tau1, tau2, tau) for the dnoidal family.

    tau1 = int phi'^2 and tau2 = int phi^4 over the torus in terms of
    K and E; tau = -2*tau2 + 2*tau1^2 is the quadratic-form value of the
    linearized operator at the wave itself.
    """
    if not 0 < k < 1:
        raise DomainError(f"modulus must lie in (0, 1), got {k}")
    den = wv._dn_denominator(k)
    if den <= 0:
        raise DomainError(
            f"modulus {k} beyond the dnoidal limit k* ~ {wv.dn_modulus_limit():.6f}")
    K, E = el.complete_K(k), el.complete_E(k)
    tau1 = (-8 * (1 - k * k) * K ** 4 + 4 * (2 - k * k) * E * K ** 3) / den
    tau2 = (24 * math.pi ** 3 * K ** 3
            * (2 * (2 - k * k) * E - (1 - k * k) * K)) / den ** 2
    tau = -2 * tau2 + 2 * tau1 * tau1
    return tau1, tau2, tau


# ----------------------------------------------------------------------
# quadratic forms of the linearization
# ----------------------------------------------------------------------

def lre_phi_identity(p: wv.Profile) -> float:
    """(L_Re phi, phi) via the stationary equation:
    -2r * int phi^(2r+2) + 2 (int phi'^2)^2.

    For r = 1 this is the tau(k) combination, for r = 2 the gamma(k)
    curve; both are negative on the whole family range.
    """
    r = p.params.r
    moment = quadrature(p.grid, p.phi ** (2 * r + 2))
    grad = quadrature(p.grid, p.dphi ** 2)
    return -2 * r * moment + 2 * grad * grad


# ----------------------------------------------------------------------
# Vakhitov-Kolokolov slope
# ----------------------------------------------------------------------

def _family_solver(family: str, r: int):
    if family not in wv.FAMILIES:
        raise UsageError(f"unknown family {family!r}")
    return lambda x: wv.solve_family(family, r, x, validate=False)


def vk_slope(family: str, r: int, at: float, step: float = None) -> VkSlopeResult:
    """Sign-reliable d/domega int phi^2 at a family point.

    Solitary waves: central differences of the closed-form squared norm
    in omega (fresh parameter solves at omega +- h).  Periodic waves:
    chain rule (d/dk int phi^2)/(domega/dk), both by central differences
    in the modulus.  The result is Richardson-extrapolated from steps h
    and h/2 and flagged when the two disagree by more than 1%.
    """
    solver = _family_solver(family, r)
    if step is None:
        step = 1e-4 * abs(at)
    if step <= 0:
        raise DomainError("step must be positive")

    if family == wv.SOLITARY:
        thr = wv.solitary_threshold(r)
        if at - step <= thr:
            raise DomainError(
                f"step {step} straddles the existence threshold {thr:.6f}")

        def slope_of(h: float) -> float:
            mp = mass_closed_form(solver(at + h))
            mm = mass_closed_form(solver(at - h))
            return (mp - mm) / (2 * h)

        method = "finite_difference"
    else:
        hi_lim = wv.dn_modulus_limit() if family == wv.PERIODIC_DN else 1.0
        if not (step < at and at + step < hi_lim):
            raise DomainError(
                f"step {step} leaves the modulus range (0, {hi_lim:.6f})")

        def slope_of(h: float) -> float:
            pp, pm = solver(at + h), solver(at - h)
            if pp.omega == pm.omega:
                raise DomainError(f"omega does not move over the step {h:g} "
                                  f"at k = {at:g}: the slope is undefined")
            dm_dk = (mass_closed_form(pp) - mass_closed_form(pm)) / (2 * h)
            dw_dk = (pp.omega - pm.omega) / (2 * h)
            return dm_dk / dw_dk

        method = "chain_rule_k"

    s1 = slope_of(step)
    s2 = slope_of(step / 2)
    disc = abs(s1 - s2)
    flagged = disc > 0.01 * abs(s2) if s2 != 0.0 else True
    slope = (4 * s2 - s1) / 3
    return VkSlopeResult(slope, -slope / 2, method, step, disc, flagged)

