"""The Kirchhoff energy, closed-form integral identities, quadratic
forms, and the frequency slope of the squared norm.

``kirchhoff_energy`` takes the sums: the evolution monitors give it a
raw torus state's int |u_x|^2 as ``kernel.parseval``, Nyquist mode
included, so the energy they record is the one the time stepper conserves.

The slope d/domega int phi^2, whose sign decides orbital stability with
the linearization's counts, is the derivative of the family's closed forms
(on the dn quotient, of integrals from its one quadrature ``waves._dnq_rule``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from . import elliptic as el
from . import waves as wv
from .errors import DomainError
from .kernel import quadrature


@dataclass(frozen=True)
class VkSlopeResult:
    """d/domega of the squared norm along the family.

    ``index_I`` is the quadratic-form value -slope/2; ``flagged`` is set
    where the stated bound ``richardson_discrepancy`` exceeds 1% of |slope|.
    """

    slope: float
    index_I: float
    method: str            # "closed_form"
    richardson_discrepancy: float
    flagged: bool


_SLOPE_EPS = 64 * sys.float_info.epsilon     # c eps of the slope's bound


# ----------------------------------------------------------------------
# energy
# ----------------------------------------------------------------------

def kirchhoff_energy(grad: float, moment: float, r: int) -> float:
    """The Hamiltonian of i u_t + (1 + G) u_xx + |u|^2r u = 0 from
    G = int |u_x|^2 and ``moment`` = int |u|^(2r+2):
    E = G/2 + G^2/4 - moment/(2r+2)."""
    return 0.5 * grad + 0.25 * grad ** 2 - moment / (2 * r + 2)


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
    wv.solve_periodic_r1(k, validate=False)     # raises where no dn wave exists
    den = wv._dn_denominator(k)
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

def vk_slope(family: str, r: int, at: float) -> VkSlopeResult:
    """d/domega int phi^2 from the family's closed forms, with its stated
    bound as ``richardson_discrepancy``; ``flagged`` where that exceeds
    1% of |slope|.

    Solitary: the width cubic p b^3 + b^2 = omega r^2, p' = p/(r omega),
    gives b' = (r^2 - p' b^3)/(3 p b^2 + 2 b), and d/domega (a^2 M / b) =
    a^2 M / b (1/(r omega) - b'/b); the bound is 64 eps times the terms.

    Periodic: (int phi^2 / omega) (log int phi^2)' / (log omega)' in k.
    Each log-derivative is k times O(1) terms that cancel to O(k^2)
    (omega' ~ k^3), so the bound is 64 eps (1 + k^-2) |slope|.  K' =
    k (K - D)/k'^2 and E' = -k D, with D = (K - E)/k^2 = K (1 + t)/2 from
    the AGM chain.  dn: omega = 3 pi (2 - k^2) K^2 / den and int phi^2 =
    12 pi^2 K E / den, den = 3 pi^3 / c.  dn quotient: omega = kappa A^2
    and int phi^2 = A I / b, with A the root of mu A^2 - b^3 J A - b^2,
    and I, J and their k-derivatives from ``waves._dnq_rule``.  Raises
    DomainError where a derivative evaluates to 0 (k^2 < eps).
    """
    params = wv.solve_family(family, r, at, validate=False)
    if family == wv.SOLITARY:
        A, M = wv.shape_constants(r)
        w, a2, b = params.omega, params.a ** 2, params.b
        p = A * a2 / (r * r)
        db = (r * r - p * b ** 3 / (r * w)) / (3 * p * b * b + 2 * b)
        terms = (a2 * M / (b * r * w), a2 * M * db / (b * b))
        slope, bound = terms[0] - terms[1], _SLOPE_EPS * sum(terms)
    else:
        k, k2, kp2 = at, at * at, (1 - at) * (1 + at)
        K, t = el._K_and_t(k)
        d = (1 + t) / 2                          # D / K
        g_k = (1 - d) / kp2                      # K' / (k K)
        if family == wv.PERIODIC_DN:
            e = 1 - k2 * d                       # E / K
            g_den = (K ** 4 * params.c / (3 * math.pi ** 3)
                     * (8 * e - 16 + 32 * (1 - d)
                        - 4 * (2 - k2) * (3 * e * (1 - d) / kp2 - d)))   # den'/(k den)
            weight, dm = 4 * math.pi * e / (2 - k2), g_k - d / e - g_den
            dw = 2 * g_k - 2 / (2 - k2) - g_den
        else:
            b = params.b
            ds = (2 * k2 - 1) / math.sqrt(k2 * k2 - k2 + 1)              # s'/k
            I, J, dI, dJ = wv._dnq_rule(k, params.alpha, b)
            mu, b3J, A = wv._dnq_amplitude(k, b, J)
            dA = (((3 * g_k * b3J + b ** 3 * dJ) * A + 2 * b * b * g_k   # A'/k
                   - (2 * ds - 4) / 3 * A * A) / (2 * mu * A - b3J))
            weight, dm = A * I / (b * params.omega), dA / A + dI / I - g_k
            dw = wv._dnq_kappa_log_derivative(k) / k + 2 * dA / A
        if dw == 0 or dm == 0:
            raise DomainError(f"d/dk of omega or int phi^2 evaluates to 0 at k = {k:g}")
        slope = float(weight * dm / dw)
        bound = _SLOPE_EPS * (1 + k ** -2) * abs(slope)
    return VkSlopeResult(slope, -slope / 2, "closed_form", bound,
                         bound > 0.01 * abs(slope))
