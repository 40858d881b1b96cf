"""Standing-wave families and their closed-form profiles.

Every family solves the stationary equation

    -(1 + int phi'^2) phi'' + omega*phi - phi^(2r+1) = 0

with a positive profile:

* ``solitary``              phi = a sech^(1/r)(b x)              on the line
* ``periodic_dn``           phi = a dn(b x, k)                   on the 2*pi torus, r = 1
* ``periodic_dn_quotient``  phi = a dn / sqrt(1 - alpha sn^2)    on the 2*pi torus, r = 2

Every family's parameters are closed forms; nothing is scanned or
root-solved.  Substituting the solitary ansatz gives a^(2r) = (r+1)*omega
together with a cubic for the inverse width,

    A(r)*a^2/r^2 * b^3 + b^2 - omega*r^2 = 0,

whose unique positive root exists for every omega > 0; the family is
nevertheless restricted to the regime where the cubic's discriminant is
negative (a single real root), which is exactly where Cardano's formula
gives b with real radicals.  That regime boundary is

    omega_thr(r) = [4 r^2 / (27 A(r)^2 (r+1)^(2/r))]^(r/(r+2)).

The dnoidal parameters are closed forms in K(k) and E(k).  The dn quotient
has b = K(k)/pi and alpha, kappa from k; its squared amplitude is the
positive root of a quadratic in int psi_u^2 over the period, which
``_dnq_rule``, the family's one quadrature, gives with the slope's integrals.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from . import elliptic as el
from .errors import DomainError, ExistenceError, UsageError
from .kernel import Grid, line_grid, parseval, quadrature, torus_grid

SOLITARY = "solitary"
PERIODIC_DN = "periodic_dn"
PERIODIC_DNQ = "periodic_dn_quotient"

FAMILIES = (SOLITARY, PERIODIC_DN, PERIODIC_DNQ)

DEFAULT_N_LINE = 1024
DEFAULT_N_TORUS = 512

# a validated solve's wave must reproduce its Kirchhoff constant to this
# relative level by quadrature, and the stationary equation to this residual
_VALIDATE_REL_C = 1e-8
_VALIDATE_RESIDUAL = 1e-7


@dataclass(frozen=True)
class WaveParams:
    """One member of a standing-wave family.

    ``c`` is the Kirchhoff constant 1 + int phi'^2 of the wave itself.
    ``k``/``alpha`` are populated for the periodic families only.
    """

    family: str
    r: int
    omega: float
    a: float
    b: float
    c: float
    k: Optional[float] = None
    alpha: Optional[float] = None


@dataclass(frozen=True, eq=False)
class Profile:
    """Closed-form wave sampled on a grid, with analytic derivatives.
    The samples are fixed once built; ``h1_dual`` is derived from phi on
    first read and kept."""

    params: WaveParams
    grid: Grid
    phi: np.ndarray
    dphi: np.ndarray
    d2phi: np.ndarray

    @cached_property
    def h1_dual(self) -> tuple[np.ndarray, float]:
        """((1 + m^2) conj(phi_hat), ||phi||_H1^2) on a torus grid: the
        wave's half of every H^1 inner product with it, read-only."""
        grid = self.grid
        ph = np.fft.fft(self.phi)
        dual = (1.0 + grid.m2) * np.conj(ph)
        dual.flags.writeable = False
        return dual, parseval(grid, 1.0 + grid.m2, ph)


# ----------------------------------------------------------------------
# shape constants of the sech^(1/r) ansatz
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def shape_constants(r: int) -> tuple[float, float]:
    """(A, M) with A = int sech^p tanh^2 dx and M = int sech^p dx, p = 2/r.

    M is the Beta integral B(p/2, 1/2) = sqrt(pi) Gamma(p/2) / Gamma((p+1)/2),
    and A = M - int sech^(p+2) = M / (p+1) by the reduction formula.
    """
    if r < 1:
        raise DomainError("nonlinearity exponent r must be >= 1")
    p = 2.0 / r
    M = math.sqrt(math.pi) * math.gamma(p / 2) / math.gamma((p + 1) / 2)
    return M / (p + 1), M


@lru_cache(maxsize=None)
def solitary_threshold(r: int) -> float:
    """Lower frequency bound of the solitary family (see module docstring)."""
    A, _ = shape_constants(r)
    return (4 * r * r / (27 * A * A * (r + 1) ** (2.0 / r))) ** (r / (r + 2.0))


# ----------------------------------------------------------------------
# solitary waves
# ----------------------------------------------------------------------

def solve_solitary(r: int, omega: float, validate: bool = True) -> WaveParams:
    """Solitary-wave parameters at frequency omega, in closed form.

    a = ((r+1) omega)^(1/2r), and b is the real root of the width cubic
    p b^3 + b^2 - q = 0 (p = A(r) a^2 / r^2, q = omega r^2) by Cardano:

        Q = 2/(27 p^3) - q/p,
        u = cbrt(-Q/2 + sqrt(max(Q^2/4 - 1/(729 p^6), 0))),
        b = u + 1/(9 p^2 u) - 1/(3 p),

    and c = omega r^2 / b^2.  The discriminant under the square root
    changes sign at the family threshold; the clamp only absorbs roundoff
    just above it.  Raises DomainError for a non-finite omega and
    ExistenceError at or below the threshold.  The
    returned parameters are cross-validated against the stationary
    equation on a default grid unless ``validate`` is disabled.
    """
    if r < 1:
        raise DomainError("nonlinearity exponent r must be >= 1")
    if not math.isfinite(omega):
        raise DomainError(f"frequency omega must be finite, got {omega}")
    thr = solitary_threshold(r)
    if omega <= thr:
        raise ExistenceError(
            f"solitary family with r={r} requires omega > {thr:.6f}, got {omega}")
    A, _ = shape_constants(r)
    a = ((r + 1) * omega) ** (1.0 / (2 * r))
    p = A * a * a / (r * r)
    q = omega * r * r
    Q = 2 / (27 * p ** 3) - q / p
    u = (-Q / 2 + math.sqrt(max(Q * Q / 4 - 1 / (729 * p ** 6), 0.0))) ** (1.0 / 3)
    b = u + 1 / (9 * p * p * u) - 1 / (3 * p)
    c = omega * r * r / (b * b)
    params = WaveParams(SOLITARY, r, omega, a, b, c)
    if validate:
        _validate_profile(sample_profile(params, default_grid(params)))
    return params


# ----------------------------------------------------------------------
# periodic waves, r = 1 (dnoidal)
# ----------------------------------------------------------------------

def _dn_denominator(k: float) -> float:
    K, E = el.complete_K(k), el.complete_E(k)
    return (8 * (1 - k * k) * K ** 4 - 4 * (2 - k * k) * E * K ** 3
            + 3 * math.pi ** 3)


@lru_cache(maxsize=1)
def dn_modulus_limit() -> float:
    """Largest admissible modulus k* of the dnoidal family (~0.979653),
    the midpoint of a 1e-12 bracket bisected on the denominator's sign."""
    lo, hi = 0.9, 0.9999
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _dn_denominator(mid) > 0 else (lo, mid)
    return 0.5 * (lo + hi)


def solve_periodic_r1(k: float, validate: bool = True) -> WaveParams:
    """Dnoidal parameters a(k), b(k), omega(k) on the 2*pi torus."""
    if not 0 < k < 1:
        raise DomainError(f"modulus must lie in (0, 1), got {k}")
    den = _dn_denominator(k)
    if den <= 0:
        raise DomainError(
            f"modulus {k} beyond the dnoidal limit k* ~ {dn_modulus_limit():.6f}")
    K = el.complete_K(k)
    a = math.sqrt(6 * math.pi) * K / math.sqrt(den)
    b = K / math.pi
    omega = 3 * (2 - k * k) * math.pi * K * K / den
    c = 3 * math.pi ** 3 / den
    params = WaveParams(PERIODIC_DN, 1, omega, a, b, c, k=k)
    if validate:
        _validate_profile(sample_profile(params, default_grid(params)))
    return params


# ----------------------------------------------------------------------
# periodic waves, r = 2 (dn quotient)
# ----------------------------------------------------------------------

def dnq_alpha(k: float) -> float:
    """Characteristic alpha(k) < 0 of the quotient ansatz,
    1 - k^2 - s with s = sqrt(k^4 - k^2 + 1), written as
    -k^2 / (1 - k^2 + s) so that nothing cancels at small k."""
    s = math.sqrt(k ** 4 - k * k + 1)
    return -k * k / (1 - k * k + s)


def dnq_omega_coefficient(k: float) -> float:
    """kappa(k) with omega = kappa * a^4 on the quotient branch:
    k^2 (alpha k^2 - k^2 - alpha) / (alpha^2 (alpha - 2)), reduced to
    s d / (2 - alpha) = s d^2 / (2 d + k^2) with d = 1 - k^2 + s, so
    that nothing cancels."""
    s = math.sqrt(k ** 4 - k * k + 1)
    d = 1 - k * k + s
    return s * d * d / (2 * d + k * k)


def _dnq_kappa_log_derivative(k: float) -> float:
    """kappa'/kappa of ``dnq_omega_coefficient``."""
    k2 = k ** 2
    s = math.sqrt(k2 * k2 - k2 + 1)
    d, ds = 1 - k2 + s, k * (2 * k2 - 1) / s
    dd = ds - 2 * k
    return ds / s + 2 * dd / d - 2 * (dd + k) / (2 * d + k2)


def _dnq_rule(k: float, alpha: float, b: float) -> tuple:
    """(I, J, I'/k, J'/k): I = int psi^2 du and J = int psi_u^2 du of the
    quotient shape psi = dn/sqrt(g), g = 1 - alpha sn^2, over u in [0, 2K],
    and their k-derivatives at fixed amplitude phi = am u (sn = sin phi,
    du = dphi/dn), written back in u.  Periodic trapezoidal rules on analytic
    integrands, at roundoff from one ``jacobi`` sample at u_j = 2K j/512."""
    h, k2 = 2 * math.pi * b / DEFAULT_N_TORUS, k * k
    dal = -2 - (2 * k2 - 1) / math.sqrt(k2 * k2 - k2 + 1)     # alpha'/k
    sn, cn, dn = el.jacobi(h * np.arange(DEFAULT_N_TORUS), k)
    S, dn2, am = sn * sn, dn * dn, alpha - k2
    ig = 1 / (1 - alpha * S)
    q = S * cn * cn * ig ** 3
    return (h * np.dot(dn2, ig), h * am * am * q.sum(),
            h * np.dot(S * ig, dal * dn2 * ig - 1),
            h * am * np.dot(q, 2 * dal - 4 + am * S * (3 * dal * ig + 1 / dn2)))


def _dnq_amplitude(k: float, b: float, J: float) -> tuple[float, float, float]:
    """(mu, b^3 J, A), A = a^2 the positive root of mu A^2 - b^3 J A - b^2."""
    mu = (1 - 2 * k * k + 2 * math.sqrt(k ** 4 - k * k + 1)) / 3
    b3J = b ** 3 * J
    return mu, b3J, (b3J + math.sqrt(b3J * b3J + 4 * mu * b * b)) / (2 * mu)


def solve_periodic_r2(k: float, validate: bool = True) -> WaveParams:
    """Quotient-family parameters at modulus k, in closed form.

    b = K(k)/pi, alpha and omega = kappa a^4 are closed forms.  With
    phi = a psi(b x) the stationary equation needs c b^2 = mu a^4, and the
    Kirchhoff constant is c = 1 + a^2 b J with J = int_0^2K psi_u^2 du
    from ``_dnq_rule``, so A = a^2 is the positive root of

        mu A^2 - b^3 J A - b^2 = 0,

    where -mu psi'' + kappa psi - psi^5 = 0 for the quotient shape
    psi = dn / sqrt(1 - alpha sn^2), with mu = (1 - 2k^2 +
    2 sqrt(k^4 - k^2 + 1))/3: that is (kappa - 1)/(alpha - k^2) without
    its cancellation at small k.
    """
    if not 0 < k < 1:
        raise DomainError(f"modulus must lie in (0, 1), got {k}")
    alpha, b = dnq_alpha(k), el.complete_K(k) / math.pi
    J = _dnq_rule(k, alpha, b)[1]
    A = _dnq_amplitude(k, b, J)[2]
    params = WaveParams(PERIODIC_DNQ, 2, dnq_omega_coefficient(k) * A * A,
                        math.sqrt(A), b, 1 + A * b * J, k=k, alpha=alpha)
    if validate:
        _validate_profile(sample_profile(params, default_grid(params)))
    return params


def solve_family(family: str, r: int, at: float, validate: bool = True) -> WaveParams:
    """Family dispatch with the family/exponent pairing enforced."""
    if family == SOLITARY:
        return solve_solitary(r, at, validate)
    if family == PERIODIC_DN:
        if r != 1:
            raise UsageError("the dnoidal family has r = 1")
        return solve_periodic_r1(at, validate)
    if family == PERIODIC_DNQ:
        if r != 2:
            raise UsageError("the dn-quotient family has r = 2")
        return solve_periodic_r2(at, validate)
    raise UsageError(f"unknown family {family!r}")


# ----------------------------------------------------------------------
# profiles
# ----------------------------------------------------------------------

def profile_values(params: WaveParams, x):
    """(phi, phi', phi'') of the closed form at x, a scalar or an array.

    The periodic families make one ``jacobi`` call for all three.
    """
    a, b, r = params.a, params.b, params.r
    y = b * np.asarray(x)
    if params.family == SOLITARY:
        inv_r = 1.0 / r
        ch = np.cosh(y)
        ch_pow = ch ** -inv_r
        s = 1.0 / ch
        t = np.tanh(y)
        return (a * ch_pow,
                -(a * b / r) * ch_pow * t,
                (a * b * b / r) * s ** inv_r * (t * t / r - s * s))
    if params.family == PERIODIC_DN:
        k = params.k
        sn, cn, dn = el.jacobi(y, k)
        return (a * dn,
                -a * b * k * k * sn * cn,
                a * b * b * ((2 - k * k) * dn - 2 * dn ** 3))
    if params.family == PERIODIC_DNQ:
        k, alpha = params.k, params.alpha
        sn, cn, dn = el.jacobi(y, k)
        g = 1 - alpha * sn ** 2
        return (a * dn / np.sqrt(g),
                a * b * (alpha - k * k) * sn * cn * g ** -1.5,
                a * b * b * (alpha - k * k) * dn * g ** -2.5
                * ((cn ** 2 - sn ** 2) * g + 3 * alpha * sn ** 2 * cn ** 2))
    raise UsageError(f"unknown family {params.family!r}")


def closed_form_evaluators(params: WaveParams):
    """(phi, dphi, d2phi) callables: views of ``profile_values``."""
    return (lambda x: profile_values(params, x)[0],
            lambda x: profile_values(params, x)[1],
            lambda x: profile_values(params, x)[2])


def tail_half_length(params: WaveParams) -> float:
    """Truncation L with phi(L)/phi(0) < 1e-12 for the solitary tail."""
    if params.family != SOLITARY:
        raise UsageError("tail rule applies to the solitary family")
    return params.r * math.log(2 * params.a * 1e12) / params.b


def default_grid(params: WaveParams, n: Optional[int] = None) -> Grid:
    if params.family == SOLITARY:
        return line_grid(tail_half_length(params), DEFAULT_N_LINE if n is None else n)
    return torus_grid(DEFAULT_N_TORUS if n is None else n)


def sample_profile(params: WaveParams, grid: Grid) -> Profile:
    """Sample the closed form and its analytic derivatives on a grid."""
    expected = "line" if params.family == SOLITARY else "torus"
    if grid.topology != expected:
        raise UsageError(
            f"{params.family} profiles live on a {expected} grid, got {grid.topology}")
    return Profile(params, grid, *profile_values(params, grid.nodes))


def ode_residual(p: Profile) -> float:
    """Sup-norm of the stationary equation on the profile's grid.

    The Kirchhoff constant is recomputed by quadrature from the sampled
    derivative, so this detects inconsistent (a, b, omega, c) sets as
    well as wrong profiles.
    """
    c = 1 + quadrature(p.grid, p.dphi ** 2)
    r = p.params.r
    resid = -c * p.d2phi + p.params.omega * p.phi - p.phi ** (2 * r + 1)
    return float(np.max(np.abs(resid)))


def _validate_profile(profile: Profile) -> None:
    """A validated solve's checks, on its wave sampled on the default grid:
    c by quadrature and the stationary residual, or DomainError.  Each
    check passes only where its bound holds, so a nan fails it."""
    params = profile.params
    c_quad = 1 + quadrature(profile.grid, profile.dphi ** 2)
    if not abs(c_quad - params.c) <= _VALIDATE_REL_C * params.c:
        raise DomainError(
            f"Kirchhoff constant mismatch: stored {params.c!r}, "
            f"from profile {c_quad!r}")
    resid = ode_residual(profile)
    if not resid <= _VALIDATE_RESIDUAL:
        raise DomainError(
            f"stationary-equation residual {resid:.3e} exceeds {_VALIDATE_RESIDUAL}")


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------

def write_profile_csv(p: Profile, path) -> None:
    """CSV with columns x, phi, dphi, d2phi under a JSON header line."""
    header = {
        "family": p.params.family, "r": p.params.r, "omega": p.params.omega,
        "a": p.params.a, "b": p.params.b, "c": p.params.c,
        "k": p.params.k, "alpha": p.params.alpha,
        "topology": p.grid.topology, "n": p.grid.n,
    }
    line = "# " + json.dumps(header, allow_nan=False) + "\n"
    with open(path, "w") as fh:
        fh.write(line)
        fh.write("x,phi,dphi,d2phi\n")
        for row in zip(p.grid.nodes, p.phi, p.dphi, p.d2phi):
            fh.write("%.17g,%.17g,%.17g,%.17g\n" % row)
