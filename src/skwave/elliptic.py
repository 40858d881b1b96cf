"""Complete elliptic integrals K, E, Pi and Jacobi elliptic functions.

The argument ``k`` is always the *modulus* (Abramowitz & Stegun use the
parameter m = k^2).  K and E run on the arithmetic-geometric mean and
its companion sum (A&S 17.6), Pi on the Carlson symmetric integrals
R_F/R_J evaluated by the duplication algorithm (Carlson, Numerische
Mathematik 33, 1979), and sn/cn/dn on the descending Landen chain over
the same AGM iterates (A&S 16.4), which ``_agm_chain`` alone builds.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

_AGM_REL = 1e-15          # |a_n - b_n| <= 1e-15 * a_n stops the AGM
_K_MAX = 1.0 - 1e-10      # moduli closer to 1 are rejected, K diverges


def _check_modulus(k: float) -> None:
    if not 0.0 <= k < 1.0:
        raise DomainError(f"modulus must lie in [0, 1), got {k}")
    if k > _K_MAX:
        raise DomainError(f"modulus {k} too close to 1 (limit {_K_MAX})")


def _agm_chain(k: float) -> tuple[list[float], list[float], list[float]]:
    """AGM iterates (a_n, b_n, c_n) starting from (1, k', k)."""
    a = [1.0]
    b = [math.sqrt((1.0 - k) * (1.0 + k))]
    c = [k]
    while abs(a[-1] - b[-1]) > _AGM_REL * a[-1]:
        an, bn = a[-1], b[-1]
        a.append((an + bn) / 2)
        b.append(math.sqrt(an * bn))
        c.append((an - bn) / 2)
    return a, b, c


def complete_K(k: float) -> float:
    """Complete elliptic integral of the first kind."""
    _check_modulus(k)
    a, _, _ = _agm_chain(k)
    return math.pi / (2 * a[-1])


def complete_E(k: float) -> float:
    """Complete elliptic integral of the second kind."""
    _check_modulus(k)
    a, _, c = _agm_chain(k)
    s = c[0] ** 2 / 2 + sum(2 ** (n - 1) * c[n] ** 2 for n in range(1, len(c)))
    return math.pi / (2 * a[-1]) * (1.0 - s)


# ----------------------------------------------------------------------
# Carlson symmetric forms (scalar, nonnegative arguments)
# ----------------------------------------------------------------------

def _rc1p(e: float) -> float:
    """R_C(1, 1+e) for e > -1, stable for e near 0 (the ratio forms
    atan(sqrt(e))/sqrt(e) and atanh(sqrt(-e))/sqrt(-e) have no
    cancellation, unlike the general closed form of R_C)."""
    if e <= -1:
        raise DomainError("R_C(1, 1+e) requires e > -1")
    if e == 0.0:
        return 1.0
    if e > 0:
        s = math.sqrt(e)
        return math.atan(s) / s
    s = math.sqrt(-e)
    return math.atanh(s) / s


def _rf(x: float, y: float, z: float) -> float:
    """Carlson R_F by duplication; at most one argument may be zero."""
    x0, y0, z0 = x, y, z
    A0 = (x + y + z) / 3
    Q = (3 * np.finfo(float).eps) ** (-1 / 8) * max(
        abs(A0 - x), abs(A0 - y), abs(A0 - z))
    A = A0
    fourm = 1.0
    while Q * fourm >= abs(A):
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sx * sz + sy * sz
        x, y, z = (x + lam) / 4, (y + lam) / 4, (z + lam) / 4
        A = (A + lam) / 4
        fourm /= 4
    X = (A0 - x0) * fourm / A
    Y = (A0 - y0) * fourm / A
    Z = -(X + Y)
    E2 = X * Y - Z * Z
    E3 = X * Y * Z
    series = (1.0 - E2 / 10 + E3 / 14 + E2 * E2 / 24 - 3 * E2 * E3 / 44
              - 5 * E2 ** 3 / 208 + 3 * E3 ** 2 / 104 + E2 ** 2 * E3 / 16)
    return series / math.sqrt(A)


def _rj(x: float, y: float, z: float, p: float) -> float:
    """Carlson R_J by duplication with the R_C correction sum; p > 0."""
    if p <= 0:
        raise DomainError("R_J requires p > 0")
    x0, y0, z0 = x, y, z
    A0 = (x + y + z + 2 * p) / 5
    delta = (p - x) * (p - y) * (p - z)
    Q = (np.finfo(float).eps / 5) ** (-1 / 8) * max(
        abs(A0 - x), abs(A0 - y), abs(A0 - z), abs(A0 - p))
    A = A0
    fourm = 1.0
    acc = 0.0
    while Q * fourm >= abs(A):
        sx, sy, sz, sp = math.sqrt(x), math.sqrt(y), math.sqrt(z), math.sqrt(p)
        lam = sx * sy + sx * sz + sy * sz
        d = (sp + sx) * (sp + sy) * (sp + sz)
        e = fourm ** 3 * delta / d ** 2
        acc += fourm / d * _rc1p(e)
        x, y, z, p = (x + lam) / 4, (y + lam) / 4, (z + lam) / 4, (p + lam) / 4
        A = (A + lam) / 4
        fourm /= 4
    X = (A0 - x0) * fourm / A
    Y = (A0 - y0) * fourm / A
    Z = (A0 - z0) * fourm / A
    P = -(X + Y + Z) / 2
    E2 = X * Y + X * Z + Y * Z - 3 * P * P
    E3 = X * Y * Z + 2 * E2 * P + 4 * P ** 3
    E4 = (2 * X * Y * Z + E2 * P + 3 * P ** 3) * P
    E5 = X * Y * Z * P * P
    series = (1 - 3 * E2 / 14 + E3 / 6 + 9 * E2 ** 2 / 88 - 3 * E4 / 22
              - 9 * E2 * E3 / 52 + 3 * E5 / 26 - E2 ** 3 / 16
              + 3 * E3 ** 2 / 40 + 3 * E2 * E4 / 20 + 45 * E2 ** 2 * E3 / 272
              - 9 * (E3 * E4 + E2 * E5) / 68)
    return fourm * A ** (-1.5) * series + 6 * acc


def complete_Pi(alpha: float, k: float) -> float:
    """Complete elliptic integral of the third kind.

    Pi(alpha, k) = int_0^{pi/2} dtheta / ((1 - alpha sin^2) sqrt(1 - k^2 sin^2)),
    computed as R_F + (alpha/3) R_J in Carlson form.  alpha < 1 is
    required; the dn-quotient wave family only ever needs alpha < 0.
    """
    _check_modulus(k)
    if alpha >= 1.0:
        raise DomainError(f"characteristic must satisfy alpha < 1, got {alpha}")
    kc2 = (1.0 - k) * (1.0 + k)
    if alpha == 0.0:
        return _rf(0.0, kc2, 1.0)
    return _rf(0.0, kc2, 1.0) + alpha / 3 * _rj(0.0, kc2, 1.0, 1.0 - alpha)


# ----------------------------------------------------------------------
# Jacobi elliptic functions
# ----------------------------------------------------------------------

def jacobi(u, k: float):
    """Jacobi sn, cn, dn at argument u (scalar or array) and modulus k.

    Descending Landen (Gauss) transformation in the form given by
    Numerical Recipes sncndn: the modulus chain is the AGM chain of K,
    the back-substitution is vectorized over u.  dn comes out of its own
    recursion, not out of the identity sqrt(1 - k^2 sn^2).
    """
    _check_modulus(k)
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    if k < 1e-12:
        sn, cn, dn = np.sin(u), np.cos(u), np.ones_like(u)
    else:
        em, en, _ = _agm_chain(k)
        c = (em[-1] + en[-1]) / 2
        uu = c * u
        sn0, cn0 = np.sin(uu), np.cos(uu)
        dn = np.ones_like(uu)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            aa = cn0 / sn0
            cc = aa * c
            for b, e in zip(reversed(em), reversed(en)):
                aa = aa * cc
                cc = cc * dn
                dn = (e + aa) / (b + aa)
                aa = cc / b
            amp = 1.0 / np.sqrt(cc * cc + 1.0)
            sn = np.where(sn0 >= 0.0, amp, -amp)
            cn = cc * sn
        # at (or within roundoff of) the zeros of sn the back-recursion
        # divides by ~0; the limiting values there are exact
        near_zero = np.abs(sn0) < 1e-150
        if np.any(near_zero):
            sn = np.where(near_zero, 0.0, sn)
            cn = np.where(near_zero, np.sign(cn0), cn)
            dn = np.where(near_zero, 1.0, dn)
    if scalar:
        return float(sn[0]), float(cn[0]), float(dn[0])
    return sn, cn, dn

