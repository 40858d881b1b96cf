"""Complete elliptic integrals K, E, Pi and Jacobi elliptic functions.

The argument ``k`` is always the *modulus* (Abramowitz & Stegun use the
parameter m = k^2).  One arithmetic-geometric mean chain, built by
``_agm_chain`` alone, serves everything: K is its limit, E adds the
companion sum (A&S 17.6), Pi the sequence p_n, Q_n carried along it
(DLMF 19.8(i)), and sn/cn/dn are its descending Landen
back-substitution (A&S 16.4).
"""

from __future__ import annotations

import itertools
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
    """AGM iterates (a_n, b_n, c_n) starting from (1, k', k).  c_(n+1) is
    (a_n - b_n)/2 written as c_n^2 / (4 a_(n+1)), which does not cancel:
    c_1 ~ k^2/4 keeps full relative precision at small k.  The chain
    takes at least one step, so that c_1 is there even where k^2 < eps
    rounds k' to 1 and the stop test already holds at n = 0."""
    a = [1.0]
    b = [math.sqrt((1.0 - k) * (1.0 + k))]
    c = [k]
    while len(a) == 1 or abs(a[-1] - b[-1]) > _AGM_REL * a[-1]:
        an, bn = a[-1], b[-1]
        a.append((an + bn) / 2)
        b.append(math.sqrt(an * bn))
        c.append(c[-1] ** 2 / (4 * a[-1]))
    return a, b, c


def _K_and_t(k: float) -> tuple[float, float]:
    """(K, t) with t = sum_(n>=1) 2^n c_n^2 / k^2 on the AGM chain, so that
    D = (K - E)/k^2 = K (1 + t)/2 (DLMF 19.8.5) does not cancel at small
    k: K' = k (K - D)/k'^2 and E' = -k D."""
    a, _, c = _agm_chain(k)
    return (math.pi / (2 * a[-1]),
            sum(2 ** n * (cn / k) ** 2 for n, cn in enumerate(c[1:], 1)))


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


def complete_Pi(alpha: float, k: float) -> float:
    """Complete elliptic integral of the third kind.

    Pi(alpha, k) = int_0^{pi/2} dtheta / ((1 - alpha sin^2) sqrt(1 - k^2 sin^2)),
    computed on the AGM chain of K (DLMF 19.8.6-19.8.8): from
    p_0 = sqrt(1 - alpha) and Q_0 = 1, each step sets
    p <- (p^2 + a b)/(2p) and Q <- Q (p^2 - a b)/(2(p^2 + a b)), and
    Pi = K (1 + alpha/(2(1 - alpha)) sum Q).  Past the end of the chain
    a = b = its last mean, where p is still on its way there by Newton
    steps (k = 0, or alpha far below 0).  A finite alpha < 1 is required.
    For alpha far below 0 that last sum cancels, and the relative error
    grows like sqrt(-alpha) eps (1e-14 at alpha = -1e4); the dn-quotient
    wave family only ever needs -1 < alpha < 0.
    """
    _check_modulus(k)
    if not -math.inf < alpha < 1.0:
        raise DomainError(f"characteristic must satisfy alpha < 1, got {alpha}")
    a, b, _ = _agm_chain(k)
    p, q, total = math.sqrt(1.0 - alpha), 1.0, 1.0
    # |Q| at least halves per step: stop once it no longer moves the sum
    for an, bn in itertools.chain(zip(a, b), itertools.repeat((a[-1], a[-1]))):
        p2, ab = p * p, an * bn
        p, q = (p2 + ab) / (2 * p), q * (p2 - ab) / (2 * (p2 + ab))
        if total + q == total:
            break
        total += q
    return math.pi / (2 * a[-1]) * (1.0 + alpha / (2 * (1.0 - alpha)) * total)


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

