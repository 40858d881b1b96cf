import itertools
import math
import random
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skwave import elliptic as el
from skwave import waves as wv
from skwave.errors import DomainError


def K_oracle(k):
    """K at 40 digits; mpmath takes the parameter m = k^2."""
    with mpmath.workdps(40):
        return float(mpmath.ellipk(mpmath.mpf(k) ** 2))


def E_oracle(k):
    """E at 40 digits; mpmath takes the parameter m = k^2."""
    with mpmath.workdps(40):
        return float(mpmath.ellipe(mpmath.mpf(k) ** 2))


def Pi_oracle(alpha, k):
    """Pi(alpha, k) at 40 digits; mpmath takes the parameter m = k^2."""
    with mpmath.workdps(40):
        return float(mpmath.ellippi(alpha, mpmath.mpf(k) ** 2))


# ----------------------------------------------------------------------
# K and E
# ----------------------------------------------------------------------

def test_degenerate_modulus():
    assert el.complete_K(0.0) == pytest.approx(np.pi / 2, abs=1e-15)
    assert el.complete_E(0.0) == pytest.approx(np.pi / 2, abs=1e-15)


def test_E_limit_at_one():
    assert abs(el.complete_E(1 - 1e-10) - 1.0) < 1e-8


def test_K_E_against_quadrature_oracle():
    assert abs(el.complete_K(0.5) - K_oracle(0.5)) < 1e-15
    assert abs(el.complete_E(0.5) - E_oracle(0.5)) < 1e-15
    # frozen oracle values
    assert el.complete_K(0.5) == pytest.approx(1.6857503548125961, abs=1e-13)
    assert el.complete_E(0.5) == pytest.approx(1.4674622093394272, abs=1e-13)


def test_K_diverges_domain():
    with pytest.raises(DomainError):
        el.complete_K(1.0)
    with pytest.raises(DomainError):
        el.complete_K(1.0 - 1e-12)


def test_K_E_monotone():
    ks = np.linspace(0.01, 0.97, 50)
    Ks = [el.complete_K(k) for k in ks]
    Es = [el.complete_E(k) for k in ks]
    assert np.all(np.diff(Ks) > 0)
    assert np.all(np.diff(Es) < 0)


@pytest.mark.parametrize("k", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_legendre_relation(k):
    kc = np.sqrt(1 - k * k)
    lhs = (el.complete_E(k) * el.complete_K(kc)
           + el.complete_E(kc) * el.complete_K(k)
           - el.complete_K(k) * el.complete_K(kc))
    assert abs(lhs - np.pi / 2) < 1e-12


@pytest.mark.parametrize("k", [1e-3, 1e-5])
def test_agm_chain_c1_without_cancellation(k):
    # c_1 = (1 - k')/2 = k^2 / (4 a_1): the difference form loses
    # eps / k^2, and theta's AGM sum needs c_n to full precision
    c = el._agm_chain(k)[2]
    with mpmath.workdps(50):
        exact = (1 - mpmath.sqrt(1 - mpmath.mpf(k) ** 2)) / 2
        assert abs(c[1] - exact) <= math.ulp(float(exact))


def bits(values) -> list:
    """The bytes of a value or of each member of a tuple of values."""
    values = values if isinstance(values, tuple) else (values,)
    return [np.asarray(v, dtype=float).tobytes() for v in values]


def chain_readers(k) -> dict:
    """Every reader of the AGM chain at modulus k, by name."""
    u = np.linspace(-3.0, 3.0, 7)
    return {"K": lambda: el.complete_K(k), "E": lambda: el.complete_E(k),
            "Pi": lambda: el.complete_Pi(-0.4, k), "K_and_t": lambda: el._K_and_t(k),
            "jacobi": lambda: el.jacobi(u, k), "jacobi_scalar": lambda: el.jacobi(0.7, k)}


def test_shared_chain_serves_every_reader_in_any_order(monkeypatch):
    # the kept chain of the last modulus, whatever type of k built it,
    # gives every reader the values of a chain built afresh for it
    moduli = (0.3, np.float64(0.3), 0.8, np.float64(0.8))
    monkeypatch.setattr(el, "_agm_chain", el._agm_chain.__wrapped__)
    fresh = {float(k): {name: f() for name, f in chain_readers(float(k)).items()}
             for k in moduli}
    monkeypatch.setattr(el, "_agm_chain", lru_cache(maxsize=1)(el._agm_chain))
    calls = [(k, name, f) for k in moduli for name, f in chain_readers(k).items()]
    rng = random.Random(0)
    for _ in range(20):
        rng.shuffle(calls)
        for k, name, f in calls:
            assert bits(f()) == bits(fresh[float(k)][name]), (k, name)
    el.complete_K(np.float64(0.5))
    assert type(el.complete_K(0.5)) is float
    assert all(type(v) is float for v in itertools.chain(*el._agm_chain(0.5)))


@pytest.mark.parametrize("k", [1e-9, 1e-8])
def test_agm_chain_sum_below_sqrt_eps(k):
    # k^2 < eps rounds k' to 1, yet the chain takes its first step, so
    # the sum t = sum_(n>=1) 2^n c_n^2 / k^2 of theta is ~1/8 k^2, not 0
    c = el._agm_chain(k)[2]
    t = sum(2 ** n * (cn / k) ** 2 for n, cn in enumerate(c[1:], 1))
    with mpmath.workdps(50):
        kk = mpmath.mpf(k)
        a, b, cn, exact = mpmath.mpf(1), mpmath.sqrt(1 - kk ** 2), kk, 0
        for n in range(1, 8):
            a, b, cn = (a + b) / 2, mpmath.sqrt(a * b), (a - b) / 2
            exact += 2 ** n * (cn / kk) ** 2
        assert abs(t - exact) <= 2 * np.finfo(float).eps * exact


# ----------------------------------------------------------------------
# Pi
# ----------------------------------------------------------------------

def test_Pi_reduces_to_K():
    for k in (0.2, 0.5, 0.8):
        assert abs(el.complete_Pi(0.0, k) - el.complete_K(k)) < 1e-13


def test_Pi_at_zero_modulus():
    # int dtheta/(1 - alpha sin^2) = pi / (2 sqrt(1 - alpha))
    for alpha in (-0.5, -0.1514, 0.3):
        assert abs(el.complete_Pi(alpha, 0.0)
                   - np.pi / (2 * np.sqrt(1 - alpha))) < 1e-12


def test_Pi_negative_characteristic_vs_oracle():
    # alpha value of the dn-quotient family at k = 0.5
    alpha = -0.1514
    assert abs(el.complete_Pi(alpha, 0.5) - Pi_oracle(alpha, 0.5)) < 1e-15
    assert abs(el.complete_Pi(-0.9, 0.9) - Pi_oracle(-0.9, 0.9)) < 1e-15


def test_Pi_along_dnq_family_vs_mpmath():
    # the characteristic the dn-quotient mass needs, alpha(k) < 0
    for k in np.linspace(0.001, 0.999, 80):
        alpha = wv.dnq_alpha(k)
        ref = Pi_oracle(alpha, k)
        assert abs(el.complete_Pi(alpha, k) - ref) <= 2e-15 * ref


def test_Pi_grid_vs_mpmath():
    # at k = 0, and with alpha far below 0, p still takes Newton steps
    # after the AGM chain has ended
    ks = np.concatenate([[0.0, 1e-8, 1e-3], np.linspace(0.01, 0.9999, 15)])
    for alpha in np.concatenate([np.linspace(-100.0, 0.99, 25), [-1e-8, 1e-8]]):
        for k in ks:
            ref = Pi_oracle(alpha, k)
            assert abs(el.complete_Pi(alpha, k) - ref) <= 1e-14 * ref, (alpha, k)


def test_Pi_singular_characteristic():
    with pytest.raises(DomainError):
        el.complete_Pi(1.0, 0.5)


@pytest.mark.parametrize("alpha", [float("nan"), -float("inf")])
def test_Pi_rejects_nonfinite_characteristic(alpha):
    # p and Q would be nan from the first step, and the sum never settles
    with pytest.raises(DomainError):
        el.complete_Pi(alpha, 0.5)


# ----------------------------------------------------------------------
# Jacobi functions
# ----------------------------------------------------------------------

def test_jacobi_origin():
    assert el.jacobi(0.0, 0.6) == (0.0, 1.0, 1.0)


def test_jacobi_quarter_period():
    k = 0.5
    sn, cn, dn = el.jacobi(el.complete_K(k), k)
    assert abs(sn - 1) < 1e-12
    assert abs(cn) < 1e-12
    assert abs(dn - np.sqrt(1 - k * k)) < 1e-12


def test_jacobi_trigonometric_degeneration():
    u = np.linspace(-3, 3, 7)
    sn, cn, dn = el.jacobi(u, 0.0)
    assert np.max(np.abs(sn - np.sin(u))) < 1e-15
    assert np.max(np.abs(cn - np.cos(u))) < 1e-15
    assert np.max(np.abs(dn - 1)) < 1e-15


@given(st.floats(-12, 12), st.sampled_from([0.1, 0.35, 0.5, 0.75, 0.9, 0.97]))
@settings(max_examples=60, deadline=None)
def test_jacobi_identities(u, k):
    sn, cn, dn = el.jacobi(u, k)
    assert abs(sn * sn + cn * cn - 1) < 1e-12
    assert abs(dn * dn + k * k * sn * sn - 1) < 1e-12


@given(st.floats(-8, 8), st.sampled_from([0.2, 0.5, 0.8]))
@settings(max_examples=40, deadline=None)
def test_jacobi_parity_and_periodicity(u, k):
    sn, cn, dn = el.jacobi(u, k)
    sn_m, cn_m, dn_m = el.jacobi(-u, k)
    assert abs(sn + sn_m) < 1e-12
    assert abs(cn - cn_m) < 1e-12
    assert abs(dn - dn_m) < 1e-12
    _, _, dn_p = el.jacobi(u + 2 * el.complete_K(k), k)
    assert abs(dn - dn_p) < 1e-11

