import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ellipj, ellipk

from skwave import kernel
from skwave.errors import DimensionError, DomainError, UsageError


# ----------------------------------------------------------------------
# grids and quadrature
# ----------------------------------------------------------------------

def test_torus_grid_invariants():
    g = kernel.torus_grid(64)
    assert np.allclose(g.nodes, 2 * np.pi * np.arange(64) / 64)
    assert abs(np.sum(g.weights) - 2 * np.pi) < 1e-12 * 2 * np.pi


def test_line_grid_invariants():
    g = kernel.line_grid(5.0, 32)
    assert g.nodes[0] == -5.0 and g.nodes[-1] == 5.0
    assert abs(np.sum(g.weights) - 10.0) < 1e-12 * 10.0


@pytest.mark.parametrize("half_length, n", [(5.0, 32), (62.194111945765066, 16),
                                             (40.07625207696849, 2048)])
def test_line_nodes_exactly_antisymmetric(half_length, n):
    # x_(n-1-j) = -x_j bitwise, with the endpoints at +-L (h (n-1)/2
    # misses L by an ulp at L = 62.19..., n = 16), within ulps of linspace
    g = kernel.line_grid(half_length, n)
    assert np.array_equal(g.nodes[::-1], -g.nodes)
    assert g.nodes[0] == -half_length and g.nodes[-1] == half_length
    linspace = np.linspace(-half_length, half_length, n)
    assert np.max(np.abs(g.nodes - linspace)) <= 4 * np.spacing(half_length)


def test_spectral_constants_built_once():
    g = kernel.torus_grid(64, 3.0)
    m = kernel.wavenumbers(g)
    assert np.array_equal(g.m2, m * m)
    assert g.m2 is g.m2
    assert g.parseval_scale == 3.0 / 64 ** 2
    # the propagator in evolution mirrors m^2 from its first n/2 + 1 values
    assert np.array_equal(g.m2[33:], g.m2[31:0:-1])
    with pytest.raises(ValueError):
        g.m2[1] = 0.0
    line = kernel.line_grid(5.0, 32)
    with pytest.raises(UsageError):
        line.m2
    with pytest.raises(UsageError):
        line.parseval_scale


@pytest.mark.parametrize("n", [8, 15, 33])
def test_grid_size_contract(n):
    with pytest.raises(DomainError):
        kernel.torus_grid(n)


def test_quadrature_constant():
    g = kernel.torus_grid(32)
    assert abs(kernel.quadrature(g, np.ones(32)) - 2 * np.pi) < 1e-12


def test_quadrature_sin_squared():
    g = kernel.torus_grid(256)
    assert abs(kernel.quadrature(g, np.sin(g.nodes) ** 2) - np.pi) < 1e-12


def test_quadrature_dn_squared_vs_adaptive_oracle():
    # int_0^{2pi} dn^2(b x, k) dx with k = 0.5, b = K/pi equals
    # 2 E(k)/b by the elliptic mean-value identity; check both against
    # an independent adaptive quadrature of the scipy dn.
    k = 0.5
    K = ellipk(k * k)
    b = K / np.pi
    g = kernel.torus_grid(512)
    dn = ellipj(b * g.nodes, k * k)[2]
    mine = kernel.quadrature(g, dn ** 2)
    oracle = quad(lambda x: ellipj(b * x, k * k)[2] ** 2, 0, 2 * np.pi,
                  epsabs=1e-13, epsrel=1e-13, limit=200)[0]
    assert abs(mine - oracle) < 1e-10
    assert abs(mine - 2 * np.pi * 1.4674622093394272 / K) < 1e-10


def test_quadrature_length_mismatch():
    g = kernel.torus_grid(32)
    with pytest.raises(DimensionError):
        kernel.quadrature(g, np.ones(31))


@given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10))
@settings(max_examples=25, deadline=None)
def test_quadrature_exact_for_trig_polynomials(p, q):
    # spectrally exact for degrees below n/2
    g = kernel.torus_grid(32)
    x = g.nodes
    f = 0.7 + np.cos(p * x) * 2.0 - 1.3 * np.sin(q * x)
    exact = 0.7 * 2 * np.pi + (2 * np.pi * 2.0 if p == 0 else 0.0)
    assert abs(kernel.quadrature(g, f) - exact) < 1e-12 * max(1, abs(exact))


# ----------------------------------------------------------------------
# symmetric eigenproblems
# ----------------------------------------------------------------------

def test_eigen_diagonal():
    w, _ = kernel.symmetric_eigen(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1, 2, 3])


def test_eigen_2x2_closed_form():
    w, v = kernel.symmetric_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(w, [1, 3])
    s = 1 / np.sqrt(2)
    # eigenvectors up to sign
    assert min(np.linalg.norm(v[:, 0] - [s, -s]),
               np.linalg.norm(v[:, 0] + [s, -s])) < 1e-12
    assert min(np.linalg.norm(v[:, 1] - [s, s]),
               np.linalg.norm(v[:, 1] + [s, s])) < 1e-12


def test_eigen_fourier_second_derivative():
    from test_spectral import fourier_diff_matrix
    g = kernel.torus_grid(64)
    w, _ = kernel.symmetric_eigen(-fourier_diff_matrix(g, 2))
    expected = np.sort(np.concatenate([[0.0], *[[m * m, m * m] for m in range(1, 32)],
                                       [32.0 ** 2]]))
    assert np.max(np.abs(w - expected)) < 1e-8


def test_eigen_orthonormality(rng):
    a = rng.standard_normal((60, 60))
    w, v = kernel.symmetric_eigen(a + a.T)
    gram = v.T @ v
    assert np.max(np.abs(gram - np.eye(60))) < 1e-9


def test_eigen_non_square():
    with pytest.raises(DimensionError):
        kernel.symmetric_eigen(np.ones((3, 4)))


def test_eigen_rejects_gross_asymmetry():
    m = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(DomainError):
        kernel.symmetric_eigen(m)


# ----------------------------------------------------------------------
# DFT pair
# ----------------------------------------------------------------------

def test_dft_delta_is_flat():
    v = np.zeros(32, dtype=complex)
    v[0] = 1.0
    assert np.allclose(kernel.dft(v), np.ones(32))


def test_dft_single_mode():
    g = kernel.torus_grid(64)
    vhat = kernel.dft(np.exp(3j * g.nodes))
    idx = np.argmax(np.abs(vhat))
    assert idx == 3
    mask = np.ones(64, dtype=bool)
    mask[3] = False
    assert np.max(np.abs(vhat[mask])) < 1e-10 * 64


def test_dft_odd_length_rejected():
    with pytest.raises(DimensionError):
        kernel.dft(np.ones(31))


@given(st.integers(4, 11))
@settings(max_examples=8, deadline=None)
def test_dft_roundtrip_and_parseval(log2n):
    n = 2 ** log2n
    rng = np.random.default_rng(log2n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    vhat = kernel.dft(v)
    back = kernel.idft(vhat)
    assert np.max(np.abs(back - v)) < 1e-12 * np.max(np.abs(v))
    lhs = np.sum(np.abs(v) ** 2) * (2 * np.pi / n)
    rhs = np.sum(np.abs(vhat) ** 2) * (2 * np.pi / n ** 2)
    assert abs(lhs - rhs) < 1e-12 * lhs


_PAIRS = [(kernel.dft_into, np.fft.fft), (kernel.idft_into, np.fft.ifft)]


@pytest.mark.parametrize("n", [16, 96, 512, 1000, 2048])
@pytest.mark.parametrize("into, public", _PAIRS, ids=["dft", "idft"])
def test_transform_into_matches_public_fft_bitwise(n, into, public):
    # in place, into a fresh array, from a read-only and from a real
    # input: every bit is np.fft's, so no trajectory moves
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ref = public(v)
    fresh = np.empty(n, dtype=complex)
    assert into(v, fresh) is fresh and np.array_equal(fresh, ref)
    w = v.copy()
    assert into(w, w) is w and np.array_equal(w, ref)
    frozen = v.copy()
    frozen.flags.writeable = False
    assert np.array_equal(into(frozen, np.empty(n, dtype=complex)), ref)
    real = v.real.copy()
    assert np.array_equal(into(real, np.empty(n, dtype=complex)),
                          public(real))


def test_pocketfft_call_convention_pinned():
    # dft_into/idft_into call numpy's private pocketfft gufuncs; a numpy
    # that changes their signature must fail here, not move numbers
    from numpy.fft import _pocketfft_umath
    assert _pocketfft_umath.fft.signature == "(n),()->(m)"
    assert _pocketfft_umath.ifft.signature == "(m),()->(n)"
