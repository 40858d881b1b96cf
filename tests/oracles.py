"""Reference computations the tests compare the program against; the
program itself does not call them."""

import json
import math

import numpy as np

from skwave import functionals as fn
from skwave import spectral as sp
from skwave import waves as wv
from skwave.errors import DomainError, UsageError
from skwave.kernel import parseval, quadrature, wavenumbers


def state_derivative(grid, v: np.ndarray) -> np.ndarray:
    """d/dx of a sampled state: spectral on the torus, with the Nyquist
    mode's derivative (not representable on the grid) zeroed, and the
    program's 4th-order differences (``functionals.state_derivative``)
    on the line."""
    if grid.topology == "line":
        return fn.state_derivative(grid, v)
    v = np.asarray(v)
    symbol = 1j * wavenumbers(grid)
    symbol[grid.n // 2] = 0.0
    du = np.fft.ifft(symbol * np.fft.fft(v))
    return du.real if np.isrealobj(v) else du


def quadratic_form_LRe(p: wv.Profile, P: np.ndarray) -> float:
    """(L_Re P, P) = (L1 P, P) + 2 (phi', P')^2 by quadrature.

    The local part is integrated by parts, so only first derivatives of
    P enter: c int P'^2 + omega int P^2 - (2r+1) int phi^2r P^2.
    """
    P = np.asarray(P, dtype=float)
    if P.shape != (p.grid.n,):
        raise DomainError(f"P must have {p.grid.n} samples")
    dP = state_derivative(p.grid, P)
    r, w, c = p.params.r, p.params.omega, p.params.c
    local = (c * quadrature(p.grid, dP ** 2) + w * quadrature(p.grid, P ** 2)
             - (2 * r + 1) * quadrature(p.grid, p.phi ** (2 * r) * P ** 2))
    cross = quadrature(p.grid, p.dphi * dP)
    return local + 2 * cross * cross


def kirchhoff_coefficient(u: np.ndarray, grid) -> float:
    """1 + int |u_x|^2 on a torus grid by the program's Parseval sum, as
    ``evolution.step_strang`` takes it."""
    return 1.0 + parseval(grid, grid.m2, np.fft.fft(u))


def read_profile_header(path) -> dict:
    """The JSON header line of a profile CSV (``waves.write_profile_csv``)."""
    with open(path) as fh:
        first = fh.readline()
    if not first.startswith("# "):
        raise UsageError("profile CSV lacks the JSON header line")
    return json.loads(first[2:])


def trig_band_loop(p: wv.Profile, potential: np.ndarray, c: float) -> np.ndarray:
    """``spectral._trig_band`` written as a loop over the kd + 1 lags, with
    each block in ascending mode order (cos(m x), m = 0..n/2, then
    sin(m x), m = 1..n/2-1) rather than far end first."""
    n, half = p.grid.n, p.grid.n // 2
    w = p.params.omega
    vh = np.fft.fft(potential).real
    lag = np.minimum(np.arange(n), n - np.arange(n))
    floor = 1e-14 * n * (abs(w) + float(np.max(np.abs(w - potential))))
    kd = int(np.max(lag[np.abs(vh) > floor], initial=0))
    vh[lag > kd] = 0.0
    alpha = sp._trig_scale(n)
    band = np.zeros((kd + 1, n))
    for k in range(kd + 1):
        q = np.arange(max(half + 1 - k, 0))
        band[k, q] = alpha[q + k] * alpha[q] * (vh[k] + vh[(2 * q + k) % n]) / 2
        q = np.arange(1, max(half - k, 1))
        band[k, half + q] = (vh[k] - vh[2 * q + k]) / n
    m2 = c * wavenumbers(p.grid)[:half + 1] ** 2
    band[0, :half + 1] += m2
    band[0, half + 1:] += m2[1:-1]
    return band


def nodal_line_band(p: wv.Profile, potential: np.ndarray, c: float) -> np.ndarray:
    """-c D2 + diag(potential) on the nodes of a line grid, with D2 the
    4th-order centered differences truncated at the ends, in lower band
    storage: the pentadiagonal band before any parity fold."""
    h = p.grid.spacing
    stencil = np.array([-30.0, 16.0, -1.0]) / (12 * h * h)
    band = np.zeros((3, p.grid.n))
    band[0] = -c * stencil[0] + potential
    band[1, :-1] = -c * stencil[1]
    band[2, :-2] = -c * stencil[2]
    return band


def fold_loop(band: np.ndarray, factors, sign: float) -> tuple:
    """The even (``sign`` = 1) or odd (-1) block B^T A B of a nodal line
    band, in lower band storage, and B^T U, for the orthonormal basis
    b_j = (e_j + sign e_(n-1-j))/sqrt(2), j < n/2, as loops.

    Entry (i, j) of the block is (A_ij + A_(n-1-i, n-1-j) + sign
    (A_(i, n-1-j) + A_(n-1-i, j)))/2.  The corner terms reach across the
    midpoint only where n-1-i-j <= kd, so the block keeps the bandwidth
    kd."""
    kd, n = band.shape[0] - 1, band.shape[1]
    m = n // 2
    block = np.zeros((kd + 1, m))
    for k in range(kd + 1):
        block[k, :m - k] = (band[k, :m - k] + band[k, m:n - k][::-1]) / 2
    for j in range(m - kd, m):
        for i in range(j, m):
            t = n - 1 - i - j
            if t <= kd:
                block[i - j, j] += sign * (band[t, i] + band[t, j]) / 2
    if factors is not None:
        factors = (factors[:m] + sign * factors[::-1][:m]) * math.sqrt(0.5)
    return block, factors


def reverse_loop(band: np.ndarray) -> np.ndarray:
    """The band, in lower band storage, of the block with its rows and
    columns in reverse order, as a loop over the lags."""
    m = band.shape[1]
    out = np.zeros_like(band)
    for k in range(min(band.shape[0], m)):
        out[k, :m - k] = band[k, m - k - 1::-1]
    return out


def theta_full_period(p: wv.Profile) -> tuple:
    """(theta, (ybar, ybar')(2*pi)) from the Magnus product over all
    MAGNUS_CELLS cells of the period, without the half-period symmetry
    that ``spectral.floquet_theta`` uses."""
    phi_dd0 = float(wv.profile_values(p.params, 0.0)[2])
    r, w, c = p.params.r, p.params.omega, p.params.c
    h = sp.TWO_PI / sp.MAGNUS_CELLS
    gauss = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3) / 6
    x = h * (np.arange(sp.MAGNUS_CELLS)[:, None] + gauss)
    q = (w - (2 * r + 1) * wv.profile_values(p.params, x)[0] ** (2 * r)) / c
    qbar = (q[:, 0] + q[:, 1]) / 2
    d = math.sqrt(3) * h * h * (q[:, 0] - q[:, 1]) / 12
    s = np.sqrt(d * d + h * h * qbar + 0j)
    cosh_s = np.cosh(s).real
    sinhc_s = np.sinc(1j * s / math.pi).real
    cells = np.empty((sp.MAGNUS_CELLS, 2, 2))
    cells[:, 0, 0] = cosh_s + sinhc_s * d
    cells[:, 0, 1] = sinhc_s * h
    cells[:, 1, 0] = sinhc_s * h * qbar
    cells[:, 1, 1] = cosh_s - sinhc_s * d
    while len(cells) > 1:
        cells = cells[1::2] @ cells[0::2]
    ybar_end = cells[0, :, 0] * (-1.0 / phi_dd0)
    return float(ybar_end[1] / phi_dd0), tuple(ybar_end)
