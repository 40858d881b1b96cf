"""Shared low-level numerics.

Grids with quadrature weights, bracketed root finding, dense symmetric
eigendecomposition and the DFT pair.  All operations are pure functions
of their inputs and safe to call concurrently.

DFT convention
--------------
``dft(v)[m] = sum_j v[j] * exp(-2i*pi*m*j/n)`` (plain sum, no scaling)
and ``idft`` carries the ``1/n`` factor, so ``idft(dft(v)) == v``.
Parseval reads ``sum |v|^2 = (1/n) sum |dft(v)|^2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import optimize as _optimize

from .errors import (
    BracketError,
    DimensionError,
    DomainError,
    UsageError,
)

TWO_PI = 2.0 * np.pi


# ----------------------------------------------------------------------
# grids
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform spatial grid on the torus [0, circumference) or the
    truncated line [-half_length, half_length].

    ``weights`` are quadrature weights: the rectangle rule on the torus
    (spectrally accurate for smooth periodic integrands) and the
    trapezoid rule on the line.
    """

    topology: str                       # "torus" | "line"
    n: int
    nodes: np.ndarray
    spacing: float
    weights: np.ndarray
    half_length: Optional[float] = None     # line only
    circumference: Optional[float] = None   # torus only


def _check_n(n: int) -> None:
    if n < 16 or n % 2:
        raise DomainError(f"grid size must be even and >= 16, got {n}")


def torus_grid(n: int, circumference: float = TWO_PI, origin: float = 0.0) -> Grid:
    """Periodic grid with nodes origin + j*circumference/n, j = 0..n-1."""
    _check_n(n)
    if circumference <= 0:
        raise DomainError("circumference must be positive")
    h = circumference / n
    nodes = origin + h * np.arange(n)
    weights = np.full(n, h)
    return Grid("torus", n, nodes, h, weights, circumference=circumference)


def line_grid(half_length: float, n: int) -> Grid:
    """Truncated-line grid: n nodes uniform on [-L, L], trapezoid weights."""
    _check_n(n)
    if half_length <= 0:
        raise DomainError("half_length must be positive")
    nodes = np.linspace(-half_length, half_length, n)
    h = nodes[1] - nodes[0]
    weights = np.full(n, h)
    weights[0] = weights[-1] = h / 2
    return Grid("line", n, nodes, h, weights, half_length=half_length)


def wavenumbers(grid: Grid) -> np.ndarray:
    """Physical wavenumbers in FFT ordering (integers on the 2*pi torus)."""
    if grid.topology != "torus":
        raise UsageError("wavenumbers are defined for torus grids")
    return TWO_PI * np.fft.fftfreq(grid.n, d=grid.spacing)


# ----------------------------------------------------------------------
# quadrature
# ----------------------------------------------------------------------

def quadrature(grid: Grid, samples: np.ndarray) -> float:
    """Integral of sampled values against the grid's quadrature weights."""
    samples = np.asarray(samples)
    if samples.shape != (grid.n,):
        raise DimensionError(
            f"expected {grid.n} samples, got shape {samples.shape}")
    return float(np.real_if_close(np.dot(grid.weights, samples)))


# ----------------------------------------------------------------------
# root finding
# ----------------------------------------------------------------------

def find_root_bracketed(f: Callable[[float], float], lo: float, hi: float,
                        tol: float = 1e-12) -> float:
    """Root of f in [lo, hi] with a guaranteed sign-change bracket.

    Brent-style contract: the returned point never leaves the initial
    bracket and the final bracket width is at most ``tol``.  Non-finite
    f values raise DomainError, a missing sign change raises
    BracketError.
    """
    if not lo < hi:
        raise BracketError(f"empty bracket [{lo}, {hi}]")

    def checked(x: float) -> float:
        fx = f(x)
        if not np.isfinite(fx):
            raise DomainError(f"f({x}) is not finite")
        return fx

    flo, fhi = checked(lo), checked(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo:.3g}, f(hi)={fhi:.3g}")
    return float(_optimize.brentq(checked, lo, hi, xtol=tol, rtol=8.9e-16,
                                  maxiter=200))


# ----------------------------------------------------------------------
# symmetric eigenproblems
# ----------------------------------------------------------------------

def symmetric_eigen(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a (numerically) symmetric matrix.

    Eigenvalues come back ascending, eigenvectors orthonormal in the
    columns of the second return.  The input may be asymmetric at
    roundoff level only (1e-10 relative in the max norm); it is
    symmetrized before solving.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    scale = np.max(np.abs(m))
    if scale > 0:
        asym = np.max(np.abs(m - m.T))
        if asym > 1e-10 * scale:
            raise DomainError(
                f"matrix asymmetry {asym:.3e} exceeds 1e-10 * {scale:.3e}")
    sym = (m + m.T) / 2
    w, v = np.linalg.eigh(sym)
    return w, v


# ----------------------------------------------------------------------
# DFT pair and spectral derivatives
# ----------------------------------------------------------------------

def dft(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values)
    if values.shape[0] % 2:
        raise DimensionError("dft requires an even number of samples")
    return np.fft.fft(values)


def idft(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values)
    if values.shape[0] % 2:
        raise DimensionError("idft requires an even number of samples")
    return np.fft.ifft(values)


def spectral_derivative(grid: Grid, values: np.ndarray, order: int = 1) -> np.ndarray:
    """Derivative of a periodic sampled function via the DFT.

    For odd orders the Nyquist mode is zeroed (its derivative is not
    representable on the grid); for even orders it carries the real
    symbol (i*m)^order.
    """
    if grid.topology != "torus":
        raise UsageError("spectral_derivative requires a torus grid")
    m = wavenumbers(grid)
    symbol = (1j * m) ** order
    if order % 2:
        symbol[grid.n // 2] = 0.0
    vhat = np.fft.fft(values)
    out = np.fft.ifft(symbol * vhat)
    if np.isrealobj(values):
        return out.real
    return out
