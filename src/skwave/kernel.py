"""Shared low-level numerics.

Grids with quadrature weights, the Parseval sum, dense symmetric
eigendecomposition and the DFT pair: pure functions, thread-safe.

DFT convention
--------------
``dft(v)[m] = sum_j v[j] * exp(-2i*pi*m*j/n)`` (plain sum, no scaling)
and ``idft`` carries the ``1/n`` factor, so ``idft(dft(v)) == v``.
Parseval reads ``sum |v|^2 = (1/n) sum |dft(v)|^2``.

``dft_into``/``idft_into`` are the same pair written into a given
array, for the time stepper's hot loop: they call numpy's own pocketfft
gufuncs with the arguments ``np.fft.fft``/``np.fft.ifft`` pass them, so
the output is bit for bit the public one without that wrapper's
per-call argument handling.  There is no fallback to the public
wrappers: numpy >= 2.0 is required and ships these kernels, and the
test suite pins their call signature, so a numpy that changes the
private convention fails the tests instead of taking an untested path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .errors import DimensionError, DomainError, UsageError

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

    @cached_property
    def m2(self) -> np.ndarray:
        """Squared wavenumbers m^2 in FFT ordering, built once per torus
        grid and read-only: the symbol of -d^2/dx^2."""
        m2 = wavenumbers(self) ** 2
        m2.flags.writeable = False
        return m2

    @cached_property
    def parseval_scale(self) -> float:
        """L/n^2: int |v|^2 = (L/n^2) sum |v_hat|^2 on the torus."""
        if self.topology != "torus":
            raise UsageError("the Parseval scale is defined for torus grids")
        return self.circumference / self.n ** 2


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
    """Truncated-line grid: n nodes uniform on [-L, L], trapezoid weights.

    The nodes are built about the midpoint, so that x_(n-1-j) = -x_j
    holds bitwise: even and odd samples then split exactly into the
    reflection-parity blocks of the operators.
    """
    _check_n(n)
    if half_length <= 0:
        raise DomainError("half_length must be positive")
    h = 2 * half_length / (n - 1)
    nodes = h * (np.arange(n) - (n - 1) / 2)
    nodes[[0, -1]] = -half_length, half_length   # h (n-1)/2 may round off L
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


def parseval(grid: Grid, symbol: np.ndarray, vh: np.ndarray) -> float:
    """(L/n^2) sum symbol |v_hat|^2 from the DFT ``vh`` of a torus state:
    by Parseval, int |v_x|^2 for symbol m^2 and the squared H^1 norm for
    1 + m^2."""
    return grid.parseval_scale * float(np.dot(symbol, np.abs(vh) ** 2))


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
    asym = np.max(np.abs(m - m.T))
    if asym > 1e-10 * scale:
        raise DomainError(
            f"matrix asymmetry {asym:.3e} exceeds 1e-10 * {scale:.3e}")
    w, v = np.linalg.eigh((m + m.T) / 2)
    return w, v


# ----------------------------------------------------------------------
# DFT pair
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


def dft_into(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.fft.fft(values, out=out)`` for 1-D ``values`` and a complex
    ``out`` of the same length, which may be ``values`` itself; returns
    ``out``.  The gufunc cannot size its own output, so ``out`` is
    required."""
    return _pocketfft.fft(values, 1.0, out=out)


def idft_into(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.fft.ifft(values, out=out)`` likewise; the factor 1/n is the
    one ``np.fft.ifft`` takes, bit for bit."""
    return _pocketfft.ifft(values, 1 / values.shape[-1], out=out)
