"""Discretization and spectrum of the operators linearizing the flow
around a standing wave.

The linearization block-diagonalizes into two Schrodinger-type
operators acting on the real and imaginary perturbation parts:

    L_Re = -c d^2/dx^2 + omega - (2r+1) phi^2r  - 2 (phi', d/dx .) phi''
    L_Im = -c d^2/dx^2 + omega - phi^2r

with c = 1 + int phi'^2.  Integrating the nonlocal coupling by parts,
(phi', P') = -(phi'', P), turns it into the form +2 (phi'', .) phi''.
Assembled against the quadrature weights w and symmetrized it is the
rank-two term U C U^T, U = [phi'', w phi''], C = [[0, 1], [1, 0]].

Torus grids use the exact (dense) Fourier differentiation matrix, and
their counts come from a full symmetric eigensolve.  Line grids use
4th-order centered differences with Dirichlet (decay) truncation: the
operator is a pentadiagonal A, kept in LAPACK band storage, plus the
rank-two coupling kept as its factors.  Line counts come from inertia
alone: Sylvester's law counts the eigenvalues of A below a shift with a
banded eigensolver, and Haynsworth additivity over the bordered matrix
[[A - s, U], [U^T, -C]] adds the inertia of a 2x2 Schur complement,

    n_below(A + U C U^T, s) = n_below(A, s) + n_neg(S) - 1,
    S = -C - U^T (A - s)^-1 U,

with one banded solve per shift.  No dense n x n matrix is formed.

The kernel position of the periodic Hill operator is certified by the
Floquet constant theta: the second fundamental solution satisfies
y2(x + 2*pi) = y2(x) + theta*y1(x), and zero is a simple eigenvalue of
the Hill operator iff theta != 0.  theta is read off the monodromy
matrix of the Hill equation, a product of 4th-order Magnus propagators
(Iserles & Norsett 1999; Blanes, Casas, Oteo & Ros, Phys. Rep. 470,
2009) over the Gauss-node samples of the closed-form profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from scipy.linalg import circulant, eig_banded, solve_banded

from . import waves as wv
from .errors import DegenerateProfileError, DomainError, UsageError
from .kernel import (
    Grid,
    find_root_bracketed,
    quadrature,
    symmetric_eigen,
    wavenumbers,
)

TWO_PI = 2.0 * math.pi

OPERATOR_KINDS = ("L_Re", "L_Im")

MAGNUS_CELLS = 2048     # a power of two, for the pairwise product

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])   # C, its own inverse


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """L_Re or L_Im discretized on a profile's grid.

    On the torus ``matrix`` is the dense symmetric matrix.  On the line
    ``matrix`` is None and the operator is A + U C U^T: ``band`` holds
    the pentadiagonal A = -c D2 + diag(omega - coeff phi^2r) in LAPACK
    lower band storage (band[k, j] = A[j + k, j]), and ``factors`` holds
    U = [phi'', w phi''] for L_Re and is None for L_Im.
    """

    kind: str
    matrix: Optional[np.ndarray]
    profile: wv.Profile
    c: float
    r: int
    band: Optional[np.ndarray] = None
    factors: Optional[np.ndarray] = None

    def apply(self, v: np.ndarray) -> np.ndarray:
        """The operator applied to the grid vector ``v``."""
        if self.band is None:
            return self.matrix @ v
        out = self.band[0] * v
        for k in range(1, self.band.shape[0]):
            out[k:] += self.band[k, :-k] * v[:-k]
            out[:-k] += self.band[k, :-k] * v[k:]
        if self.factors is not None:
            out += self.factors @ (SWAP @ (self.factors.T @ v))
        return out


@dataclass(frozen=True)
class SpectrumSummary:
    """Eigenvalue statistics of a discretized self-adjoint operator.

    Eigenvalues below -tol_kernel count as negative, those within
    tol_kernel of zero as numerical kernel.  ``ess_edge`` = omega/c is
    the bottom of the continuous spectrum (line topology only).
    ``lowest``, the five lowest eigenvalues, is computed on first read
    by ``find_lowest``: the counts do not need it.
    """

    n_neg: int
    z_kernel: int
    ess_edge: Optional[float]
    tol_kernel: float
    find_lowest: Callable[[], tuple] = field(repr=False, compare=False)

    @cached_property
    def lowest(self) -> tuple:
        return self.find_lowest()


@dataclass(frozen=True)
class FloquetResult:
    theta: float
    omega_at: float
    ybar_end: tuple          # (ybar(2*pi), ybar'(2*pi))
    phi_dd0: float


# ----------------------------------------------------------------------
# differentiation matrices
# ----------------------------------------------------------------------

def fourier_diff_matrix(grid: Grid, order: int) -> np.ndarray:
    """Exact spectral differentiation matrix on a torus grid.

    Circulant with first column ifft((i m)^order); the Nyquist mode is
    zeroed for odd orders.
    """
    m = wavenumbers(grid)
    symbol = (1j * m) ** order
    if order % 2:
        symbol[grid.n // 2] = 0.0
    col = np.fft.ifft(symbol).real
    return circulant(col)


# ----------------------------------------------------------------------
# operator assembly
# ----------------------------------------------------------------------

def assemble(kind: str, p: wv.Profile) -> OperatorMatrix:
    """Symmetric discretization of L_Re or L_Im: dense on the torus, a
    band plus the coupling factors on the line."""
    if kind not in OPERATOR_KINDS:
        raise UsageError(f"operator kind must be one of {OPERATOR_KINDS}")
    r, w, c = p.params.r, p.params.omega, p.params.c
    coeff = 1.0 if kind == "L_Im" else 2 * r + 1.0
    potential = w - coeff * p.phi ** (2 * r)
    if p.grid.topology == "torus":
        M = -c * fourier_diff_matrix(p.grid, 2) + np.diag(potential)
        if kind == "L_Re":
            M = M + 2.0 * np.outer(p.d2phi, p.grid.weights * p.d2phi)
        return OperatorMatrix(kind, (M + M.T) / 2, p, c, r)
    h = p.grid.spacing
    stencil = np.array([-30.0, 16.0, -1.0]) / (12 * h * h)
    band = np.zeros((3, p.grid.n))
    band[0] = -c * stencil[0] + potential
    band[1, :-1] = -c * stencil[1]
    band[2, :-2] = -c * stencil[2]
    factors = None
    if kind == "L_Re":
        factors = np.column_stack((p.d2phi, p.grid.weights * p.d2phi))
    return OperatorMatrix(kind, None, p, c, r, band, factors)


# ----------------------------------------------------------------------
# eigenvalue counting
# ----------------------------------------------------------------------

def _kernel_tol(op: OperatorMatrix) -> float:
    """The default kernel tolerance, 1e-6 * max_ij |M_ij| of the full
    matrix, which separates the true kernel (residual ~1e-8) from the
    lowest strictly positive eigenvalue by several orders.

    On the line each entry is rounded as in the symmetrized dense
    matrix (M0 + M0^T)/2, M0 = A + 2 phi'' (w phi'')^T, so that the
    tolerance does not depend on the storage.  The entries off the band
    come from the coupling alone and are scanned only when their bound
    2 max|phi''| max|w phi''| reaches the largest band entry.
    """
    if op.band is None:
        return 1e-6 * float(np.max(np.abs(op.matrix)))
    if op.factors is None:
        return 1e-6 * float(np.max(np.abs(op.band)))
    d2, wd2 = op.factors.T
    kd, n = op.band.shape[0] - 1, op.band.shape[1]
    top = 0.0
    for k in range(kd + 1):
        b = op.band[k, :n - k]
        entries = ((b + 2.0 * (d2[k:] * wd2[:n - k]))
                   + (b + 2.0 * (d2[:n - k] * wd2[k:]))) / 2
        top = max(top, float(np.max(np.abs(entries))))
    if 2.0 * (1 + 1e-12) * np.max(np.abs(d2)) * np.max(np.abs(wd2)) >= top:
        # as large as the band: scan the coupling row by row
        for i in range(n):
            entries = (2.0 * (d2[i] * wd2) + 2.0 * (d2 * wd2[i])) / 2
            entries[max(i - kd, 0):i + kd + 1] = 0.0
            top = max(top, float(np.max(np.abs(entries))))
    return 1e-6 * top


def _dense_summary(m: np.ndarray, tol: float) -> SpectrumSummary:
    """Counts of the dense symmetric ``m``, a torus operator or its even
    block (no essential spectrum)."""
    w, _ = symmetric_eigen(m)
    return SpectrumSummary(int(np.sum(w < -tol)), int(np.sum(np.abs(w) <= tol)),
                           None, tol, lambda: tuple(w[:5]))


def _inertia(band: np.ndarray, factors: Optional[np.ndarray],
             a: np.ndarray, s: float) -> tuple[int, int]:
    """Numbers of eigenvalues below and above ``s`` of A + U C U^T, with
    A in lower band storage and U = ``factors`` (None: no coupling).

    ``a`` holds every eigenvalue of A at or below ``s``.  By Haynsworth
    additivity, In(A + U C U^T - s) = In(A - s) + In(S) - In(-C), with
    S = -C - U^T (A - s)^-1 U and In(-C) = (1 below, 1 above).
    """
    m = band.shape[1]
    below, above = int(np.sum(a < s)), m - int(np.sum(a <= s))
    if factors is None:
        return below, above
    kd = band.shape[0] - 1
    shifted = np.zeros((2 * kd + 1, m))
    for k in range(kd + 1):
        shifted[kd - k, k:] = shifted[kd + k, :m - k] = band[k, :m - k]
    shifted[kd] -= s
    x = solve_banded((kd, kd), shifted, factors, overwrite_ab=True)
    w, _ = symmetric_eigen(-SWAP - factors.T @ x)
    return below + int(np.sum(w < 0)) - 1, above + int(np.sum(w > 0)) - 1


def _lowest(band: np.ndarray, factors: Optional[np.ndarray]) -> tuple:
    """The five lowest eigenvalues of A + U C U^T.

    With U C U^T = p p^T - q q^T (p, q = (u1 +- u2)/sqrt(2)), the k-th
    eigenvalue lies between a_(k-1) and a_(k+1), the neighbours of the
    k-th eigenvalue of A (a_0 = a_1 - |q|^2), and is bisected there on
    the count of eigenvalues below the midpoint.
    """
    a = eig_banded(band, lower=True, eigvals_only=True, select="i",
                   select_range=(0, 5))
    if factors is None:
        return tuple(a[:5])
    q = (factors[:, 0] - factors[:, 1]) / math.sqrt(2)
    edges = np.concatenate(([a[0] - q @ q], a))
    width = 1e-14 * float(np.max(np.abs(band)))
    lowest = []
    for k in range(1, 6):
        lo, hi = edges[k - 1], edges[k + 1]
        while hi - lo > width:
            mid = (lo + hi) / 2
            if _inertia(band, factors, a, mid)[0] >= k:
                hi = mid
            else:
                lo = mid
        lowest.append((lo + hi) / 2)
    return tuple(lowest)


def _banded_summary(band: np.ndarray, factors: Optional[np.ndarray],
                    op: OperatorMatrix, tol: float) -> SpectrumSummary:
    """Counts of A + U C U^T (``op`` or its even block) at -tol and +tol
    from one banded eigensolve up to +tol and one solve per shift."""
    a = eig_banded(band, lower=True, eigvals_only=True, select="v",
                   select_range=(-np.inf, tol))
    n_neg = _inertia(band, factors, a, -tol)[0]
    n_at_most_tol = band.shape[1] - _inertia(band, factors, a, tol)[1]
    return SpectrumSummary(n_neg, n_at_most_tol - n_neg,
                           op.profile.params.omega / op.c, tol,
                           lambda: _lowest(band, factors))


def spectrum(op: OperatorMatrix, tol_kernel: float = None) -> SpectrumSummary:
    """Negative and kernel counts; the default ``tol_kernel`` is
    1e-6 * max_ij |M_ij|."""
    tol = _kernel_tol(op) if tol_kernel is None else tol_kernel
    if op.band is None:
        return _dense_summary(op.matrix, tol)
    return _banded_summary(op.band, op.factors, op, tol)


def spectrum_confirmed(kind: str, params: wv.WaveParams,
                       n: Optional[int] = None,
                       tol_kernel: Optional[float] = None
                       ) -> tuple[SpectrumSummary, SpectrumSummary]:
    """Spectrum with a resolution-doubling confirmation pass.

    The doubled grid is counted against the *same absolute* kernel
    tolerance as the base grid.  Re-deriving the default tolerance from
    the doubled matrix would let it grow with max_ij |M_ij| ~ n^2 and
    eventually swallow the smallest genuine eigenvalue; freezing it
    makes the pass an actual confirmation.
    """
    prof = wv.sample_profile(params, wv.default_grid(params, n))
    base = spectrum(assemble(kind, prof), tol_kernel)
    prof2 = wv.sample_profile(params, wv.default_grid(params, 2 * prof.grid.n))
    doubled = spectrum(assemble(kind, prof2), base.tol_kernel)
    return base, doubled


def block_summary(s_re: SpectrumSummary, s_im: SpectrumSummary) -> SpectrumSummary:
    """Counts for the block-diagonal operator diag(L_Re, L_Im)."""
    ess = s_re.ess_edge if s_re.ess_edge is not None else s_im.ess_edge
    return SpectrumSummary(s_re.n_neg + s_im.n_neg,
                           s_re.z_kernel + s_im.z_kernel,
                           ess, max(s_re.tol_kernel, s_im.tol_kernel),
                           lambda: tuple(sorted(s_re.lowest + s_im.lowest)[:5]))


# ----------------------------------------------------------------------
# even-subspace restriction
# ----------------------------------------------------------------------

def _fold(band: np.ndarray, factors: Optional[np.ndarray]):
    """The even block B^T A B, in lower band storage, and B^T U, for the
    orthonormal basis b_j = (e_j + e_(n-1-j))/sqrt(2), j < n/2, of even
    line vectors.

    Entry (i, j) of the block is (A_ij + A_(n-1-i, n-1-j) + A_(i, n-1-j)
    + A_(n-1-i, j))/2.  The last two terms reach across the midpoint
    only where n-1-i-j <= kd, so the block keeps the bandwidth kd.
    """
    kd, n = band.shape[0] - 1, band.shape[1]
    m = n // 2
    even = np.zeros((kd + 1, m))
    for k in range(kd + 1):
        even[k, :m - k] = (band[k, :m - k] + band[k, m:n - k][::-1]) / 2
    for j in range(m - kd, m):
        for i in range(j, m):
            t = n - 1 - i - j
            if t <= kd:
                even[i - j, j] += (band[t, i] + band[t, j]) / 2
    if factors is not None:
        factors = (factors[:m] + factors[::-1][:m]) * math.sqrt(0.5)
    return even, factors


def spectrum_even(op: OperatorMatrix, tol_kernel: float = None) -> SpectrumSummary:
    """Spectrum of the operator restricted to even functions.

    Realizes the stability analysis in the even subspace, where the
    translation symmetry (and with it the phi' kernel direction) is
    dropped.  On the line the band and the factors are folded at the
    midpoint (``_fold``).  On the torus the block is built by index:
    node j mirrors to -j mod n, and over the nodes j <= mirror(j) the
    block is d_i d_j (M + MR + RM + RMR), with d = 1/2 at a node that is
    its own mirror and 1/sqrt(2) elsewhere (B^T M B for the orthonormal
    basis B of even grid vectors).  The default kernel tolerance is that
    of the full matrix.
    """
    tol = _kernel_tol(op) if tol_kernel is None else tol_kernel
    if op.band is not None:
        return _banded_summary(*_fold(op.band, op.factors), op, tol)
    n = op.profile.grid.n
    half = np.arange(n // 2 + 1)
    mirror = -half % n
    d = np.where(half == mirror, 0.5, math.sqrt(0.5))
    rows = op.matrix[half] + op.matrix[mirror]
    return _dense_summary(d[:, None] * (rows[:, half] + rows[:, mirror]) * d, tol)


# ----------------------------------------------------------------------
# Floquet constant
# ----------------------------------------------------------------------

def floquet_theta(p: wv.Profile) -> FloquetResult:
    """theta from the monodromy of the Hill equation

        ybar'' = q ybar,  q = (omega - (2r+1) phi^2r) / c,
        ybar(0) = -1/phi''(0),  ybar'(0) = 0,

    over one period of the closed-form profile.  With y1 = phi' odd and
    ybar even, theta = ybar'(2*pi)/phi''(0); the normalization makes the
    Wronskian of {phi', ybar} identically one.

    The monodromy M is a product of 4th-order Magnus propagators on
    MAGNUS_CELLS uniform cells of width h.  On each cell q is sampled at
    the left and right Gauss nodes (q1, q2, mean qbar), and

        Omega = [[d, h], [h qbar, -d]],  d = sqrt(3) h^2 (q1 - q2) / 12,

    squares to s^2 I with s^2 = d^2 + h^2 qbar, so that exp(Omega) =
    cosh(s) I + sinh(s)/s Omega.  The cell propagators are multiplied
    pairwise in batches, and (ybar, ybar')(2*pi) = M[:, 0] ybar(0).
    """
    if p.grid.topology != "torus":
        raise UsageError("the Floquet constant is defined for periodic waves")
    phi_dd0 = float(wv.profile_values(p.params, 0.0)[2])
    scale = float(np.max(np.abs(p.d2phi)))
    if abs(phi_dd0) < 1e-12 * max(scale, 1.0):
        raise DegenerateProfileError("phi''(0) vanishes, theta is undefined")
    r, w, c = p.params.r, p.params.omega, p.params.c
    h = TWO_PI / MAGNUS_CELLS
    gauss = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3) / 6
    x = h * (np.arange(MAGNUS_CELLS)[:, None] + gauss)
    phi = wv.profile_values(p.params, x)[0]
    q = (w - (2 * r + 1) * phi ** (2 * r)) / c
    qbar = (q[:, 0] + q[:, 1]) / 2
    d = math.sqrt(3) * h * h * (q[:, 0] - q[:, 1]) / 12
    s = np.sqrt(d * d + h * h * qbar + 0j)
    cosh_s = np.cosh(s).real
    # sinh(s)/s as sin(i s)/(i s): real for either sign of s^2, 1 at s = 0
    sinhc_s = np.sinc(1j * s / math.pi).real
    cells = np.empty((MAGNUS_CELLS, 2, 2))
    cells[:, 0, 0] = cosh_s + sinhc_s * d
    cells[:, 0, 1] = sinhc_s * h
    cells[:, 1, 0] = sinhc_s * h * qbar
    cells[:, 1, 1] = cosh_s - sinhc_s * d
    while len(cells) > 1:
        cells = cells[1::2] @ cells[0::2]
    ybar_end = cells[0, :, 0] * (-1.0 / phi_dd0)
    theta = float(ybar_end[1] / phi_dd0)
    return FloquetResult(theta, w, tuple(ybar_end), phi_dd0)


# ----------------------------------------------------------------------
# isoinertia sweep
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SweepEntry:
    k: float
    theta: float
    n_neg: int
    z_kernel: int


@dataclass(frozen=True)
class SweepReport:
    family: str
    r: int
    entries: tuple
    anomalies: tuple

    @property
    def consistent(self) -> bool:
        return not self.anomalies


def isoinertia_sweep(family: str, r: int, k_grid, n: int = 256) -> SweepReport:
    """theta sign and (n_neg, z_kernel) of L_Re along a modulus grid.

    Both are constant along the branch (the operator inertia does not
    change with the frequency); any change is reported as an anomaly.
    The kernel tolerance is 1e-9 * max_ij |M_ij| here, tighter than the
    general default: on the torus the discretization is spectrally
    exact, and near k -> 0 the genuine third eigenvalue closes on the
    kernel like k^4 (3.9e-5 at k = 0.1), so the coarser tolerance would
    absorb it.  Simplicity of the kernel is certified by theta != 0.
    """
    if family == wv.SOLITARY:
        raise UsageError("isoinertia sweeps run over the periodic families")
    entries = []
    anomalies = []
    for k in k_grid:
        params = wv.solve_family(family, r, float(k), validate=False)
        prof = wv.sample_profile(params, wv.default_grid(params, n))
        th = floquet_theta(prof).theta
        op = assemble("L_Re", prof)
        summ = spectrum(op, tol_kernel=1e-9 * float(np.max(np.abs(op.matrix))))
        entries.append(SweepEntry(float(k), th, summ.n_neg, summ.z_kernel))
    first = entries[0]
    for e in entries[1:]:
        if np.sign(e.theta) != np.sign(first.theta):
            anomalies.append(f"theta sign change at k={e.k}")
        if (e.n_neg, e.z_kernel) != (first.n_neg, first.z_kernel):
            anomalies.append(f"inertia change at k={e.k}")
    return SweepReport(family, r, tuple(entries), tuple(anomalies))


# ----------------------------------------------------------------------
# the eta equation (derivative of the wave in omega)
# ----------------------------------------------------------------------

def _params_at_omega(p: wv.Profile, target_omega: float) -> wv.WaveParams:
    family, r, k = p.params.family, p.params.r, p.params.k
    if family == wv.SOLITARY:
        return wv.solve_solitary(r, target_omega, validate=False)
    if family == wv.PERIODIC_DN:
        solver = lambda kk: wv.solve_periodic_r1(kk, validate=False)
        k_max = wv.dn_modulus_limit() - 1e-6
    else:
        solver = lambda kk: wv.solve_periodic_r2(kk, validate=False)
        k_max = 1 - 1e-6
    # domega/dk can be shallow; widen the inversion bracket until the
    # target frequency is enclosed
    width = 0.02
    while True:
        lo, hi = max(1e-3, k - width), min(k_max, k + width)
        f_lo = solver(lo).omega - target_omega
        f_hi = solver(hi).omega - target_omega
        if f_lo * f_hi <= 0:
            break
        if lo == 1e-3 and hi == k_max:
            raise DomainError(
                f"frequency {target_omega} not attained on the modulus range")
        width *= 2
    k_target = find_root_bracketed(
        lambda kk: solver(kk).omega - target_omega, lo, hi, tol=1e-13)
    return solver(k_target)


def finite_difference_eta(p: wv.Profile, h: float) -> np.ndarray:
    """eta = -d(phi)/d(omega) by central differences of re-solved waves,
    sampled on the profile's own grid.  Periodic neighbours are found by
    inverting omega(k)."""
    pp = _params_at_omega(p, p.params.omega + h)
    pm = _params_at_omega(p, p.params.omega - h)
    phi_p = wv.profile_values(pp, p.grid.nodes)[0]
    phi_m = wv.profile_values(pm, p.grid.nodes)[0]
    return -(phi_p - phi_m) / (2 * h)


def eta_equation_check(p: wv.Profile, d_omega_step: float = None) -> float:
    """Relative residual ||L_Re eta - phi|| / ||phi|| with the
    finite-difference eta; first order in the step by construction."""
    h = d_omega_step if d_omega_step is not None else 1e-4 * p.params.omega
    if h <= 0:
        raise DomainError("step must be positive")
    eta = finite_difference_eta(p, h)
    resid = assemble("L_Re", p).apply(eta) - p.phi
    num = math.sqrt(quadrature(p.grid, resid ** 2))
    den = math.sqrt(quadrature(p.grid, p.phi ** 2))
    return num / den
