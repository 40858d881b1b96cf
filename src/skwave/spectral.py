"""Discretization and spectrum of the operators linearizing the flow
around a standing wave.

The linearization block-diagonalizes into two Schrodinger-type
operators acting on the real and imaginary perturbation parts:

    L_Re = -c d^2/dx^2 + omega - (2r+1) phi^2r  - 2 (phi', d/dx .) phi''
    L_Im = -c d^2/dx^2 + omega - phi^2r

with c = 1 + int phi'^2.  Integrating the nonlocal coupling by parts,
(phi', P') = -(phi'', P), turns it into the symmetric rank-one form
+2 (phi'', .) phi'' that is assembled against the quadrature weights.

Torus grids use the exact Fourier differentiation matrices; line grids
use 4th-order centered differences with Dirichlet (decay) truncation.
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
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import circulant

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


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    kind: str
    matrix: np.ndarray
    profile: wv.Profile
    c: float
    r: int


@dataclass(frozen=True)
class SpectrumSummary:
    """Eigenvalue statistics of a discretized self-adjoint operator.

    Eigenvalues below -tol_kernel count as negative, those within
    tol_kernel of zero as numerical kernel.  ``ess_edge`` = omega/c is
    the bottom of the continuous spectrum (line topology only).
    """

    n_neg: int
    z_kernel: int
    lowest: tuple
    ess_edge: Optional[float]
    tol_kernel: float


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


def fd4_diff_matrix(grid: Grid, order: int) -> np.ndarray:
    """4th-order centered differences on the line, zero beyond [-L, L]."""
    h = grid.spacing
    n = grid.n
    if order == 1:
        stencil = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12 * h)
    elif order == 2:
        stencil = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12 * h * h)
    else:
        raise UsageError("only first and second derivatives are provided")
    D = np.zeros((n, n))
    for off, s in zip(range(-2, 3), stencil):
        if s != 0.0:
            D += s * np.eye(n, k=off)
    return D


def diff_matrix(grid: Grid, order: int) -> np.ndarray:
    if grid.topology == "torus":
        return fourier_diff_matrix(grid, order)
    return fd4_diff_matrix(grid, order)


# ----------------------------------------------------------------------
# operator assembly
# ----------------------------------------------------------------------

def assemble(kind: str, p: wv.Profile) -> OperatorMatrix:
    """Dense symmetric discretization of L_Re or L_Im."""
    if kind not in OPERATOR_KINDS:
        raise UsageError(f"operator kind must be one of {OPERATOR_KINDS}")
    r, w, c = p.params.r, p.params.omega, p.params.c
    D2 = diff_matrix(p.grid, 2)
    coeff = 1.0 if kind == "L_Im" else 2 * r + 1.0
    M = -c * D2 + np.diag(w - coeff * p.phi ** (2 * r))
    if kind == "L_Re":
        M = M + 2.0 * np.outer(p.d2phi, p.grid.weights * p.d2phi)
    return OperatorMatrix(kind, (M + M.T) / 2, p, c, r)


# ----------------------------------------------------------------------
# eigenvalue counting
# ----------------------------------------------------------------------

def _summary(w: np.ndarray, op: OperatorMatrix,
             tol_kernel: Optional[float]) -> SpectrumSummary:
    """Negative and kernel counts of the eigenvalues ``w`` of ``op`` or of
    its even restriction.

    ``tol_kernel`` is an absolute threshold; the default is
    1e-6 * ||M||_inf of the full matrix, which separates the true kernel
    (residual ~1e-8) from the lowest strictly positive eigenvalue by
    several orders.
    """
    if tol_kernel is None:
        tol_kernel = 1e-6 * float(np.max(np.abs(op.matrix)))
    n_neg = int(np.sum(w < -tol_kernel))
    z_kernel = int(np.sum(np.abs(w) <= tol_kernel))
    ess = None
    if op.profile.grid.topology == "line":
        ess = op.profile.params.omega / op.c
    return SpectrumSummary(n_neg, z_kernel, tuple(w[:5]), ess, tol_kernel)


def spectrum(op: OperatorMatrix, tol_kernel: float = None) -> SpectrumSummary:
    """Full symmetric eigensolve with negative/kernel counting; the
    default ``tol_kernel`` is 1e-6 * ||M||_inf."""
    w, _ = symmetric_eigen(op.matrix)
    return _summary(w, op, tol_kernel)


def spectrum_confirmed(kind: str, params: wv.WaveParams,
                       n: Optional[int] = None,
                       tol_kernel: Optional[float] = None
                       ) -> tuple[SpectrumSummary, SpectrumSummary]:
    """Spectrum with a resolution-doubling confirmation pass.

    The doubled grid is counted against the *same absolute* kernel
    tolerance as the base grid.  Re-deriving the default tolerance from
    the doubled matrix would let it grow with ||M||_inf ~ n^2 on
    spectral grids and eventually swallow the smallest genuine
    eigenvalue; freezing it makes the pass an actual confirmation.
    """
    prof = wv.sample_profile(params, wv.default_grid(params, n))
    base = spectrum(assemble(kind, prof), tol_kernel)
    prof2 = wv.sample_profile(params, wv.default_grid(params, 2 * prof.grid.n))
    doubled = spectrum(assemble(kind, prof2), base.tol_kernel)
    return base, doubled


def block_summary(s_re: SpectrumSummary, s_im: SpectrumSummary) -> SpectrumSummary:
    """Counts for the block-diagonal operator diag(L_Re, L_Im)."""
    lowest = tuple(sorted(s_re.lowest + s_im.lowest)[:5])
    ess = s_re.ess_edge if s_re.ess_edge is not None else s_im.ess_edge
    return SpectrumSummary(s_re.n_neg + s_im.n_neg,
                           s_re.z_kernel + s_im.z_kernel,
                           lowest, ess,
                           max(s_re.tol_kernel, s_im.tol_kernel))


# ----------------------------------------------------------------------
# even-subspace restriction
# ----------------------------------------------------------------------

def spectrum_even(op: OperatorMatrix, tol_kernel: float = None) -> SpectrumSummary:
    """Spectrum of the operator restricted to even functions.

    Realizes the stability analysis in the even subspace, where the
    translation symmetry (and with it the phi' kernel direction) is
    dropped.  The block is built by index: node j mirrors to n-1-j on
    the line and to -j mod n on the torus, and over the nodes
    j <= mirror(j) the block is d_i d_j (M + MR + RM + RMR), with
    d = 1/2 at a node that is its own mirror and 1/sqrt(2) elsewhere
    (B^T M B for the orthonormal basis B of even grid vectors).  The
    default kernel tolerance is that of the full matrix.
    """
    n = op.profile.grid.n
    if op.profile.grid.topology == "torus":
        half = np.arange(n // 2 + 1)
        mirror = -half % n
    else:
        half = np.arange(n // 2)
        mirror = n - 1 - half
    d = np.where(half == mirror, 0.5, math.sqrt(0.5))
    # rows stays bound through the eigensolve: freeing it first changes
    # the heap layout the next n = 2048 eigensolve meets and raises the
    # peak RSS of a line verdict pass by 24 MiB
    rows = op.matrix[half] + op.matrix[mirror]
    Me = d[:, None] * (rows[:, half] + rows[:, mirror]) * d
    w, _ = symmetric_eigen(Me)
    return _summary(w, op, tol_kernel)


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
    The kernel tolerance is 1e-9 * ||M||_inf here, tighter than the
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
    M = assemble("L_Re", p).matrix
    resid = M @ eta - p.phi
    num = math.sqrt(quadrature(p.grid, resid ** 2))
    den = math.sqrt(quadrature(p.grid, p.phi ** 2))
    return num / den
