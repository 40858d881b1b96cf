"""Discretization and spectrum of the operators linearizing the flow
around a standing wave.

The linearization block-diagonalizes into two Schrodinger-type
operators acting on the real and imaginary perturbation parts:

    L_Re = -c d^2/dx^2 + omega - (2r+1) phi^2r  - 2 (phi', d/dx .) phi''
    L_Im = -c d^2/dx^2 + omega - phi^2r

with c = 1 + int phi'^2.  Integrating the nonlocal coupling by parts,
(phi', P') = -(phi'', P), turns it into the form +2 (phi'', .) phi''.
Assembled against the quadrature weights w and symmetrized it is the
positive rank-one term g g^T, g = sqrt(2 w) phi''.

Both operators commute with the reflection x -> -x, for the waves are
even, so each splits into an even and an odd block, and its inertia is
the sum of theirs.  Both domains store a banded A in LAPACK band storage
plus the coupling's factors in parity coordinates: an orthonormal basis
of even grid vectors, then one of odd vectors, so that A's two blocks
sit side by side with no entry between them.  Line grids use 4th-order
centered differences with Dirichlet (decay) truncation, in the fold
(e_j +- e_(n-1-j))/sqrt(2) of the exactly antisymmetric nodes: each
block is pentadiagonal, and the stencil crosses the midpoint only in
its last two rows.  Torus grids use Fourier collocation in the
orthonormal basis cos(m x), m = n/2..0, then sin(m x), m = n/2-1..1, of
grid vectors (Fourier-Hill; Deconinck & Kutz, J. Comput. Phys. 219,
2006): -c d^2 is diagonal, the potential couples modes through its
decaying cosine coefficients, and the blocks are a banded cosine and a
banded sine block.  The coupling's column g is even, so g g^T lies in
the even block: each operator is the direct sum of a coupled even block
A_e + g_e g_e^T and a bare banded odd block A_o.
The negative direction of L_Re and the kernel phi of L_Im are even, the
kernel phi' of L_Re is odd.

Counts come from inertia alone, block by block, and an operator's
counts are its two blocks' added.  Each block is ordered far end first
(the line fold from the outer edge, the trig basis from the highest
mode), where A - s is coercive: -c d^2 is positive
semidefinite and omega - coeff phi^2r > 0 in the tails, and c m^2
dominates the high modes.  So at each shift s = +tol, -tol banded
Cholesky of A_b - s runs from the far end until it fails, and the
positive definite far part it certifies is eliminated; the core left,
0-3 rows on a resolved grid, is counted by Sylvester's law from its own
eigenvalues, by the LAPACK driver dsbev (spectrum slicing; Parlett, The
Symmetric Eigenvalue Problem, 1980).  n_below(s) is nondecreasing in s,
so a block with every eigenvalue above +tol has none below -tol, and
its -tol count is not run.  For the coupled even block Haynsworth
additivity over the bordered matrix [[A_e - s, g_e], [g_e^T, -1]] adds
the sign of a scalar Schur complement,

    n_below(A_e + g_e g_e^T, s) = n_below(A_e, s) + n_neg(sigma) - 1,
    sigma = -1 - g_e^T (A_e - s)^-1 g_e,

which is formed on the core from g_e reduced by the same elimination.
A count costs the far part's banded Cholesky, O(m kd^2), its coupling
to the core, O(kd^3) for B on the factor's trailing triangle and
O(m kd) for the coupling's column, and the core's
eigensolve; the Schur growth of the elimination is its witness.  The
torus band's gather indices, masks and scales depend on (n, kd) alone
and are tabulated once per grid size.  No dense n x n matrix is formed,
and the even-subspace counts are the even block's own.
``lowest(op)`` is bisected on the secular count #(a < s) + n_neg(sigma)
- 1, a the six lowest eigenvalues of A_e and sigma formed over the whole
block by one banded solve: no Cholesky split, no Schur growth (Golub,
1973).

The kernel is not guessed: the theory proves L_Re phi' = 0 and
L_Im phi = 0, so the discretized kernel is counted within the residual
rho = ||M v|| / ||v|| of that vector v, in the operator's orthonormal
coordinates.  Eigenvalues below -rho count as negative and those in
[-rho, rho] as kernel.  A genuine eigenvalue within rho raises the
kernel count, and the verdict turns inconclusive.  Each operator is
counted once, at its own rho, on the first read of its ``summary``;
``spectrum`` and ``spectrum_even`` both return from that one count.

The kernel position of the periodic Hill operator is certified by the
Floquet constant theta: the second fundamental solution satisfies
y2(x + 2*pi) = y2(x) + theta*y1(x), and zero is a simple eigenvalue of
the Hill operator iff theta != 0 (Magnus & Winkler, Hill's Equation,
1966; Neves, J. Dyn. Diff. Equat. 21, 2009).  theta is the family's
closed form: y2 is the derivative of the wave along its family at fixed
omega and c, and its jump over a period is a combination of K, dK/dk
and the family's parameter derivatives, written on the AGM chain of K
so that nothing cancels at small k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from scipy.linalg import eig_banded
from scipy.linalg.blas import dsbmv
from scipy.linalg.lapack import dgbsv, dpbtrf, dsbev, dtbtrs

from . import elliptic as el
from . import waves as wv
from .errors import DegenerateProfileError, UsageError
from .kernel import Grid, symmetric_eigen

OPERATOR_KINDS = ("L_Re", "L_Im")

GROWTH_BOUND = 100.0    # largest Schur growth G a split count accepts
LOWEST_WIDTH = 1e-14    # bisection width of ``lowest``, per max|band|


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """L_Re or L_Im discretized on a profile's grid, as A + g g^T.

    ``band`` holds A = -c D2 + diag(omega - coeff phi^2r) in LAPACK lower
    band storage (band[k, j] = A[j + k, j]), and ``factors`` holds the
    column g = sqrt(2 w) phi'' (n x 1) for L_Re and is None for L_Im,
    both in the parity coordinates of ``_to_parity``: the even block's
    columns, then the odd block's, each far end first.
    """

    kind: str
    profile: wv.Profile
    band: np.ndarray
    factors: Optional[np.ndarray] = None

    @cached_property
    def summary(self) -> SpectrumSummary:
        """The operator's counts at the residual rho of its proven kernel
        vector, made on first read."""
        return _count(self, _kernel_residual(self))

    def apply(self, v: np.ndarray) -> np.ndarray:
        """The operator applied to the grid vector ``v``."""
        x = _product(self, _to_parity(self.profile.grid, v))
        m = x.size // 2          # back to the nodes by _to_parity^T
        if self.profile.grid.topology == "line":
            even, odd = x[:m], x[m:]
            return np.concatenate((even + odd, (even - odd)[::-1])) * math.sqrt(0.5)
        vh = x[m::-1] - 1j * np.pad(x[:m:-1], 1)
        return np.fft.irfft(vh / _trig_scale(x.size), x.size)


def _product(op: OperatorMatrix, x: np.ndarray) -> np.ndarray:
    """(A + g g^T) x in the operator's own coordinates: BLAS ``dsbmv``
    on the stored lower band, plus the coupling's column."""
    out = dsbmv(op.band.shape[0] - 1, 1.0, op.band, x, lower=1)
    if op.factors is not None:
        out += op.factors @ (op.factors.T @ x)
    return out


@dataclass(frozen=True)
class SpectrumSummary:
    """Eigenvalue counts of a discretized self-adjoint operator, made
    once per operator at its own tolerance.

    Eigenvalues below -tol_kernel count as negative, those within
    tol_kernel of zero as numerical kernel; tol_kernel is the residual
    rho of the operator's proven kernel vector.  ``ess_edge`` = omega/c
    is the bottom of the continuous spectrum (line topology only).
    ``lowest_width``, LOWEST_WIDTH max|band|, is the bisection width
    that bounds the error of ``lowest(op)``, the five lowest
    eigenvalues, which the counts do not need; digits below it are
    roundoff.  A summary of a whole operator carries those of its even
    and odd reflection-parity blocks, counted at the same tolerance.  A
    block's summary carries the witnesses of its split counts
    (``_inertia``) at +tol and -tol, the larger of the two, or those at
    +tol alone where that count settles the block: the core rows
    eigensolved and the Schur growth.
    """

    n_neg: int
    z_kernel: int
    ess_edge: Optional[float]
    tol_kernel: float
    lowest_width: float
    core_rows: Optional[int] = None
    growth: Optional[float] = None
    even: Optional[SpectrumSummary] = None
    odd: Optional[SpectrumSummary] = None


@dataclass(frozen=True)
class FloquetResult:
    theta: float
    omega_at: float
    ybar_end: tuple          # (ybar(2*pi), ybar'(2*pi)), ybar(2*pi) = ybar(0)
    phi_dd0: float


# ----------------------------------------------------------------------
# operator assembly
# ----------------------------------------------------------------------

def _trig_scale(n: int) -> np.ndarray:
    """alpha_m = 1/|cos(m x)| on the grid, m = 0..n/2 (and 1/|sin(m x)|)."""
    alpha = np.full(n // 2 + 1, math.sqrt(2.0 / n))
    alpha[[0, -1]] = 1.0 / math.sqrt(n)
    return alpha


def _to_parity(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Coordinates of the grid vector(s) ``v`` (axis 0) in the orthonormal
    basis of the operators: an even block, then an odd block, each far
    end first.  On the line it is the fold (e_j +- e_(n-1-j))/sqrt(2),
    j = 0..n/2-1 from the outer edge; on the torus alpha_m cos(m x_j),
    m = n/2..0, then alpha_m sin(m x_j), m = n/2-1..1, x_j = 2*pi*j/n."""
    if grid.topology == "line":
        m = len(v) // 2
        near, far = v[:m], v[:m - 1:-1]
        return np.concatenate((near + far, near - far)) * math.sqrt(0.5)
    vh = (np.fft.rfft(v, axis=0).T * _trig_scale(len(v))).T
    return np.concatenate((vh.real[::-1], -vh.imag[-2:0:-1]))


def _potential(kind: str, p: wv.Profile) -> np.ndarray:
    """omega - coeff phi^2r, coeff = 2r+1 for L_Re and 1 for L_Im."""
    coeff = 1.0 if kind == "L_Im" else 2 * p.params.r + 1.0
    return p.params.omega - coeff * p.phi ** (2 * p.params.r)


_TRIG_TABLES: dict = {}     # n -> the tables of ``_trig_band`` on n nodes


def _trig_tables(n: int, rows: int) -> tuple:
    """The lag-by-column tables of the cosine block of ``_trig_band`` on n
    nodes, at least ``rows`` lags: with q = n/2 - j - k the lower mode of
    column j at lag k, the gather index (2q + k) mod n, the mask q >= 0
    and the scale alpha_(n/2-j) alpha_q.  They depend on (n, kd) alone,
    so one set is kept per n, sized to the most lags asked for so far
    and rebuilt when a wider band asks for more: at n = 512 and kd = 38
    (dnq, k = 0.97) it is 39 x 257 entries of 17 bytes, 170 KB.  The
    index is intp, for numpy gathers an int32 index three times slower."""
    tables = _TRIG_TABLES.get(n)
    if tables is None or len(tables[0]) < rows:
        half, alpha = n // 2, _trig_scale(n)
        k = np.arange(rows)[:, None]
        j = np.arange(half + 1)
        q = half - j - k          # entries with q < 0 are masked out
        tables = (2 * q + k) % n, q >= 0, alpha[half - j] * alpha[q]
        _TRIG_TABLES[n] = tables
    return tables


def _trig_band(p: wv.Profile, potential: np.ndarray, c: float) -> np.ndarray:
    """-c d^2 + diag(potential) in the trig basis of ``_to_parity``, in lower
    band storage: the cosine block (columns 0..n/2), then the sine block.

    With V = fft(potential).real, the entry of modes q + k and q is
    alpha_(q+k) alpha_q (V_k + V_((2q+k) mod n))/2 in the cosine block and
    (V_k - V_(2q+k))/n in the sine block, plus c m^2 on the diagonal; far
    end first, band[k, j] holds it for q = n/2 - j - k, j counted in the
    block (from 1 in the sine block).  Coefficients at or below 1e-14 n
    (|omega| + max|omega - potential|), the roundoff floor of the
    potential's terms, are dropped; the largest lag left is the bandwidth.
    The cosine-sine entries, the potential's odd part, are roundoff.
    The indices, masks and scales come from ``_trig_tables``, kept per
    n: the sine block's are the cosine block's shifted, for its column j
    has the index of cosine column j and the mask (q > 0) of column j + 1.
    """
    n, half = p.grid.n, p.grid.n // 2
    w = p.params.omega
    vh = np.fft.fft(potential).real
    lag = np.minimum(np.arange(n), n - np.arange(n))
    floor = 1e-14 * n * (abs(w) + float(np.max(np.abs(w - potential))))
    kd = int(np.max(lag[np.abs(vh) > floor], initial=0))
    vh[lag > kd] = 0.0
    index, mask, scale = (t[:kd + 1] for t in _trig_tables(n, kd + 1))
    vk, v2q = vh[:kd + 1, None], vh[index]
    band = np.zeros((kd + 1, n))
    band[:, :half + 1] = np.where(mask, scale * (vk + v2q) / 2, 0.0)
    band[:, half + 1:] = np.where(mask[:, 2:], ((vk - v2q) / n)[:, 1:-1], 0.0)
    m2 = c * p.grid.m2[half::-1]
    band[0, :half + 1] += m2
    band[0, half + 1:] += m2[1:-1]
    return band


def assemble(kind: str, p: wv.Profile) -> OperatorMatrix:
    """Symmetric discretization of L_Re or L_Im: a band plus the
    coupling's column, in the parity coordinates of ``_to_parity``.  On
    the line the folded stencil crosses the midpoint only in each
    block's last two rows: +-d1 on the diagonal, +-d2 below it (+ in
    the even block, - in the odd one)."""
    if kind not in OPERATOR_KINDS:
        raise UsageError(f"operator kind must be one of {OPERATOR_KINDS}")
    c, potential = p.params.c, _potential(kind, p)
    factors = None if kind == "L_Im" else _to_parity(
        p.grid, (np.sqrt(2 * p.grid.weights) * p.d2phi)[:, None])
    if p.grid.topology == "torus":
        return OperatorMatrix(kind, p, _trig_band(p, potential, c), factors)
    m, h = p.grid.n // 2, p.grid.spacing
    d0, d1, d2 = -c * (np.array([-30.0, 16.0, -1.0]) / (12 * h * h))
    block = np.zeros((3, m))
    block[0] = d0 + potential[:m]     # the potential is even
    block[1, :-1], block[2, :-2] = d1, d2
    band = np.hstack((block, block))
    band[0, [m - 1, -1]] += (d1, -d1)
    band[1, [m - 2, -2]] += (d2, -d2)
    return OperatorMatrix(kind, p, band, factors)


# ----------------------------------------------------------------------
# eigenvalue counting by reflection-parity blocks
# ----------------------------------------------------------------------

def _kernel_residual(op: OperatorMatrix) -> float:
    """rho = ||M v|| / ||v|| for the kernel vector the theory proves,
    v = phi' for L_Re and v = phi for L_Im.  M is symmetric, so some
    eigenvalue of M lies within rho of zero (Parlett, The Symmetric
    Eigenvalue Problem, 1980): the discretization's own kernel error,
    taken in the operator's coordinates, in which the norms are nodal."""
    p = op.profile
    v = _to_parity(p.grid, p.dphi if op.kind == "L_Re" else p.phi)
    mv = _product(op, v)
    return math.sqrt(mv @ mv) / math.sqrt(v @ v)


def _parity_blocks(op: OperatorMatrix) -> tuple:
    """The (band, factors) pairs of the even and the odd block of ``op``:
    its band split after the even columns, n/2 fold vectors on the line
    and cos(m x), m = 0..n/2, on the torus.  No entry joins the blocks.

    The coupling's column g = sqrt(2 w) phi'' is even, so it belongs to
    the even block, and the odd block is its band alone: g's odd rows
    are exactly zero on the line, roundoff (below 1e-12 max|g|) on the
    torus.
    """
    m = op.profile.grid.n // 2 + (op.profile.grid.topology == "torus")
    factors = None if op.factors is None else op.factors[:m]
    return (op.band[:, :m], factors), (op.band[:, m:], None)


def _banded_solver(band: np.ndarray) -> Callable:
    """``solve(rhs, s=0)``: the symmetric band in lower band storage, less
    s on its diagonal, inverted on ``rhs`` by LU with partial pivoting
    (LAPACK ``dgbsv``).  Its storage, kd rows of room for the pivoting
    and then the 2 kd + 1 diagonals, is built once; a call shifts a copy."""
    kd, m = band.shape[0] - 1, band.shape[1]
    lu = np.zeros((3 * kd + 1, m))
    for k in range(kd + 1):
        lu[2 * kd - k, k:] = lu[2 * kd + k, :m - k] = band[k, :m - k]

    def solve(rhs: np.ndarray, s: float = 0.0) -> np.ndarray:
        shifted = lu.copy()
        shifted[2 * kd] = band[0] - s
        x, info = dgbsv(kd, kd, shifted, rhs, overwrite_ab=1)[2:]
        if info:
            raise np.linalg.LinAlgError("singular shifted block")
        return x
    return solve


def _far_correction(band: np.ndarray, chol: np.ndarray,
                    factors: Optional[np.ndarray], p: int, norm: float) -> tuple:
    """[B, g_f]^T F^-1 [B, g_f] for the far part F, the leading ``p``
    rows of the block, with ``chol`` the Cholesky factor L of F or of a
    larger leading part; B holds F's coupling columns into the first
    t = min(kd, m - p) core rows, and g_f the far rows of the coupling.
    It is Y^T Y with Y = L^-1 [B, g_f].  B is zero above F's last kd
    rows, lo = max(p - kd, 0) on, and forward substitution keeps those
    zeros, so L^-1 B is solved on L's trailing triangle, rows lo..p-1,
    in O(kd^3) rather than O(p kd^2); g_f takes all of L.  Both solves
    fill one zeroed array of p rows, whose product is the full-length
    solve's bit for bit.  Returns the matrix and its growth G, its
    max|.| per ``norm``, the block's max|band|."""
    kd, m = band.shape[0] - 1, band.shape[1]
    t = min(kd, m - p)
    width = t if factors is None else t + 1
    if not (p and width):
        return np.zeros((width, width)), 0.0
    y = np.zeros((p, width))
    if t:   # dtbtrs aborts the interpreter on zero right-hand sides
        # B[i, j] = A[p + j, i], stored at band[p + j - i, i]
        lo = max(p - kd, 0)
        i = np.arange(lo, p)[:, None]
        d = p + np.arange(t) - i
        b = np.where(d <= kd, band[np.minimum(d, kd), i], 0.0)
        y[lo:, :t] = dtbtrs(chol[:min(kd, p - lo - 1) + 1, lo:p], b, uplo="L")[0]
    if factors is not None:
        y[:, t:] = dtbtrs(chol[:, :p], factors[:p], uplo="L")[0]
    corr = y.T @ y
    return corr, float(np.abs(corr).max(initial=0.0)) / norm


def _inertia(band: np.ndarray, factors: Optional[np.ndarray], s: float,
             norm: float) -> tuple[int, int, int, float]:
    """Numbers of eigenvalues of the block A_b + g_b g_b^T below and
    above the shift ``s``, with the core rows and the Schur growth.

    The block is ordered far end first, where A_b - s is coercive.
    Cholesky (``dpbtrf``) of A_b - s fails at row k (k = m + 1 if it
    does not fail), so its leading k - 1 rows are positive definite, and
    that call's leading k - 1 columns hold their factor (it stops at the
    failing pivot).  The far part F is the leading p = k - 1
    rows, or k - 2 where F's last pivot is so small that G exceeds
    GROWTH_BOUND (one row back the pivot is not small).  Eliminating F
    from the bordered matrix [[A_b - s, g_b], [g_b^T, -1]] leaves the
    core bordered matrix [[K', w], [w^T, -1 - g_f^T F^-1 g_f]] of the
    trailing m - p rows: K' is the core's band less B^T F^-1 B in its
    leading kd x kd corner, with B the coupling columns of F, and w is
    g_b's core rows less B^T F^-1 g_f, g_f its far rows.  Haynsworth
    additivity gives

        In(A_b + g_b g_b^T - s) = (0, p) + In(K') + In(sigma) - In(-1),
        sigma = -1 - g_f^T F^-1 g_f - w^T K'^-1 w,  In(-1) = (1 below, 0),

    where In(K') is counted by Sylvester's law from the core's
    eigenvalues, by LAPACK ``dsbev`` on its band, and In(sigma) - In(-1)
    by ``_haynsworth``; the last two terms enter only with coupling.

    The count is the exact inertia of a matrix within about
    eps (1 + G) max|band| of A_b - s, with the Schur growth
    G = max|[B, g_f]^T F^-1 [B, g_f]| / max|band|.  G above
    GROWTH_BOUND at both splits raises LinAlgError instead
    of counting.  ``norm`` is the block's max|band|, which ``_count``
    takes once for both shifts.
    """
    m = band.shape[1]
    kd = min(band.shape[0] - 1, m - 1)
    band = band[:kd + 1]
    shifted = band.copy()
    shifted[0] -= s
    chol, info = dpbtrf(shifted, lower=1)
    p = m if info == 0 else info - 1
    corr, growth = _far_correction(band, chol, factors, p, norm)
    if growth > GROWTH_BOUND and p:
        p -= 1
        corr, growth = _far_correction(band, chol, factors, p, norm)
    if growth > GROWTH_BOUND:
        raise np.linalg.LinAlgError(
            f"Schur growth {growth:.3g} of the far part exceeds "
            f"{GROWTH_BOUND:g}: the count at {s:.3g} is not certified")
    q, t = m - p, min(kd, m - p)
    core = shifted[:min(kd, q - 1) + 1, p:]
    for k in range(t):
        core[k, :t - k] -= corr.diagonal(-k)[:t - k]
    a = np.empty(0)
    if q:
        # the coupled block solves with the core below, and a 1-row core
        # is contiguous both ways: dsbev must not overwrite it
        a, _, info = dsbev(core, compute_v=0, lower=1, overwrite_ab=0)
        if info:
            raise np.linalg.LinAlgError(f"dsbev failed on the core (info {info})")
    below, above = int(np.count_nonzero(a < 0)), m - int(np.count_nonzero(a <= 0))
    if factors is None:
        return below, above, q, growth
    w = factors[p:].copy()
    w[:t] -= corr[:t, t:]
    schur = -1.0 - corr[t:, t:]
    if q:
        schur = schur - w.T @ _banded_solver(core)(w)
    more_below, more_above = _haynsworth(schur)
    return below + more_below, above + more_above, q, growth


def _haynsworth(schur: np.ndarray) -> tuple[int, int]:
    """In(sigma) - In(-1), the eigenvalues that the coupling adds below
    and above the shift, for the 1x1 Schur complement sigma = ``schur``.

    Its one eigenvalue is sigma itself, but it is read through
    ``kernel.symmetric_eigen``: ``perfbench`` selects that call's spans
    (``kernel.symmetric_eigen_ms.*`` and ``_calls``) as the count's
    eigensolves.  A sign test replaces the call once the benchmark
    stops selecting it."""
    e, _ = symmetric_eigen(schur)
    return int(np.count_nonzero(e < 0)) - 1, int(np.count_nonzero(e > 0))


def _lowest(band: np.ndarray, factors: Optional[np.ndarray],
            width: float) -> tuple:
    """The five lowest eigenvalues of the block A_b + g_b g_b^T.

    Without coupling they are A_b's own.  The coupling is a positive
    rank-one update, so the k-th eigenvalue interlaces a_k <= l_k <=
    a_(k+1) with those of A_b (Weyl), and is bisected there to ``width``
    on the secular count #(a < s) + n_neg(sigma) - 1, sigma = -1 -
    g_b^T (A_b - s)^-1 g_b, of eigenvalues below the midpoint s (Golub,
    SIAM Rev. 15, 1973).  Where g_b is orthogonal to an eigenvector of
    A_b, its eigenvalue stays one of A_b + g_b g_b^T, at an end of a
    bracket, and the bisection closes on that end.
    No midpoint lies above a_6, so the six lowest of A_b give
    In(A_b - s) to every count, and sigma takes one banded solve, whose
    storage each midpoint only shifts: no Cholesky split, and no Schur
    growth.  Each midpoint lies strictly between two neighbouring
    eigenvalues of A_b, so A_b - s is not singular there.
    """
    a = eig_banded(band, lower=True, eigvals_only=True, select="i",
                   select_range=(0, 5))
    if factors is None:
        return tuple(a[:5])
    solve = _banded_solver(band[:band.shape[1]])
    lowest = []
    for k in range(1, 6):
        lo, hi = a[k - 1], a[k]
        while hi - lo > width:
            mid = (lo + hi) / 2
            schur = -1.0 - factors.T @ solve(factors, mid)
            if np.sum(a < mid) + _haynsworth(schur)[0] >= k:
                hi = mid
            else:
                lo = mid
        lowest.append((lo + hi) / 2)
    return tuple(lowest)


def _count(op: OperatorMatrix, tol: float) -> SpectrumSummary:
    """Counts of ``op`` and of its even and odd blocks at the shifts
    +-``tol``: one split count (``_inertia``) per block at +tol, then one
    at -tol unless the first found every eigenvalue above +tol; n_below
    is nondecreasing in the shift, so n_neg = 0 then (of the four blocks,
    L_Im's odd one).  The operator's counts are the two blocks' added,
    as for any direct sum.  A block's ``core_rows`` and ``growth`` are
    the larger of its counts'.  Nothing is cached here: ``op.summary``
    keeps the count at the operator's own residual.
    """
    params = op.profile.params
    ess = params.omega / params.c if op.profile.grid.topology == "line" else None

    def summary(band, factors) -> SpectrumSummary:
        norm = float(np.abs(band).max())
        _, above, core_hi, g_hi = _inertia(band, factors, tol, norm)
        n_neg, core_lo, g_lo = 0, core_hi, g_hi
        if above < band.shape[1]:
            n_neg, _, core_lo, g_lo = _inertia(band, factors, -tol, norm)
        return SpectrumSummary(n_neg, band.shape[1] - above - n_neg, ess, tol,
                               LOWEST_WIDTH * norm, max(core_lo, core_hi),
                               max(g_lo, g_hi))

    even, odd = (summary(*block) for block in _parity_blocks(op))
    return replace(block_summary(even, odd), even=even, odd=odd)


def spectrum(op: OperatorMatrix) -> SpectrumSummary:
    """Negative and kernel counts of ``op`` at the residual rho of its
    proven kernel vector, with those of its even and odd blocks as
    ``even`` and ``odd``."""
    return op.summary


def spectrum_even(op: OperatorMatrix) -> SpectrumSummary:
    """Spectrum of the operator restricted to even functions: the even
    block of ``spectrum``, counted at the full operator's tolerance, and
    read without a solve where ``spectrum`` has counted ``op`` before.

    Realizes the stability analysis in the even subspace, where the
    translation symmetry (and with it the phi' kernel direction, which
    is odd) is dropped.
    """
    return op.summary.even


def lowest(op: OperatorMatrix) -> tuple:
    """The five lowest eigenvalues of ``op``: those of its even and odd
    blocks merged, each bisected to its block's ``lowest_width``."""
    s = op.summary
    even, odd = (_lowest(band, factors, block.lowest_width)
                 for (band, factors), block in zip(_parity_blocks(op), (s.even, s.odd)))
    return tuple(sorted(even + odd)[:5])


def spectrum_confirmed(kind: str, params: wv.WaveParams,
                       n: Optional[int] = None
                       ) -> tuple[SpectrumSummary, SpectrumSummary]:
    """Spectrum with a resolution-doubling confirmation pass.

    Each pass counts at its own residual rho: the truncation error on
    the line, roundoff on the torus.
    """
    prof = wv.sample_profile(params, wv.default_grid(params, n))
    prof2 = wv.sample_profile(params, wv.default_grid(params, 2 * prof.grid.n))
    return spectrum(assemble(kind, prof)), spectrum(assemble(kind, prof2))


def block_summary(s_re: SpectrumSummary, s_im: SpectrumSummary) -> SpectrumSummary:
    """Counts for a block-diagonal operator, diag(L_Re, L_Im) or the
    direct sum of an operator's even and odd blocks."""
    ess = s_re.ess_edge if s_re.ess_edge is not None else s_im.ess_edge
    return SpectrumSummary(s_re.n_neg + s_im.n_neg,
                           s_re.z_kernel + s_im.z_kernel,
                           ess, max(s_re.tol_kernel, s_im.tol_kernel),
                           max(s_re.lowest_width, s_im.lowest_width))


# ----------------------------------------------------------------------
# Floquet constant
# ----------------------------------------------------------------------

def floquet_theta(p: wv.Profile) -> FloquetResult:
    """theta of the Hill equation

        ybar'' = q ybar,  q = (omega - (2r+1) phi^2r) / c,
        ybar(0) = -1/phi''(0),  ybar'(0) = 0,

    over one period of the profile.  With y1 = phi' odd and ybar even,
    theta = ybar'(2*pi)/phi''(0); the normalization makes the Wronskian
    of {phi', ybar} identically one.

    theta is the family's closed form.  With omega and c held fixed,
    phi = a psi(b x; k) is an even solution of the stationary equation
    for every k, so y = d phi / dk solves the Hill equation, with
    y(0) = a' and y'(0) = 0: ybar = -y / (a' phi''(0)), and y(2*pi) =
    y(0).  At x = 2*pi, where b x = 2K, psi_u vanishes for every k, so
    its k-derivative is -2 K' psi''(0), and

        theta = K (H - k t / k'^2) / (g_a a^2 b^3 psi''(0)),

    with g_a = a'/a, t = sum_(n>=1) 2^n c_n^2 / k^2 over the AGM chain
    of K (DLMF 19.8.5, so that 2 K'/K = k/k'^2 - k t / k'^2) and
    H = k/k'^2 - 2 b'/b, written so that nothing cancels at small k:
    - dn: b^2 = omega / (c (2 - k^2)) and a^2 = 2 c b^2, so g_a = b'/b =
      k / (2 - k^2), H = k^3 / (k'^2 (2 - k^2)) and psi''(0) = -k^2;
    - dn quotient: a^4 = omega / kappa(k) and b^2 = mu(k) a^4 / c, so
      g_a = -kappa'/(4 kappa), H = k^3 (2 - k^2) / (k'^2 s^2) with
      s^2 = k^4 - k^2 + 1, and psi''(0) = alpha - k^2.
    phi''(0) enters ybar(0) and ybar'(2*pi) = theta phi''(0) only.
    """
    if p.grid.topology != "torus":
        raise UsageError("the Floquet constant is defined for periodic waves")
    phi_dd0 = float(wv.profile_values(p.params, 0.0)[2])
    scale = float(np.max(np.abs(p.d2phi)))
    if abs(phi_dd0) < 1e-12 * max(scale, 1.0):
        raise DegenerateProfileError("phi''(0) vanishes, theta is undefined")
    params = p.params
    k, k2 = params.k, params.k ** 2
    K, t = el._K_and_t(k)
    kp2 = (1 - k) * (1 + k)
    if params.family == wv.PERIODIC_DN:
        g_a, H, psi_dd0 = k / (2 - k2), k ** 3 / (kp2 * (2 - k2)), -k2
    else:
        s = math.sqrt(k2 * k2 - k2 + 1)
        g_a = -wv._dnq_kappa_log_derivative(k) / 4
        H, psi_dd0 = k ** 3 * (2 - k2) / (kp2 * s * s), params.alpha - k2
    theta = (K * (H - k * t / kp2)
             / (g_a * params.a ** 2 * params.b ** 3 * psi_dd0))
    return FloquetResult(theta, params.omega, (-1.0 / phi_dd0, theta * phi_dd0),
                         phi_dd0)
