import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import circulant
from scipy.linalg.lapack import dpbtrf

from skwave import functionals as fn
from skwave import spectral as sp
from skwave import waves as wv
from skwave.errors import DegenerateProfileError, DomainError, UsageError
from skwave.kernel import Grid, quadrature, symmetric_eigen, wavenumbers

from oracles import (eta_equation_check, far_correction_full,
                     finite_difference_eta, fold_loop, inertia_eig_banded,
                     isoinertia_sweep, nodal_line_band,
                     quadratic_form_LRe, reverse_loop, state_derivative,
                     theta_closed_form_mp, theta_full_period, trig_band_loop)


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------

def apply_lre_direct(p: wv.Profile, P: np.ndarray) -> np.ndarray:
    """Unsymmetrized node-wise action of L_Re, kept as a matvec oracle:
    -c P'' - 2 (phi', P') phi'' + omega P - (2r+1) phi^2r P."""
    P = np.asarray(P, dtype=float)
    dP = state_derivative(p.grid, P)
    d2P = state_derivative(p.grid, dP)
    r, w, c = p.params.r, p.params.omega, p.params.c
    cross = quadrature(p.grid, p.dphi * dP)
    return -c * d2P - 2 * cross * p.d2phi + w * P - (2 * r + 1) * p.phi ** (2 * r) * P


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


def assemble_dense_oracle(kind: str, p: wv.Profile) -> np.ndarray:
    """The dense symmetrized nodal matrix, assembled as a full n x n
    differentiation matrix (Fourier collocation on the torus, 4th-order
    differences on the line) plus the outer product of the coupling."""
    r, w, c = p.params.r, p.params.omega, p.params.c
    if p.grid.topology == "torus":
        D2 = fourier_diff_matrix(p.grid, 2)
    else:
        D2 = fd4_diff_matrix(p.grid, 2)
    coeff = 1.0 if kind == "L_Im" else 2 * r + 1.0
    M = -c * D2 + np.diag(w - coeff * p.phi ** (2 * r))
    if kind == "L_Re":
        M = M + 2.0 * np.outer(p.d2phi, p.grid.weights * p.d2phi)
    return (M + M.T) / 2


def trig_basis(grid: Grid) -> np.ndarray:
    """Orthonormal columns cos(m x), m = n/2 down to 0, then sin(m x),
    m = n/2-1 down to 1, on the nodes x_j = 2*pi*j/n of a torus grid:
    the far-first order of ``spectral._to_parity``."""
    n = grid.n
    x = 2 * np.pi * np.arange(n) / n
    m = np.arange(n // 2 + 1)
    C = np.cos(np.outer(x, m)) * math.sqrt(2 / n)
    C[:, [0, -1]] /= math.sqrt(2)
    S = np.sin(np.outer(x, m[1:-1])) * math.sqrt(2 / n)
    return np.hstack((C[:, ::-1], S[:, ::-1]))


def coordinate_matrix(op: sp.OperatorMatrix) -> np.ndarray:
    """The dense matrix of an assembled operator in its own coordinates
    (the line fold, or the trig basis), built from the band and the
    coupling's column."""
    n = op.band.shape[1]
    M = np.diag(op.band[0])
    for k in range(1, op.band.shape[0]):
        M += np.diag(op.band[k, :n - k], -k) + np.diag(op.band[k, :n - k], k)
    if op.factors is not None:
        M += op.factors @ op.factors.T
    return M


def dense(op: sp.OperatorMatrix) -> np.ndarray:
    """The dense nodal matrix of an assembled operator, mapped back from
    its parity coordinates: on the line the fold, the even and then the
    odd restriction, each from the outer edge; on the torus the trig
    basis."""
    grid = op.profile.grid
    if grid.topology == "torus":
        Q = trig_basis(grid)
    else:
        Q = np.hstack((even_restriction(grid), odd_restriction(grid)))
    return Q @ coordinate_matrix(op) @ Q.T


def even_restriction(grid: Grid) -> np.ndarray:
    """Orthonormal basis (columns) of the even-reflection subspace."""
    n = grid.n
    if grid.topology == "torus":
        ncols = n // 2 + 1
        B = np.zeros((n, ncols))
        B[0, 0] = 1.0
        B[n // 2, n // 2] = 1.0
        for j in range(1, n // 2):
            B[j, j] = B[n - j, j] = 1 / math.sqrt(2)
        return B
    ncols = n // 2
    B = np.zeros((n, ncols))
    for j in range(ncols):
        B[j, j] = B[n - 1 - j, j] = 1 / math.sqrt(2)
    return B


def odd_restriction(grid: Grid) -> np.ndarray:
    """Orthonormal basis (columns) of the odd-reflection subspace."""
    n = grid.n
    if grid.topology == "torus":
        B = np.zeros((n, n // 2 - 1))
        for j in range(1, n // 2):
            B[j, j - 1], B[n - j, j - 1] = 1 / math.sqrt(2), -1 / math.sqrt(2)
        return B
    B = np.zeros((n, n // 2))
    for j in range(n // 2):
        B[j, j], B[n - 1 - j, j] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    return B


# ----------------------------------------------------------------------
# assembly
# ----------------------------------------------------------------------

def test_lre_annihilates_translation_mode(dn_profile, solitary_r1_profile):
    for prof in (dn_profile, solitary_r1_profile):
        M = dense(sp.assemble("L_Re", prof))
        resid = M @ prof.dphi
        scale = np.max(np.abs(M)) * np.max(np.abs(prof.dphi))
        assert np.max(np.abs(resid)) <= 1e-6 * scale


def test_lim_annihilates_phi(dn_profile, solitary_r1_profile):
    for prof in (dn_profile, solitary_r1_profile):
        M = dense(sp.assemble("L_Im", prof))
        resid = M @ prof.phi
        scale = np.max(np.abs(M)) * np.max(np.abs(prof.phi))
        assert np.max(np.abs(resid)) <= 1e-6 * scale


def test_matrix_quadratic_form_matches_functional(dn_profile, rng):
    op = sp.assemble("L_Re", dn_profile)
    g = dn_profile.grid
    for _ in range(20):
        coef = rng.standard_normal(9)
        P = coef[0] + sum(c * np.cos((i + 1) * g.nodes) for i, c in enumerate(coef[1:5]))
        P += sum(c * np.sin((i + 1) * g.nodes) for i, c in enumerate(coef[5:]))
        via_matrix = float(P @ op.apply(P)) * g.weights[0]
        via_form = quadratic_form_LRe(dn_profile, P)
        assert abs(via_matrix - via_form) <= 1e-8 * max(abs(via_form), 1.0)


def test_assembled_lre_matches_direct_action(dn_profile, solitary_r1_profile, rng):
    # validates the symmetric rank-one rewriting of the nonlocal term
    for prof in (dn_profile, solitary_r1_profile):
        g = prof.grid
        if g.topology == "torus":
            P = np.cos(g.nodes) + 0.4 * np.sin(3 * g.nodes)
        else:
            P = np.exp(-g.nodes ** 2 / 6) * (1 + 0.2 * g.nodes)
        lhs = sp.assemble("L_Re", prof).apply(P)
        rhs = apply_lre_direct(prof, P)
        scale = np.max(np.abs(rhs))
        # the direct route squares D1 where the matrix carries D2; on the
        # line the two differ at the h^4 truncation level (~4e-6)
        tol = 1e-8 if g.topology == "torus" else 1e-5
        assert np.max(np.abs(lhs - rhs)) <= tol * max(scale, 1.0)


@pytest.mark.parametrize("family, r, at", [
    ("solitary", 1, 1.0), ("solitary", 2, 0.5), ("solitary", 4, 0.3),
    *((family, r, k) for family, r in (("periodic_dn", 1), ("periodic_dn_quotient", 2))
      for k in (0.1, 0.5, 0.9)),
])
def test_product_and_rho_match_dense_oracle(family, r, at, rng):
    # apply and rho share one banded product in the operator's own
    # coordinates.  apply agrees with the dense nodal matrix within
    # n eps ||M||_2 (observed: ~1 on the line, ~170 at n = 512 on the
    # torus, where forming Q T Q^T densely rounds at that level).  rho is
    # checked in coordinates against the dense band plus coupling, within
    # the componentwise roundoff of both products, 2 n eps || |T| |x| ||
    # with |T| = |A| + |U| C |U|^T (observed: at most 6% of rho, and
    # the two differ by at most 1e-4 of the bound); its nodal reading
    # through apply agrees to 1e-12 (observed: 4e-16)
    params = wv.solve_family(family, r, at)
    prof = wv.sample_profile(params, wv.default_grid(params))
    for kind in sp.OPERATOR_KINDS:
        op = sp.assemble(kind, prof)
        M = dense(op)
        bound = prof.grid.n * np.finfo(float).eps * np.linalg.norm(M, 2)
        v = rng.standard_normal(prof.grid.n)
        assert np.linalg.norm(op.apply(v) - M @ v) <= bound * np.linalg.norm(v), kind
        rho = sp._kernel_residual(op)
        kernel = prof.dphi if kind == "L_Re" else prof.phi
        x = sp._to_parity(prof.grid, kernel)
        size = coordinate_matrix(replace(
            op, band=np.abs(op.band),
            factors=None if op.factors is None else np.abs(op.factors))) @ np.abs(x)
        bound = 2 * prof.grid.n * np.finfo(float).eps * np.linalg.norm(size)
        T = coordinate_matrix(op)
        assert abs(rho * np.linalg.norm(x) - np.linalg.norm(T @ x)) <= bound, kind
        assert bound < 0.1 * rho * np.linalg.norm(x), kind
        nodal = np.linalg.norm(op.apply(kernel)) / np.linalg.norm(kernel)
        assert abs(rho - nodal) <= 1e-12 * rho, kind


def test_assemble_bad_kind(dn_profile):
    with pytest.raises(UsageError):
        sp.assemble("L_zz", dn_profile)


# ----------------------------------------------------------------------
# spectrum counts
# ----------------------------------------------------------------------

def test_counts_dn(dn_profile):
    s_re = sp.spectrum(sp.assemble("L_Re", dn_profile))
    s_im = sp.spectrum(sp.assemble("L_Im", dn_profile))
    assert (s_re.n_neg, s_re.z_kernel) == (1, 1)
    assert (s_im.n_neg, s_im.z_kernel) == (0, 1)
    block = sp.block_summary(s_re, s_im)
    assert (block.n_neg, block.z_kernel) == (1, 2)
    assert s_re.ess_edge is None


def test_each_operator_counted_once(dn_profile):
    # the counts at the operator's own residual are made on first read
    # and kept on the operator; spectrum_even reads their even block,
    # and lowest() bisects without a further count
    op = sp.assemble("L_Re", dn_profile)
    s = sp.spectrum(op)
    assert sp.spectrum(op) is s and sp.spectrum_even(op) is s.even
    assert s.tol_kernel == sp._kernel_residual(op)
    assert sp._count(op, s.tol_kernel) == s
    assert not any(callable(v) for v in vars(s).values())
    assert len(sp.lowest(op)) == 5


def test_counts_solitary(solitary_r1_profile):
    op_re = sp.assemble("L_Re", solitary_r1_profile)
    s_re = sp.spectrum(op_re)
    s_im = sp.spectrum(sp.assemble("L_Im", solitary_r1_profile))
    assert (s_re.n_neg, s_re.z_kernel) == (1, 1)
    assert (s_im.n_neg, s_im.z_kernel) == (0, 1)
    w, c = solitary_r1_profile.params.omega, solitary_r1_profile.params.c
    assert s_re.ess_edge == pytest.approx(w / c)
    # third eigenvalue strictly positive (zero is simple)
    assert sp.lowest(op_re)[2] > s_re.tol_kernel


def test_discrete_spectrum_stable_under_doubling():
    p = wv.solve_solitary(1, 1.0)
    counts = []
    for n in (512, 1024):
        prof = wv.sample_profile(p, wv.default_grid(p, n))
        s = sp.spectrum(sp.assemble("L_Re", prof))
        counts.append((s.n_neg, s.z_kernel))
        # no stray eigenvalues inside the spectral gap below the
        # essential-spectrum edge
        w_all, _ = symmetric_eigen(dense(sp.assemble("L_Re", prof)))
        gap = np.sum((w_all > s.tol_kernel) & (w_all < 0.95 * s.ess_edge))
        assert gap == 0
    assert counts[0] == counts[1] == (1, 1)


def test_spectrum_confirmation_counts_at_own_residual():
    # each pass counts at the residual of phi' on its own grid, which
    # keeps the genuine third eigenvalue (0.031 at k = 0.5) out of the
    # kernel.  rho is taken in trig coordinates; the nodal residual
    # agrees with it to roundoff (observed: 4e-16 relative)
    params = wv.solve_periodic_r1(0.5)
    passes = sp.spectrum_confirmed("L_Re", params)
    for s, n in zip(passes, (512, 1024)):
        prof = wv.sample_profile(params, wv.default_grid(params, n))
        op = sp.assemble("L_Re", prof)
        assert s.tol_kernel == sp._kernel_residual(op)
        nodal = np.linalg.norm(op.apply(prof.dphi)) / np.linalg.norm(prof.dphi)
        assert abs(s.tol_kernel - nodal) <= 1e-12 * nodal
        assert (s.n_neg, s.z_kernel) == (1, 1)


def test_ground_state_positivity(dn_profile, solitary_r1_profile):
    for prof in (dn_profile, solitary_r1_profile):
        w_im, v_im = symmetric_eigen(dense(sp.assemble("L_Im", prof)))
        ground = v_im[:, 0]
        corr = abs(ground @ prof.phi) / (np.linalg.norm(ground)
                                         * np.linalg.norm(prof.phi))
        assert corr > 0.999
        w_re, v_re = symmetric_eigen(dense(sp.assemble("L_Re", prof)))
        assert w_re[0] < 0
        g0 = v_re[:, 0]
        g0 = g0 * np.sign(g0[np.argmax(np.abs(g0))])
        assert np.min(g0) > -1e-8 * np.max(g0)


def test_lim_no_negative_spectrum(dnq_profile, solitary_r4_profile):
    for prof in (dnq_profile, solitary_r4_profile):
        s = sp.spectrum(sp.assemble("L_Im", prof))
        assert s.n_neg == 0
        w, _ = symmetric_eigen(dense(sp.assemble("L_Im", prof)))
        assert w[0] >= -s.tol_kernel


def _dense_counts(w: np.ndarray, tol: float) -> tuple:
    return int(np.sum(w < -tol)), int(np.sum(np.abs(w) <= tol))


def check_counts_against_dense_oracle(prof: wv.Profile, entry_tol: float) -> None:
    """The inertia counts of band + coupling factors equal the counts of
    the dense eigensolve, full and even, at the default tolerance and at
    shifts between the lowest eigenvalues.  The stored operator equals
    the oracle to ``entry_tol`` max|M|, and so does the default
    tolerance the oracle's residual ||M v|| / ||v|| of the kernel
    vector, within which some eigenvalue of M lies."""
    B = even_restriction(prof.grid)
    for kind in sp.OPERATOR_KINDS:
        op = sp.assemble(kind, prof)
        M = assemble_dense_oracle(kind, prof)
        norm = float(np.max(np.abs(M)))
        floor = entry_tol * norm   # also the dense eigensolver's resolution
        assert np.max(np.abs(dense(op) - M)) <= floor
        w = np.linalg.eigvalsh(M)
        w_even = np.linalg.eigvalsh(B.T @ M @ B)
        s = sp.spectrum(op)
        v = prof.dphi if kind == "L_Re" else prof.phi
        rho = np.linalg.norm(M @ v) / np.linalg.norm(v)
        assert abs(s.tol_kernel - rho) <= floor
        assert np.min(np.abs(w)) <= s.tol_kernel + floor
        assert np.max(np.abs(np.array(sp.lowest(op)) - w[:5])) <= 1e-12 * norm
        absw = np.sort(np.abs(w))[:8]
        gaps = (absw[:-1] + absw[1:]) / 2
        shifts = [s.tol_kernel] + [t for t, lo, hi in zip(gaps, absw, absw[1:])
                                   if hi - lo > 1e-6 * norm]
        assert len(shifts) >= 4
        for tol in shifts:
            full = sp._count(op, tol)
            even = full.even
            # a residual tolerance below the oracle's floor is read at it
            t = max(tol, floor)
            assert (full.n_neg, full.z_kernel) == _dense_counts(w, t), (kind, tol)
            assert (even.n_neg, even.z_kernel) == _dense_counts(w_even, t), (kind, tol)


@pytest.mark.parametrize("r, omega", [(1, 1.0), (2, 0.5), (4, 0.3)])
@pytest.mark.parametrize("n", [512, 1024])
def test_banded_counts_match_dense_oracle(r, omega, n):
    p = wv.solve_solitary(r, omega)
    check_counts_against_dense_oracle(wv.sample_profile(p, wv.default_grid(p, n)), 1e-14)


@pytest.mark.parametrize("family, r", [(wv.PERIODIC_DN, 1), (wv.PERIODIC_DNQ, 2)])
@pytest.mark.parametrize("k", [0.1, 0.5, 0.9, 0.97])
@pytest.mark.parametrize("n", [64, 512])
def test_banded_counts_match_dense_oracle_torus(family, r, k, n):
    # the torus band is written in the trig basis; the oracle is the
    # nodal Fourier collocation matrix and its even block B^T M B.  The
    # map back through the n x n basis in ``dense`` rounds at ~n eps.
    # At dnq k = 0.97, n = 64 the bandwidth 32 exceeds the 31 columns of
    # the sine block, which has no coupling to solve.
    p = wv.solve_family(family, r, k)
    check_counts_against_dense_oracle(wv.sample_profile(p, wv.default_grid(p, n)),
                                      2 * n * np.finfo(float).eps)


def dense_block(band: np.ndarray, factors) -> np.ndarray:
    """A parity block A_b + g_b g_b^T, given in lower band storage, as a
    dense matrix."""
    m = band.shape[1]
    M = np.diag(band[0])
    for k in range(1, min(band.shape[0], m)):
        M += np.diag(band[k, :m - k], -k) + np.diag(band[k, :m - k], k)
    if factors is not None:
        M += factors @ factors.T
    return M


SPLIT_CASES = [
    ("solitary", 2, 0.5, 512, (None, 1e-8, 1e-2)),
    # unresolved coarse line grid: the core is most of the block
    ("solitary", 4, 0.3, 256, (None, 1e-8, 1e-2)),
    # the band is wider than the sine block
    ("periodic_dn_quotient", 2, 0.97, 64, (None, 1e-8, 1e-2)),
    ("periodic_dn", 1, 0.5, 128, (None, 1e-8, 1e-2)),
    # a tolerance above the continuum edge: the far part's Cholesky
    # stops after a few dozen rows, and the core is eigensolved
    ("solitary", 4, 0.3, 2048, (1.0,)),
    # kd = 34: LAPACK's blocked dpbtrf (block size 32) factors the far part
    ("periodic_dn_quotient", 2, 0.95, 512, (None,)),
]


@pytest.mark.parametrize("family, r, at, n, tols", SPLIT_CASES)
def test_split_counts_match_dense_blocks(family, r, at, n, tols):
    # every block's split count (Cholesky of the far part, Haynsworth on
    # the core) equals the inertia of the dense block at +-tol
    params = wv.solve_family(family, r, at)
    prof = wv.sample_profile(params, wv.default_grid(params, n))
    for kind in sp.OPERATOR_KINDS:
        op = sp.assemble(kind, prof)
        blocks = sp._parity_blocks(op)
        eigs = [np.linalg.eigvalsh(dense_block(*block)) for block in blocks]
        for tol in tols:
            s = sp.spectrum(op) if tol is None else sp._count(op, tol)
            for summ, w, (band, _) in zip((s.even, s.odd), eigs, blocks):
                # a tolerance below the dense solver's resolution is read at it
                t = max(summ.tol_kernel, 1e-12 * np.max(np.abs(band)))
                assert (summ.n_neg, summ.z_kernel) == _dense_counts(w, t), (kind, tol)
                assert 0 <= summ.growth <= sp.GROWTH_BOUND
                assert 0 <= summ.core_rows <= band.shape[1]
                if tol == 1.0:
                    assert summ.core_rows > band.shape[1] // 2


@pytest.mark.parametrize("family, r, at, n, tols", SPLIT_CASES)
def test_split_count_core_matches_eig_banded_oracle(family, r, at, n, tols):
    # the core eigensolved by LAPACK dsbev counts exactly as the
    # eig_banded count it replaced, on every block at -tol and +tol,
    # unresolved cores included; the +tol count alone settles a block
    # with every eigenvalue above +tol
    params = wv.solve_family(family, r, at)
    prof = wv.sample_profile(params, wv.default_grid(params, n))
    for kind in sp.OPERATOR_KINDS:
        op = sp.assemble(kind, prof)
        for tol in tols:
            s = sp.spectrum(op) if tol is None else sp._count(op, tol)
            for summ, block in zip((s.even, s.odd), sp._parity_blocks(op)):
                shifts = (-s.tol_kernel, s.tol_kernel)
                norm = float(np.abs(block[0]).max())
                lo, hi = (sp._inertia(*block, t, norm) for t in shifts)
                assert (lo, hi) == tuple(inertia_eig_banded(*block, t)
                                         for t in shifts), (kind, tol)
                assert summ.n_neg == lo[0]
                assert summ.z_kernel == block[0].shape[1] - hi[1] - lo[0]
                if hi[1] == block[0].shape[1]:
                    assert lo[0] == 0
                    assert (summ.core_rows, summ.growth) == hi[2:]
                else:
                    assert (summ.core_rows, summ.growth) == (
                        max(lo[2], hi[2]), max(lo[3], hi[3]))


def test_split_count_raises_where_the_core_eigensolve_fails(monkeypatch):
    # a nonzero info from dsbev is a LinAlgError, which a verdict reports
    # as an inconclusive spectrum stage, not a count
    monkeypatch.setattr(sp, "dsbev", lambda ab, **kw: (np.zeros(ab.shape[1]), None, 1))
    with pytest.raises(np.linalg.LinAlgError, match="dsbev"):
        sp._inertia(np.array([[-1.0, 2.0]]), None, 0.0, 2.0)


def test_lowest_on_a_diagonal_band():
    # a diagonal band, as at periodic k -> 0, with its eigenvalues on
    # dyadic points: each bisection runs inside the interlacing bracket
    # [a_k, a_(k+1)], which holds no eigenvalue of A_b, so no midpoint
    # makes the shifted band singular.  The coupling reaches row 0 alone,
    # so l_2..l_5 are a_2..a_5, the lower ends of their brackets
    band = np.array([[-1.0, 0.0, 3.0, 8.0, 15.0, 24.0, 35.0]])
    factors = np.zeros((7, 1))
    factors[0] = 1e-3
    width = sp.LOWEST_WIDTH * 35.0
    w = np.linalg.eigvalsh(dense_block(band, factors))
    assert np.max(np.abs(np.array(sp._lowest(band, factors, width)) - w[:5])) <= width


def test_lowest_at_the_ends_of_the_bracket():
    # g in the span of the eigenvectors v_1, v_2 of A_b leaves a_3..a_6
    # eigenvalues of A_b + g g^T, where 1 + g^T (A_b - s)^-1 g has no
    # pole; the secular count still finds them.  A small g leaves a_k the
    # k-th, the lower end of its bracket [a_k, a_(k+1)]; a large g lifts
    # the 2nd past a_6, so that a_k is the (k-1)-th, the upper end of
    # [a_(k-1), a_k]
    band = np.zeros((2, 10))
    band[0] = np.arange(10.0)
    band[1, :-1] = 0.3
    a, v = np.linalg.eigh(dense_block(band, None))
    width = sp.LOWEST_WIDTH * 9.0
    for gamma, shift in ((0.1, 0), (10.0, 1)):
        g = gamma * (v[:, :1] + v[:, 1:2]) / math.sqrt(2)
        w = np.linalg.eigvalsh(dense_block(band, g))
        assert np.max(np.abs(w[2 - shift:5 - shift] - a[2:5])) <= 1e-12 * 9.0, gamma
        got = np.array(sp._lowest(band, g, width))
        assert np.max(np.abs(got - w[:5])) <= width, gamma


@pytest.mark.parametrize("gamma, drop", [(1.5, 1), (0.5, 0)])
def test_coupling_lifts_an_eigenvalue_past_the_shift(gamma, drop):
    # A_b has one eigenvalue a_1 < 0, its eigenvector v_1 on the core row;
    # g = gamma v_1 moves it to a_1 + gamma^2, past s = 0 where gamma^2 >
    # |a_1|: then sigma = -1 - g^T A_b^-1 g > 0 and the count below s
    # drops by one, and otherwise it stays
    band = np.zeros((2, 8))
    band[0] = [2.0] * 7 + [-1.0]
    band[1, :7] = 0.5
    A = dense_block(band, None)
    a, v = np.linalg.eigh(A)
    g = gamma * v[:, :1]
    assert ((-1.0 - g.T @ np.linalg.solve(A, g)).item() > 0) == bool(drop)
    w = np.linalg.eigvalsh(dense_block(band, g))
    bare = sp._inertia(band, None, 0.0, 2.0)
    below, above, core, growth = sp._inertia(band, g, 0.0, 2.0)
    assert (below, above) == (int(np.sum(w < 0)), int(np.sum(w > 0)))
    assert (below, above) == (bare[0] - drop, bare[1] + drop)
    assert core == 1 and 0 < growth <= sp.GROWTH_BOUND


def test_split_count_guard_trips_on_nearly_singular_far_part():
    # the far rows 0..4 are positive definite, but row 0 is 1e-9 from
    # singular and the coupling reaches it, so g_f^T F^-1 g_f is huge
    band = np.zeros((2, 6))
    band[0] = [1e-9, 2.0, 2.0, 2.0, 2.0, -1.0]
    band[1, 1:5] = 0.5
    factors = np.zeros((6, 1))
    factors[[0, -1]] = 1.0
    with pytest.raises(np.linalg.LinAlgError, match="Schur growth"):
        sp._inertia(band, factors, 0.0, 2.0)
    # without the coupling of that row the same band counts as the dense
    # block does
    factors[0] = 0.0
    w = np.linalg.eigvalsh(dense_block(band, factors))
    below, above, core, growth = sp._inertia(band, factors, 0.0, 2.0)
    assert (below, above) == (int(np.sum(w < 0)), int(np.sum(w > 0)))
    assert core == 1 and growth <= sp.GROWTH_BOUND


# ----------------------------------------------------------------------
# Floquet constant
# ----------------------------------------------------------------------

def test_theta_dn_regression(dn_profile):
    res = sp.floquet_theta(dn_profile)
    assert abs(res.theta - (-18.7569)) < 0.01 * 18.7569
    # frozen high-accuracy value (three independent integrators agree)
    assert res.theta == pytest.approx(-18.756982, abs=2e-4)
    assert abs(res.omega_at - 0.508) < 1e-3
    assert res.theta == res.ybar_end[1] / res.phi_dd0


def test_theta_dnq_regression(dnq_profile):
    # frozen value confirmed by RK45/DOP853/LSODA at rtol 1e-13 and by
    # the translation relation ybar(x+2pi) = ybar(x) + theta*phi'(x);
    # the published reference -40.5143 is 2.7% away from the true value
    # of the exactly constructed wave (see the acceptance suite).
    res = sp.floquet_theta(dnq_profile)
    assert res.theta == pytest.approx(-41.597021, abs=5e-4)
    assert res.theta < 0
    assert abs(res.omega_at - 0.2642) < 1e-3


def test_theta_via_translation_relation(dn_profile):
    # independent extraction of theta: integrate over two periods and
    # fit ybar(x + 2pi) - ybar(x) = theta * phi'(x)
    params = dn_profile.params
    phi_f, dphi_f, d2phi_f = wv.closed_form_evaluators(params)
    c, w, r = params.c, params.omega, params.r
    phidd0 = float(d2phi_f(0.0))

    def rhs(x, y):
        v = float(phi_f(x))
        return np.array([y[1], (w - 3 * v * v) / c * y[0]])

    res = solve_ivp(rhs, (0.0, 4 * np.pi), np.array([-1 / phidd0, 0.0]),
                    method="RK45", rtol=2.5e-12, atol=2.5e-14, dense_output=True)
    xs = np.array([0.7, 1.9, 3.1, 4.4, 5.6])
    vals = (res.sol(xs + 2 * np.pi)[0] - res.sol(xs)[0]) / dphi_f(xs)
    theta_fit = float(np.mean(vals))
    assert np.max(np.abs(vals - theta_fit)) < 1e-6 * abs(theta_fit)
    assert sp.floquet_theta(dn_profile).theta == pytest.approx(theta_fit, rel=1e-6)


def test_wronskian_constant(dn_profile):
    params = dn_profile.params
    phi_f, dphi_f, d2phi_f = wv.closed_form_evaluators(params)
    c, w = params.c, params.omega
    phidd0 = float(d2phi_f(0.0))

    def rhs(x, y):
        v = float(phi_f(x))
        return np.array([y[1], (w - 3 * v * v) / c * y[0]])

    res = solve_ivp(rhs, (0.0, 2 * np.pi), np.array([-1 / phidd0, 0.0]),
                    method="RK45", rtol=2.5e-12, atol=2.5e-14, dense_output=True)
    xs = np.linspace(0.1, 2 * np.pi - 0.1, 9)
    ybar = res.sol(xs)
    wronskian = dphi_f(xs) * ybar[1] - d2phi_f(xs) * ybar[0]
    # normalization ybar(0) = -1/phi''(0) makes it identically one
    assert np.max(np.abs(wronskian - 1.0)) < 1e-8


def theta_dop853(params: wv.WaveParams) -> float:
    """Floquet constant by DOP853 at rtol 1e-13 on the scalar closed form."""
    phi_f, _, d2phi_f = wv.closed_form_evaluators(params)
    phidd0 = float(d2phi_f(0.0))
    r, w, c = params.r, params.omega, params.c

    def rhs(x, y):
        v = float(phi_f(x))
        return np.array([y[1], (w - (2 * r + 1) * v ** (2 * r)) / c * y[0]])

    res = solve_ivp(rhs, (0.0, 2 * np.pi), np.array([-1 / phidd0, 0.0]),
                    method="DOP853", rtol=1e-13, atol=1e-15)
    assert res.success
    return float(res.y[1, -1] / phidd0)


@pytest.mark.parametrize("family, r", [(wv.PERIODIC_DN, 1), (wv.PERIODIC_DNQ, 2)])
def test_floquet_theta_matches_dop853_oracle(family, r):
    # below k = 0.2, phi''(0)^2 ~ k^4 divides a monodromy entry that is
    # small against the propagated state, so both routes lose digits to
    # roundoff there; the oracle itself is off by ~1e-8 at k = 0.05
    bands = [((0.2, 0.35, 0.5, 0.65, 0.8, 0.95), 1e-9), ((0.05, 0.1), 1e-7)]
    for ks, rel in bands:
        for k in ks:
            p = wv.solve_family(family, r, k)
            theta = sp.floquet_theta(wv.sample_profile(p, wv.default_grid(p))).theta
            assert theta == pytest.approx(theta_dop853(p), rel=rel), k


@pytest.mark.parametrize("family, r", [(wv.PERIODIC_DN, 1), (wv.PERIODIC_DNQ, 2)])
def test_half_period_theta_matches_full_product(family, r):
    # the full-period Magnus product is the less accurate side: its
    # theta is off from 50 digits by up to 3.4e-11 at k >= 0.1 and
    # 9.4e-10 at dn k = 0.05
    for k in (0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.85, 0.97):
        p = wv.solve_family(family, r, k)
        prof = wv.sample_profile(p, wv.default_grid(p))
        res = sp.floquet_theta(prof)
        theta, ybar_end = theta_full_period(prof)
        rel = 1e-10 if k >= 0.1 else 1e-8
        assert res.theta == pytest.approx(theta, rel=rel), k
        assert res.ybar_end[1] == pytest.approx(ybar_end[1], rel=rel), k
        # ybar(2 pi) = ybar(0) exactly; the product's is off by up to
        # 1.5e-10 (dnq k = 0.97)
        assert res.ybar_end[0] == pytest.approx(ybar_end[0], rel=10 * rel), k


THETA_GRID = (1e-5, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95)


@pytest.mark.parametrize("family, r, ks", [(wv.PERIODIC_DN, 1, THETA_GRID + (0.97,)),
                                           (wv.PERIODIC_DNQ, 2, THETA_GRID)],
                         ids=["dn", "dnq"])
def test_floquet_theta_matches_mpmath_formula(family, r, ks):
    # the AGM sum keeps the closed form free of cancellation down to the
    # guard on phi''(0); 50 digits absorb the O(k) / O(k^3) cancellation
    # of the oracle's form
    for k in ks:
        p = wv.solve_family(family, r, k, validate=False)
        theta = sp.floquet_theta(wv.sample_profile(p, wv.default_grid(p))).theta
        assert theta == pytest.approx(theta_closed_form_mp(p), rel=1e-13), k


@pytest.mark.parametrize("family, r, limit", [(wv.PERIODIC_DN, 1, -6 * math.pi),
                                              (wv.PERIODIC_DNQ, 2, -40 * math.pi / 3)],
                         ids=["dn", "dnq"])
def test_floquet_theta_small_modulus_limit(family, r, limit):
    # both families shrink to a constant wave as k -> 0, where theta
    # tends to -6 pi (dn) and -40 pi/3 (dn quotient)
    for k in (1e-3, 1e-4, 1e-5):
        p = wv.solve_family(family, r, k, validate=False)
        theta = sp.floquet_theta(wv.sample_profile(p, wv.default_grid(p))).theta
        assert theta == pytest.approx(limit, rel=1e-12), k


def test_theta_degenerate_profile(dn_profile):
    # a vanishing modulus flattens the wave: phi''(0) ~ k^2 -> 0
    params_flat = wv.WaveParams("periodic_dn", 1, dn_profile.params.omega,
                                dn_profile.params.a, dn_profile.params.b,
                                dn_profile.params.c, k=1e-14)
    prof = wv.sample_profile(params_flat, dn_profile.grid)
    with pytest.raises(DegenerateProfileError):
        sp.floquet_theta(prof)


@pytest.mark.parametrize("family, r", [(wv.PERIODIC_DN, 1), (wv.PERIODIC_DNQ, 2)])
def test_theta_does_not_pass_through_phi_dd0(monkeypatch, family, r):
    # theta is the closed form itself: phi''(0) only scales ybar, so a
    # phi''(0) off by a factor that is no power of two leaves theta
    # bitwise unchanged; theta phi''(0) / phi''(0) moved it by an ulp
    # (dnq k = 0.5 at the factors 1.1 and 1.2)
    params = wv.solve_family(family, r, 0.5)
    prof = wv.sample_profile(params, wv.torus_grid(64))
    res = sp.floquet_theta(prof)
    assert res.ybar_end == (-1.0 / res.phi_dd0, res.theta * res.phi_dd0)
    values = wv.profile_values
    for scale in np.linspace(1.1, 1.9, 9):
        monkeypatch.setattr(wv, "profile_values",
                            lambda p, x, s=scale: tuple(np.asarray(values(p, x)) * s))
        scaled = sp.floquet_theta(prof)
        assert scaled.theta == res.theta, scale
        assert scaled.ybar_end[1] == res.theta * scaled.phi_dd0


def test_theta_rejects_line_profile(solitary_r1_profile):
    with pytest.raises(UsageError):
        sp.floquet_theta(solitary_r1_profile)


# ----------------------------------------------------------------------
# isoinertia sweep
# ----------------------------------------------------------------------

def test_isoinertia_dn():
    rep = isoinertia_sweep(wv.PERIODIC_DN, 1, np.linspace(0.1, 0.9, 9))
    assert rep.consistent
    assert all(e.theta < 0 for e in rep.entries)
    assert all((e.n_neg, e.z_kernel) == (1, 1) for e in rep.entries)


def test_isoinertia_dnq():
    rep = isoinertia_sweep(wv.PERIODIC_DNQ, 2, [0.2, 0.5, 0.8])
    assert rep.consistent
    assert all(e.theta < 0 for e in rep.entries)
    assert all(e.z_kernel == 1 for e in rep.entries)


@pytest.mark.parametrize("family, r", [(wv.PERIODIC_DN, 1), (wv.PERIODIC_DNQ, 2)])
def test_isoinertia_down_to_small_modulus(family, r):
    # the default residual tolerance separates the kernel from the third
    # eigenvalue, which closes on it like k^4 as k -> 0
    rep = isoinertia_sweep(family, r, [0.02, 0.05, 0.1, 0.5, 0.95])
    assert rep.consistent
    assert all((e.n_neg, e.z_kernel) == (1, 1) for e in rep.entries)


# ----------------------------------------------------------------------
# even-subspace restriction
# ----------------------------------------------------------------------

def test_even_counts_solitary_r4(solitary_r4_profile):
    e_re = sp.spectrum_even(sp.assemble("L_Re", solitary_r4_profile))
    e_im = sp.spectrum_even(sp.assemble("L_Im", solitary_r4_profile))
    # translation mode phi' is odd and drops out of the kernel
    assert (e_re.n_neg, e_re.z_kernel) == (1, 0)
    assert (e_im.n_neg, e_im.z_kernel) == (0, 1)


def test_even_restriction_orthonormal(dn_profile):
    B = even_restriction(dn_profile.grid)
    assert np.max(np.abs(B.T @ B - np.eye(B.shape[1]))) < 1e-14


def test_spectrum_even_matches_basis_oracle(dn_profile, solitary_r4_profile):
    # the cosine (torus) and folded (line) even blocks agree with
    # B^T M B of the dense oracle
    for prof in (dn_profile, solitary_r4_profile):
        B = even_restriction(prof.grid)
        slack = 2 * prof.grid.n * np.finfo(float).eps
        for kind in ("L_Re", "L_Im"):
            op = sp.assemble(kind, prof)
            M = assemble_dense_oracle(kind, prof)
            norm = float(np.max(np.abs(M)))
            w, _ = symmetric_eigen(B.T @ M @ B)
            # the even count runs at the full operator's residual
            v = prof.dphi if kind == "L_Re" else prof.phi
            rho = np.linalg.norm(M @ v) / np.linalg.norm(v)
            s = sp.spectrum_even(op)
            tol = s.tol_kernel
            assert abs(tol - rho) <= slack * norm
            assert np.min(np.abs(np.linalg.eigvalsh(M))) <= tol + slack * norm
            low = sp._lowest(*sp._parity_blocks(op)[0], s.lowest_width)
            assert np.max(np.abs(np.array(low) - w[:5])) <= 1e-12 * norm
            assert (s.n_neg, s.z_kernel) == (int(np.sum(w < -tol)),
                                             int(np.sum(np.abs(w) <= tol)))


def test_spectrum_odd_matches_basis_oracle(dn_profile, solitary_r4_profile):
    # the sine (torus) and odd-folded (line) blocks agree with B^T M B of
    # the dense oracle on odd vectors
    for prof in (dn_profile, solitary_r4_profile):
        B = odd_restriction(prof.grid)
        for kind in ("L_Re", "L_Im"):
            M = assemble_dense_oracle(kind, prof)
            norm = float(np.max(np.abs(M)))
            w = np.linalg.eigvalsh(B.T @ M @ B)
            op = sp.assemble(kind, prof)
            s = sp.spectrum(op).odd
            tol = s.tol_kernel
            low = sp._lowest(*sp._parity_blocks(op)[1], s.lowest_width)
            assert np.max(np.abs(np.array(low) - w[:5])) <= 1e-12 * norm
            assert (s.n_neg, s.z_kernel) == (int(np.sum(w < -tol)),
                                             int(np.sum(np.abs(w) <= tol)))


def _bits(a: np.ndarray) -> tuple:
    return a.shape, np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("family, r", [(wv.PERIODIC_DN, 1), (wv.PERIODIC_DNQ, 2)])
@pytest.mark.parametrize("k", [1e-7, 1e-3, 0.05, 0.15, 0.5, 0.85, 0.97])
def test_trig_band_and_reverse_match_lag_loops(family, r, k):
    # each far-first block of the trig band is the reversed block of the
    # ascending-order lag loop, bit for bit, from the diagonal band of
    # k = 1e-7 (kd = 0) and kd = 2 at k = 1e-3 down to n = 64 where dnq
    # k = 0.97 is wider than the sine block
    p = wv.solve_family(family, r, k)
    for n in (64, 512, 1024):
        prof = wv.sample_profile(p, wv.default_grid(p, n))
        for kind in sp.OPERATOR_KINDS:
            potential = sp._potential(kind, prof)
            band = sp._trig_band(prof, potential, p.c)
            ascending = trig_band_loop(prof, potential, p.c)
            for block in (slice(None, n // 2 + 1), slice(n // 2 + 1, None)):
                assert _bits(band[:, block]) == _bits(reverse_loop(ascending[:, block]))


def test_trig_tables_are_one_set_per_grid_size(monkeypatch):
    # the tables grow to the widest band asked for on a grid size and
    # stay within 256 KiB for the periodic waves at n = 512
    monkeypatch.setattr(sp, "_TRIG_TABLES", {})
    kd = 0
    for family, r in ((wv.PERIODIC_DN, 1), (wv.PERIODIC_DNQ, 2)):
        for k in (1e-3, 0.1, 0.5, 0.9, 0.97):
            params = wv.solve_family(family, r, k)
            prof = wv.sample_profile(params, wv.default_grid(params, 512))
            for kind in sp.OPERATOR_KINDS:
                kd = max(kd, sp.assemble(kind, prof).band.shape[0] - 1)
    assert list(sp._TRIG_TABLES) == [512]
    tables = sp._TRIG_TABLES[512]
    assert all(len(t) == kd + 1 for t in tables)
    assert sum(t.nbytes for t in tables) < 256 * 1024


@pytest.mark.parametrize("family, r, at, n", [
    ("periodic_dn_quotient", 2, 0.5, 512),
    # the sine block is narrower than the band
    ("periodic_dn_quotient", 2, 0.97, 64),
    ("solitary", 2, 0.5, 256),
])
def test_far_correction_matches_full_length_solve(family, r, at, n):
    # B solved on L's trailing triangle gives the full-length forward
    # substitution's [B, g_f]^T F^-1 [B, g_f] and growth bit for bit: at
    # the split of the count at +-rho, with no core left (p = m, t = 0,
    # the coupling column alone on the even block), with p < kd
    # (lo = 0), at the middle of the block and with no far part (p = 0)
    params = wv.solve_family(family, r, at)
    prof = wv.sample_profile(params, wv.default_grid(params, n))
    for kind in sp.OPERATOR_KINDS:
        op = sp.assemble(kind, prof)
        tol = sp.spectrum(op).tol_kernel
        for band, factors in sp._parity_blocks(op):
            m = band.shape[1]
            kd = min(band.shape[0] - 1, m - 1)
            band = band[:kd + 1]
            norm = float(np.abs(band).max())
            splits = []
            for s in (tol, -tol, -(2 * kd + 2) * norm):
                shifted = band.copy()
                shifted[0] -= s
                chol, info = dpbtrf(shifted, lower=1)
                splits.append((chol, m if info == 0 else info - 1))
            chol = splits[-1][0]      # A_b - s positive definite
            assert splits[-1][1] == m
            splits += [(chol, p) for p in (kd // 2, m // 2, 0)]
            for chol, p in splits:
                got = sp._far_correction(band, chol, factors, p, norm)
                want = far_correction_full(band, chol, factors, p)
                assert _bits(got[0]) == _bits(want[0]), (kind, p)
                assert got[1] == want[1]


@pytest.mark.parametrize("family, r, at", [
    ("solitary", 1, 1.0), ("solitary", 2, 0.5), ("solitary", 4, 0.3),
    ("periodic_dn", 1, 0.5), ("periodic_dn_quotient", 2, 0.5),
])
def test_parity_blocks_add_up(family, r, at):
    # at both resolutions the block counts add up to the operator's; on
    # the line the blocks are bitwise the fold of the nodal band at the
    # midpoint, and L_Re's coupling is exactly even, so its odd rows are
    # zero; on the torus the coupling's sine rows are roundoff, so it
    # sits in the even block
    params = wv.solve_family(family, r, at)
    for n in (None, 2 * wv.default_grid(params).n):
        prof = wv.sample_profile(params, wv.default_grid(params, n))
        for kind in sp.OPERATOR_KINDS:
            op = sp.assemble(kind, prof)
            s = sp.spectrum(op)
            assert s.n_neg == s.even.n_neg + s.odd.n_neg
            assert s.z_kernel == s.even.z_kernel + s.odd.z_kernel
            assert s.even.tol_kernel == s.odd.tol_kernel == s.tol_kernel
            if prof.grid.topology == "line":
                band = nodal_line_band(prof, sp._potential(kind, prof), params.c)
                nodal = None if op.factors is None else (
                    np.sqrt(2 * prof.grid.weights) * prof.d2phi)[:, None]
                for (block, factors), sign in zip(sp._parity_blocks(op), (1.0, -1.0)):
                    want, want_factors = fold_loop(band, nodal if sign > 0 else None, sign)
                    assert _bits(block) == _bits(want)
                    assert (factors is None) == (want_factors is None)
                    assert factors is None or _bits(factors) == _bits(want_factors)
                if op.factors is not None:
                    assert not np.any(op.factors[prof.grid.n // 2:])
            elif op.factors is not None:
                sine = op.factors[prof.grid.n // 2 + 1:]
                assert np.max(np.abs(sine)) <= 1e-12 * np.max(np.abs(op.factors))


# ----------------------------------------------------------------------
# the eta equation
# ----------------------------------------------------------------------

def test_eta_residual_solitary(solitary_r1_profile):
    assert eta_equation_check(solitary_r1_profile, 1e-4) < 1e-3


def test_eta_residual_halves_with_step(solitary_r1_profile):
    # second-order central differences; tested where the h^2 term
    # dominates the 4th-order discretization floor (~6e-6)
    r1 = eta_equation_check(solitary_r1_profile, 0.1)
    r2 = eta_equation_check(solitary_r1_profile, 0.05)
    assert 2.5 < r1 / r2 < 6.0


def test_eta_periodic(dn_profile):
    assert eta_equation_check(dn_profile, 1e-4) < 1e-3


@pytest.mark.parametrize("k", [0.05, 0.1, 0.2])
@pytest.mark.parametrize("family,r", [("periodic_dn", 1),
                                      ("periodic_dn_quotient", 2)],
                         ids=["dn", "dnq"])
def test_eta_small_modulus(family, r, k):
    # omega(k) is flat near k = 0, so a shift in omega can leave the
    # family; eta is differenced along k, with a step that grows like
    # 1/k there (a step of 1e-4 k left 7e-3 at dn k = 0.05)
    params = wv.solve_family(family, r, k)
    prof = wv.sample_profile(params, wv.default_grid(params))
    assert eta_equation_check(prof) < 1e-3


def test_eta_slope_identity(solitary_r1_profile):
    # (L_Re eta, eta) = -slope/2 links the eta equation to the
    # frequency slope of the squared norm
    prof = solitary_r1_profile
    eta = finite_difference_eta(prof, 1e-4)
    lhs = float(eta @ sp.assemble("L_Re", prof).apply(eta) * prof.grid.weights[1])
    slope = fn.vk_slope("solitary", 1, 1.0).slope
    assert abs(lhs - (-slope / 2)) < 0.05 * abs(slope / 2)
