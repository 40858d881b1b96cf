"""Reference computations the tests compare the program against; the
program itself does not call them."""

import json
import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.linalg import eig_banded
from scipy.linalg.lapack import dpbtrf, dtbtrs

from skwave import functionals as fn
from skwave import spectral as sp
from skwave import waves as wv
from skwave.errors import DomainError, UsageError
from skwave.evolution import EvolutionState
from skwave.spectral import assemble, floquet_theta, spectrum
from skwave.kernel import parseval, quadrature, wavenumbers

MAGNUS_CELLS = 2048     # a power of two, for the pairwise product


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


def _phase_allocating(theta: np.ndarray) -> np.ndarray:
    z = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=z.real)
    np.sin(theta, out=z.imag)
    return z


def _half_kick_allocating(u: np.ndarray, r: int, dt: float) -> np.ndarray:
    return _phase_allocating(0.5 * dt * (u.real ** 2 + u.imag ** 2) ** r)


def step_strang_allocating(state: EvolutionState, dt: float) -> EvolutionState:
    """``evolution.step_strang`` as it was before its transforms and
    half-kick worked in place: a fresh array for the kicked state, the
    transform, the inverse transform and each term of the half-kick
    phase.  The in-place step must match it bit for bit."""
    if dt <= 0:
        raise DomainError("dt must be positive")
    grid, r = state.grid, state.r
    m2 = grid.m2
    cached = state.half_kick
    if cached is not None and cached[0] is state.u and cached[1] == dt:
        kick = cached[2]
    else:
        kick = _half_kick_allocating(state.u, r, dt)
    uh = np.fft.fft(state.u * kick)
    c = 1.0 + parseval(grid, m2, uh)
    # m^2 is even in m and m[-j] = -m[j] exactly, so the propagator over
    # the n/2 + 1 distinct values, mirrored, is the full one bit for bit
    h = grid.n // 2 + 1
    prop = _phase_allocating((-c * dt) * m2[:h])
    uh[:h] *= prop
    uh[h:] *= prop[h - 2:0:-1]
    u = np.fft.ifft(uh)
    kick = _half_kick_allocating(u, r, dt)
    u *= kick
    u.flags.writeable = False
    new = EvolutionState(u, state.t + dt, r, grid)
    new.half_kick = (u, dt, kick)
    return new


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


def trig_band_where(p: wv.Profile, potential: np.ndarray, c: float) -> np.ndarray:
    """``spectral._trig_band`` with each block's entries masked by
    ``np.where`` from the gather index, the mask q >= 0 and the scale
    alpha_(n/2-j) alpha_q of q = n/2 - j - k, built here on every call,
    rather than one product with a tabulated weight: a masked entry is
    +0.0, whatever the sign of its sum."""
    n, half = p.grid.n, p.grid.n // 2
    w = p.params.omega
    vh = np.fft.fft(potential).real
    lag = np.minimum(np.arange(n), n - np.arange(n))
    floor = 1e-14 * n * (abs(w) + float(np.max(np.abs(w - potential))))
    kd = int(np.max(lag[np.abs(vh) > floor], initial=0))
    vh[lag > kd] = 0.0
    alpha = sp._trig_scale(n)
    k = np.arange(kd + 1)[:, None]
    j = np.arange(half + 1)
    q = half - j - k
    index, mask, scale = (2 * q + k) % n, q >= 0, alpha[half - j] * alpha[q]
    vk, v2q = vh[:kd + 1, None], vh[index]
    band = np.zeros((kd + 1, n))
    band[:, :half + 1] = np.where(mask, scale * (vk + v2q) / 2, 0.0)
    band[:, half + 1:] = np.where(mask[:, 2:], ((vk - v2q) / n)[:, 1:-1], 0.0)
    m2 = c * p.grid.m2[half::-1]
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


def far_correction_full(band: np.ndarray, chol: np.ndarray, factors, p: int) -> tuple:
    """``spectral._far_correction`` as one forward substitution over all
    ``p`` far rows: B's columns, zero above F's last kd rows, stay zero
    there, rather than being solved on the trailing triangle alone."""
    kd, m = band.shape[0] - 1, band.shape[1]
    t = min(kd, m - p)
    width = t if factors is None else t + 1
    if not (p and width):
        return np.zeros((width, width)), 0.0
    rhs = np.zeros((p, width))
    # B[i, j] = A[p + j, i], stored at band[p + j - i, i]
    lo = max(p - kd, 0)
    i = np.arange(lo, p)[:, None]
    d = p + np.arange(t) - i
    rhs[lo:, :t] = np.where(d <= kd, band[np.minimum(d, kd), i], 0.0)
    if factors is not None:
        rhs[:, t:] = factors[:p]
    y = dtbtrs(chol[:, :p], rhs, uplo="L")[0]
    corr = y.T @ y
    return corr, float(np.max(np.abs(corr), initial=0.0) / np.max(np.abs(band)))


def inertia_eig_banded(band: np.ndarray, factors, s: float) -> tuple:
    """``spectral._inertia`` with the core counted by scipy's
    ``eig_banded`` (the eigenvalues in (-inf, 0] by LAPACK ``dsbevx``):
    (below, above, core rows, Schur growth) of the block at ``s``."""
    m = band.shape[1]
    kd = min(band.shape[0] - 1, m - 1)
    band = band[:kd + 1]
    shifted = band.copy()
    shifted[0] -= s
    chol, info = dpbtrf(shifted, lower=1)
    p = m if info == 0 else info - 1
    if info and p:
        chol = dpbtrf(shifted[:, :p], lower=1)[0]
    corr, growth = far_correction_full(band, chol, factors, p)
    if growth > sp.GROWTH_BOUND and p:
        p -= 1
        corr, growth = far_correction_full(band, chol, factors, p)
    if growth > sp.GROWTH_BOUND:
        raise np.linalg.LinAlgError("Schur growth exceeds the bound")
    q, t = m - p, min(kd, m - p)
    core = shifted[:min(kd, q - 1) + 1, p:]
    for k in range(t):
        core[k, :t - k] -= corr.diagonal(-k)[:t - k]
    a = eig_banded(core, lower=True, eigvals_only=True, select="v",
                   select_range=(-np.inf, 0.0)) if q else np.empty(0)
    below, above = int(np.sum(a < 0)), m - int(np.sum(a <= 0))
    if factors is None:
        return below, above, q, growth
    w = factors[p:].copy()
    w[:t] -= corr[:t, t:]
    schur = -1.0 - corr[t:, t:]
    if q:
        schur = schur - w.T @ sp._banded_solver(core)(w)
    more_below, more_above = sp._haynsworth(schur)
    return below + more_below, above + more_above, q, growth


def lowest_secular_count(op: sp.OperatorMatrix) -> tuple:
    """``spectral.lowest`` with each block's bisection on the secular
    count #(a < s) + n_neg(sigma) - 1 of eigenvalues below the midpoint
    s, a the six lowest eigenvalues of A_b and n_neg(sigma) read from
    ``spectral._haynsworth``'s eigensolve of the 1x1 sigma."""
    def block_lowest(band, factors, width):
        a = eig_banded(band, lower=True, eigvals_only=True, select="i",
                       select_range=(0, 5))
        if factors is None:
            return tuple(a[:5])
        solve = sp._banded_solver(band[:band.shape[1]])
        lowest = []
        for k in range(1, 6):
            lo, hi = a[k - 1], a[k]
            while hi - lo > width:
                mid = (lo + hi) / 2
                schur = -1.0 - factors.T @ solve(factors, mid)
                if np.sum(a < mid) + sp._haynsworth(schur)[0] >= k:
                    hi = mid
                else:
                    lo = mid
            lowest.append((lo + hi) / 2)
        return tuple(lowest)

    s = op.summary
    even, odd = (block_lowest(band, factors, block.lowest_width)
                 for (band, factors), block in zip(sp._parity_blocks(op), (s.even, s.odd)))
    return tuple(sorted(even + odd)[:5])


def theta_full_period(p: wv.Profile) -> tuple:
    """(theta, (ybar, ybar')(2*pi)) of the Hill equation of
    ``spectral.floquet_theta`` as a product of 4th-order Magnus
    propagators (Iserles & Norsett 1999; Blanes, Casas, Oteo & Ros,
    Phys. Rep. 470, 2009) over MAGNUS_CELLS uniform cells of the period.

    On each cell q is sampled at the two Gauss nodes (q1, q2, mean qbar),
    and Omega = [[d, h], [h qbar, -d]], d = sqrt(3) h^2 (q1 - q2) / 12,
    squares to s^2 I with s^2 = d^2 + h^2 qbar, so that exp(Omega) =
    cosh(s) I + sinh(s)/s Omega.  Its theta is off from 50 digits by up
    to 3.4e-11 relative at k >= 0.1 and 9.4e-10 at dn k = 0.05."""
    phi_dd0 = float(wv.profile_values(p.params, 0.0)[2])
    r, w, c = p.params.r, p.params.omega, p.params.c
    h = 2 * math.pi / MAGNUS_CELLS
    gauss = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3) / 6
    x = h * (np.arange(MAGNUS_CELLS)[:, None] + gauss)
    q = (w - (2 * r + 1) * wv.profile_values(p.params, x)[0] ** (2 * r)) / c
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
    return float(ybar_end[1] / phi_dd0), tuple(ybar_end)


def theta_closed_form_mp(params: wv.WaveParams) -> float:
    """theta = 2 (K' - K b'/b) / (g_a a^2 b^3 psi''(0)) of the periodic
    family at ``params``, in 50-digit mpmath, with K' = dK/dk =
    (E - k'^2 K)/(k k'^2) and nothing rearranged against cancellation.
    g_a = a'/a and g_b = b'/b hold omega and c fixed: k/(2 - k^2) for
    both on dn; -(log kappa)'/4 and ((log mu)' - (log kappa)')/2 on the
    dn quotient, differentiated numerically from the definitions
    alpha = 1 - k^2 - s, kappa = k^2 (alpha k^2 - k^2 - alpha) /
    (alpha^2 (alpha - 2)) and mu = (1 - 2 k^2 + 2 s)/3,
    s = sqrt(k^4 - k^2 + 1).  a and b are the float parameters."""
    with mpmath.workdps(50):
        k = mpmath.mpf(params.k)
        K, E = mpmath.ellipk(k * k), mpmath.ellipe(k * k)
        dK = (E - (1 - k * k) * K) / (k * (1 - k * k))
        if params.family == wv.PERIODIC_DN:
            g_a = g_b = k / (2 - k * k)
            psi_dd0 = -k * k
        else:
            def alpha(x):
                return 1 - x * x - mpmath.sqrt(x ** 4 - x * x + 1)

            def log_kappa(x):
                al = alpha(x)
                return mpmath.log(x * x * (al * x * x - x * x - al)
                                  / (al * al * (al - 2)))

            def log_mu(x):
                return mpmath.log((1 - 2 * x * x + 2 * mpmath.sqrt(x ** 4 - x * x + 1)) / 3)

            g_a = -mpmath.diff(log_kappa, k) / 4
            g_b = (mpmath.diff(log_mu, k) - mpmath.diff(log_kappa, k)) / 2
            psi_dd0 = alpha(k) - k * k
        a, b = mpmath.mpf(params.a), mpmath.mpf(params.b)
        return float(2 * (dK - K * g_b) / (g_a * a * a * b ** 3 * psi_dd0))


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
    Counts are at the default residual tolerance rho, which the
    spectrally exact torus discretization keeps far below the genuine
    third eigenvalue, though that closes on the kernel like k^4 near
    k -> 0 (3.9e-5 at k = 0.1).  Simplicity of the kernel is certified
    by theta != 0.
    """
    if family == wv.SOLITARY:
        raise UsageError("isoinertia sweeps run over the periodic families")
    entries = []
    anomalies = []
    for k in k_grid:
        params = wv.solve_family(family, r, float(k), validate=False)
        prof = wv.sample_profile(params, wv.default_grid(params, n))
        th = floquet_theta(prof).theta
        summ = spectrum(assemble("L_Re", prof))
        entries.append(SweepEntry(float(k), th, summ.n_neg, summ.z_kernel))
    first = entries[0]
    for e in entries[1:]:
        if np.sign(e.theta) != np.sign(first.theta):
            anomalies.append(f"theta sign change at k={e.k}")
        if (e.n_neg, e.z_kernel) != (first.n_neg, first.z_kernel):
            anomalies.append(f"inertia change at k={e.k}")
    return SweepReport(family, r, tuple(entries), tuple(anomalies))


def _family_parameter(params: wv.WaveParams) -> float:
    """omega on the solitary family, the modulus k on the periodic ones."""
    return params.omega if params.family == wv.SOLITARY else params.k


def finite_difference_eta(p: wv.Profile, step: float) -> np.ndarray:
    """eta = -d(phi)/d(omega) on the profile's own grid, by the chain rule
    along the family: the central difference of re-solved waves in the
    family parameter over the same difference of omega."""
    family, r = p.params.family, p.params.r
    at = _family_parameter(p.params)
    pp = wv.solve_family(family, r, at + step, validate=False)
    pm = wv.solve_family(family, r, at - step, validate=False)
    phi_p = wv.profile_values(pp, p.grid.nodes)[0]
    phi_m = wv.profile_values(pm, p.grid.nodes)[0]
    return -(phi_p - phi_m) / (pp.omega - pm.omega)


def eta_equation_check(p: wv.Profile, step: float = None) -> float:
    """Relative residual ||L_Re eta - phi|| / ||phi|| with the
    finite-difference eta.  The central difference leaves an O(step^2)
    error above the discretization floor of L_Re.

    The step is in the family parameter: by default 1e-4 omega on the
    solitary family and max(1e-4 k, 2.5e-5 / k) on the periodic ones.
    The roundoff of the sampled profiles enters eta divided by the
    change of omega, about 2 step omega'(k), and L_Re lifts it by its
    largest eigenvalue.  omega' vanishes like k^3 as k -> 0, so a step
    proportional to k leaves a roundoff term growing like k^-4 (7e-3 at
    dn k = 0.05, n = 512).  Below k = 1/2 the step 2.5e-5 / k cuts it to
    k^-2 (1e-4 at k = 0.05), and its O(step^2) term stays below that;
    from k = 1/2 on, where omega' is O(1), 1e-4 k is the larger step.
    """
    if step is None:
        at = abs(_family_parameter(p.params))
        step = 1e-4 * at
        if p.params.family != wv.SOLITARY:
            step = max(step, 2.5e-5 / at)
    if step <= 0:
        raise DomainError("step must be positive")
    eta = finite_difference_eta(p, step)
    resid = assemble("L_Re", p).apply(eta) - p.phi
    num = math.sqrt(quadrature(p.grid, resid ** 2))
    den = math.sqrt(quadrature(p.grid, p.phi ** 2))
    return num / den


def vk_slope_finite_difference(family: str, r: int, at: float,
                               step: float = None) -> tuple[float, float, float]:
    """(slope, Richardson discrepancy, roundoff) of d/domega int phi^2 by
    central differences of the closed-form squared norm: in omega on the
    solitary family, and by the chain rule (d/dk int phi^2)/(domega/dk)
    in the modulus on the periodic ones.  The slope is extrapolated from
    steps h = 1e-4 at and h/2; the discrepancy is their difference.  The
    roundoff is 16 eps |slope| times |f| / |f(+h/2) - f(-h/2)| summed
    over the differenced f: where omega' ~ k^3 it exceeds the
    discrepancy (at dn quotient k = 0.2 the error is 5.9 discrepancies
    and 0.07 of this roundoff term)."""
    def solver(x):
        return wv.solve_family(family, r, x, validate=False)

    if step is None:
        step = 1e-4 * abs(at)
    if step <= 0:
        raise DomainError("step must be positive")

    if family == wv.SOLITARY:
        thr = wv.solitary_threshold(r)
        if at - step <= thr:
            raise DomainError(
                f"step {step} straddles the existence threshold {thr:.6f}")

        def slope_of(h: float) -> tuple[float, float]:
            mp = fn.mass_closed_form(solver(at + h))
            mm = fn.mass_closed_form(solver(at - h))
            return (mp - mm) / (2 * h), abs(mp) / abs(mp - mm)
    else:
        hi_lim = wv.dn_modulus_limit() if family == wv.PERIODIC_DN else 1.0
        if not (step < at and at + step < hi_lim):
            raise DomainError(
                f"step {step} leaves the modulus range (0, {hi_lim:.6f})")

        def slope_of(h: float) -> tuple[float, float]:
            pp, pm = solver(at + h), solver(at - h)
            if pp.omega == pm.omega:
                raise DomainError(f"omega does not move over the step {h:g} "
                                  f"at k = {at:g}: the slope is undefined")
            mp, mm = fn.mass_closed_form(pp), fn.mass_closed_form(pm)
            dm_dk = (mp - mm) / (2 * h)
            dw_dk = (pp.omega - pm.omega) / (2 * h)
            return dm_dk / dw_dk, (abs(mp) / abs(mp - mm)
                                   + abs(pp.omega) / abs(pp.omega - pm.omega))

    s1, _ = slope_of(step)
    s2, amplification = slope_of(step / 2)
    slope = (4 * s2 - s1) / 3
    return slope, abs(s1 - s2), 16 * np.finfo(float).eps * amplification * abs(slope)


def vk_slope_mp(family: str, r: int, at: float) -> float:
    """d/domega int phi^2 in 50-digit mpmath: ``mpmath.diff`` of int phi^2
    in omega (solitary) or of int phi^2 and omega in k (periodic), each
    built from its definition.  The solitary width b is the cubic's root
    by ``findroot``; dn takes omega and a^2 from ``ellipk``/``ellipe``;
    the dn quotient takes its two integrals over the period, J = int
    psi'^2 and int psi^2, by ``quad`` in the Jacobi amplitude."""
    with mpmath.workdps(50):
        x = mpmath.mpf(at)
        if family == wv.SOLITARY:
            p_ = mpmath.mpf(2) / r
            M = (mpmath.sqrt(mpmath.pi) * mpmath.gamma(p_ / 2)
                 / mpmath.gamma((p_ + 1) / 2))
            A = M / (p_ + 1)

            def mass(w):
                a2 = ((r + 1) * w) ** (mpmath.mpf(1) / r)
                p, q = A * a2 / r ** 2, w * r * r
                b = mpmath.findroot(lambda b: p * b ** 3 + b * b - q,
                                    mpmath.sqrt(q))
                return a2 * M / b

            return float(mpmath.diff(mass, x))

        def omega_mass(k):
            K, E = mpmath.ellipk(k * k), mpmath.ellipe(k * k)
            if family == wv.PERIODIC_DN:
                den = (8 * (1 - k * k) * K ** 4 - 4 * (2 - k * k) * E * K ** 3
                       + 3 * mpmath.pi ** 3)
                a2 = 6 * mpmath.pi * K * K / den
                return (3 * (2 - k * k) * mpmath.pi * K * K / den,
                        2 * mpmath.pi * a2 * E / K)
            s = mpmath.sqrt(k ** 4 - k * k + 1)
            al = 1 - k * k - s
            kappa = k * k * (al * k * k - k * k - al) / (al * al * (al - 2))
            mu = (1 - 2 * k * k + 2 * s) / 3
            b = K / mpmath.pi

            def period(f):
                # int over u in [0, 2K] = twice the amplitude integral over
                # [0, pi/2] with sn = sin(phi), du = dphi / dn
                return 2 * mpmath.quad(lambda ph: f(mpmath.sin(ph) ** 2),
                                       [0, mpmath.pi / 2]) / b

            J = period(lambda S: (al - k * k) ** 2 * S * (1 - S)
                       / ((1 - al * S) ** 3 * mpmath.sqrt(1 - k * k * S)))
            I = period(lambda S: mpmath.sqrt(1 - k * k * S) / (1 - al * S))
            a2 = (b ** 4 * J + mpmath.sqrt(b ** 8 * J * J + 4 * mu * b * b)) / (2 * mu)
            return kappa * a2 * a2, a2 * I

        memo = {}

        def part(i):
            def f(k):
                if k not in memo:
                    memo[k] = omega_mass(k)
                return memo[k][i]
            return f

        return float(mpmath.diff(part(1), x) / mpmath.diff(part(0), x))
