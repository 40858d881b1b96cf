"""Split-step time integration of the full equation

    i u_t + (1 + int |u_x|^2) u_xx + |u|^2r u = 0

on a torus grid, plus the orbital-distance diagnostics used by the
stability experiments.

Strang splitting alternates a half nonlinear step (a pointwise phase
multiplication, modulus preserving) with a full linear step in Fourier
space.  The Kirchhoff coefficient is evaluated once at the start of the
linear substep; it is exactly constant during the linear flow because
every |u_hat_m| is preserved, so the only splitting error is the usual
nonlinear/linear commutator, O(dt^2).  Both substeps preserve the
discrete squared norm, so the mass drift stays at roundoff level.

Solitary waves are evolved on a torus wide enough that the periodized
tail sits below 1e-12 of the peak; the wraparound level is monitored.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import waves as wv
from .errors import BlowUpError, DomainError, UsageError
from .functionals import energy, mass
from .kernel import Grid, quadrature, torus_grid, wavenumbers


@dataclass
class Monitors:
    """Append-only records along one evolution.

    Mass, energy and the Kirchhoff coefficient are tracked every step;
    the orbital distance (priced at several transforms) is sampled on
    the logging cadence, with ``distance_steps`` indexing into the
    per-step arrays.
    """

    t: list = field(default_factory=list)
    mass: list = field(default_factory=list)
    energy: list = field(default_factory=list)
    kirchhoff: list = field(default_factory=list)
    distance: list = field(default_factory=list)
    distance_steps: list = field(default_factory=list)


@dataclass
class EvolutionState:
    u: np.ndarray
    t: float
    r: int
    grid: Grid
    monitors: Monitors = field(default_factory=Monitors)


def _parseval(grid: Grid, symbol: np.ndarray, vh: np.ndarray) -> float:
    """(L/n^2) sum symbol |v_hat|^2 from the DFT ``vh`` of a state: by
    Parseval, int |v_x|^2 for symbol m^2 and the squared H^1 norm for
    1 + m^2."""
    scale = grid.circumference / grid.n ** 2
    return scale * float(np.sum(symbol * np.abs(vh) ** 2))


def kirchhoff_coefficient(u: np.ndarray, grid: Grid) -> float:
    """1 + int |u_x|^2 with spectral differentiation."""
    if grid.topology != "torus":
        raise UsageError("evolution states live on torus grids")
    m = wavenumbers(grid)
    return 1.0 + _parseval(grid, m * m, np.fft.fft(u))


def step_strang(state: EvolutionState, dt: float) -> EvolutionState:
    """One Strang step: half nonlinear, full linear, half nonlinear."""
    if dt <= 0:
        raise DomainError("dt must be positive")
    grid, r = state.grid, state.r
    m = wavenumbers(grid)
    u = state.u * np.exp(0.5j * dt * (state.u.real ** 2 + state.u.imag ** 2) ** r)
    uh = np.fft.fft(u)
    c = 1.0 + _parseval(grid, m * m, uh)
    uh *= np.exp(-1j * c * m * m * dt)
    u = np.fft.ifft(uh)
    u = u * np.exp(0.5j * dt * (u.real ** 2 + u.imag ** 2) ** r)
    return EvolutionState(u, state.t + dt, r, grid, state.monitors)


@dataclass
class EvolutionResult:
    state: EvolutionState
    monitors: Monitors
    mass_drift: float          # max relative drift of F over the run
    energy_drift: float        # max relative drift of E over the run
    blow_up: Optional[float]   # time stamp, or None
    max_distance: Optional[float] = None
    tail_wrap: Optional[float] = None


def evolve(u0: np.ndarray, grid: Grid, r: int, T: float, dt: float,
           log_every: Optional[int] = None,
           distance_profile: Optional[wv.Profile] = None,
           rotation_only: bool = False,
           monitor_tail: bool = False) -> EvolutionResult:
    """Repeated Strang stepping with per-step conservation monitoring.

    T must be a whole number of steps dt, so the run ends at T exactly.
    Mass drift is recorded at machine level, energy drift at the
    splitting level O(dt^2).  A non-finite state sets the blow-up flag
    with its time stamp and stops the run (relevant for the r = 4
    experiments; global existence there is only guaranteed for small
    initial mass and no quantitative threshold is attempted).  If
    ``distance_profile`` is given, the orbital distance to that wave is
    sampled every ``log_every`` steps.
    """
    if r < 1:
        raise DomainError("nonlinearity exponent r must be >= 1")
    if r == 4:
        warnings.warn(
            "r = 4 evolution: global existence requires small initial mass "
            "(no quantitative bound); non-finite states are flagged, not "
            "prevented", stacklevel=2)
    n_steps = round(T / dt)
    if n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * T:
        raise DomainError(
            f"T = {T} is not a positive whole number of steps dt = {dt}")
    if log_every is None:
        log_every = max(1, n_steps // 200)
    state = EvolutionState(np.asarray(u0, dtype=complex), 0.0, r, grid)
    mon = state.monitors
    m = wavenumbers(grid)
    m2 = m * m

    def record(s: EvolutionState, step: int) -> bool:
        # one transform serves the gradient norm and the Kirchhoff
        # coefficient; everything else is pointwise
        grad = _parseval(grid, m2, np.fft.fft(s.u))
        mod2 = s.u.real ** 2 + s.u.imag ** 2
        F = 0.5 * quadrature(grid, mod2)
        E = 0.5 * grad + 0.5 * grad ** 2 - quadrature(grid, mod2 ** (r + 1)) / (2 * r + 2)
        mon.t.append(s.t)
        mon.mass.append(F)
        mon.energy.append(E)
        mon.kirchhoff.append(1.0 + grad)
        if distance_profile is not None and (step % log_every == 0
                                             or step == n_steps):
            mon.distance.append(
                orbital_distance(s.u, distance_profile, rotation_only).distance)
            mon.distance_steps.append(step)
        return bool(np.isfinite(F) and np.isfinite(E))

    blow_up = None
    if not record(state, 0) or not np.all(np.isfinite(state.u)):
        blow_up = 0.0
        n_steps = 0
    tail = 0.0
    # node diametrically opposite the initial peak
    edge = (int(np.argmax(np.abs(u0))) + grid.n // 2) % grid.n
    for step in range(1, n_steps + 1):
        state = step_strang(state, dt)
        if monitor_tail and (step % log_every == 0 or step == n_steps):
            peak = float(np.max(np.abs(state.u)))
            tail = max(tail, float(np.abs(state.u[edge])) / peak)
        if not record(state, step):
            blow_up = state.t
            break
    F0, E0 = mon.mass[0], mon.energy[0]

    def drift(values, ref):
        finite = np.asarray([v for v in values if np.isfinite(v)])
        if not np.isfinite(ref) or ref == 0.0 or finite.size == 0:
            return float("inf") if blow_up is not None else 0.0
        return float(np.max(np.abs(finite - ref)) / abs(ref))

    mass_drift = drift(mon.mass, F0)
    energy_drift = drift(mon.energy, E0)
    max_dist = max(mon.distance) if mon.distance else None
    return EvolutionResult(state, mon, mass_drift, energy_drift, blow_up,
                           max_dist, tail if monitor_tail else None)


# ----------------------------------------------------------------------
# orbital distance
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitalDistanceResult:
    distance: float
    theta_opt: float
    s_opt: float


def h1_norm_sq(grid: Grid, v: np.ndarray) -> float:
    """Spectral H^1 norm squared, sum (1 + m^2) |v_hat|^2 weighted."""
    m = wavenumbers(grid)
    return _parseval(grid, 1 + m * m, np.fft.fft(v))


def orbital_distance(u: np.ndarray, phi_profile: wv.Profile,
                     rotation_only: bool = False) -> OrbitalDistanceResult:
    """H^1 distance from u to the orbit of the wave under rotation and
    translation.

    All n cyclic shifts are scanned at once through the inverse DFT of
    the weighted cross-spectrum; for each shift the optimal phase is the
    argument of the H^1 inner product, so the scan is exact on the shift
    lattice.  ``rotation_only`` restricts the orbit to phase rotations
    (the even-subspace experiments, where translation is not available).
    """
    grid = phi_profile.grid
    u = np.asarray(u, dtype=complex)
    if u.shape != (grid.n,):
        raise UsageError("state and reference wave must share one grid")
    m = wavenumbers(grid)
    wgt = 1.0 + m * m
    scale = grid.circumference / grid.n ** 2
    uh = np.fft.fft(u)
    ph = np.fft.fft(phi_profile.phi)
    nu = _parseval(grid, wgt, uh)
    np_ = _parseval(grid, wgt, ph)
    if rotation_only:
        inner = scale * complex(np.sum(wgt * uh * np.conj(ph)))
        best, theta, shift = abs(inner), math.atan2(inner.imag, inner.real), 0.0
    else:
        corr = np.fft.ifft(wgt * uh * np.conj(ph)) * grid.n * scale
        j = int(np.argmax(np.abs(corr)))
        best = float(np.abs(corr[j]))
        theta = float(np.angle(corr[j]))
        shift = j * grid.spacing
    d2 = max(nu + np_ - 2 * best, 0.0)
    return OrbitalDistanceResult(math.sqrt(d2), theta, shift)


# ----------------------------------------------------------------------
# stability experiments
# ----------------------------------------------------------------------

def periodized_profile(params: wv.WaveParams, grid: Grid) -> wv.Profile:
    """Solitary closed form wrapped onto a wide torus for evolution.

    The caller is responsible for a box wide enough that the tail at
    the edges is negligible; ``experiment_grid`` guarantees < 1e-12.
    """
    if grid.topology != "torus":
        raise UsageError("periodized profiles live on torus grids")
    return wv.Profile(params, grid, *wv.profile_values(params, grid.nodes))


def experiment_grid(params: wv.WaveParams, n: int = 512) -> Grid:
    """Torus for one experiment: the native 2*pi torus for periodic
    waves, a centered box of width max(8r/b, 50, twice the 1e-12 tail
    length) for solitary waves."""
    if params.family == wv.SOLITARY:
        box = max(8 * params.r / params.b, 50.0, 2 * wv.tail_half_length(params))
        return torus_grid(n, box, origin=-box / 2)
    return torus_grid(n)


@dataclass
class ExperimentResult:
    family: str
    r: int
    parameter: float
    epsilon: float
    T: float
    dt: float
    n: int
    even: bool
    initial_distance: float
    max_distance: float
    growth_ratio: float
    blow_up: Optional[float]
    evolution: EvolutionResult

    def manifest(self) -> dict:
        return {
            "family": self.family, "r": self.r, "parameter": self.parameter,
            "epsilon": self.epsilon, "T": self.T, "dt": self.dt, "n": self.n,
            "even_perturbation": self.even,
            "perturbation": ("eps*cos(q x) on Re" if self.even else
                             "eps*cos(q x) on Re + eps*sin(2 q x) on Im, q = 2*pi/box"),
            "initial_distance": self.initial_distance,
            "max_distance": self.max_distance,
            "growth_ratio": self.growth_ratio,
            "blow_up": self.blow_up,
            "mass_drift": self.evolution.mass_drift,
            "energy_drift": self.evolution.energy_drift,
            "tail_wrap": self.evolution.tail_wrap,
        }





def stability_experiment(family: str, r: int, at: float, epsilon: float,
                         T: float, dt: float = 1e-3, n: int = 512,
                         even: bool = False,
                         log_every: Optional[int] = None) -> ExperimentResult:
    """Perturb a wave, evolve it, and track the orbital distance.

    The perturbation is fixed and documented: eps*cos(q x) on the real
    part plus eps*sin(2 q x) on the imaginary part with q the box's
    fundamental wavenumber; in the even mode (used for the r = 4 run,
    where the analysis lives in the even subspace and only the rotation
    symmetry survives) the odd imaginary part is dropped and the
    distance is minimized over rotations only.
    """
    params = wv.solve_family(family, r, at)
    grid = experiment_grid(params, n)
    if family == wv.SOLITARY:
        prof = periodized_profile(params, grid)
    else:
        prof = wv.sample_profile(params, grid)
    norm_phi = math.sqrt(h1_norm_sq(grid, prof.phi.astype(complex)))
    if epsilon > 0.05 * norm_phi:
        raise DomainError(
            f"epsilon {epsilon} exceeds 5% of the wave's H1 norm {norm_phi:.4f}")
    q = 2 * math.pi / grid.circumference
    x = grid.nodes
    u0 = prof.phi.astype(complex) + epsilon * np.cos(q * x)
    if not even:
        u0 = u0 + 1j * epsilon * np.sin(2 * q * x)
    res = evolve(u0, grid, r, T, dt, log_every=log_every,
                 distance_profile=prof, rotation_only=even,
                 monitor_tail=family == wv.SOLITARY)
    d0 = res.monitors.distance[0]
    dmax = max(res.monitors.distance)
    return ExperimentResult(family, r, at, epsilon, T, dt, n, even,
                            d0, dmax, dmax / d0 if d0 > 0 else math.inf,
                            res.blow_up, res)


# ----------------------------------------------------------------------
# trajectory export
# ----------------------------------------------------------------------

def write_trajectory_csv(path, result: EvolutionResult) -> None:
    """Trajectory log at the distance-sampling cadence:
    t, mass, energy, kirchhoff_c, orbital_distance."""
    mon = result.monitors
    if mon.distance_steps:
        rows = list(zip(mon.distance_steps, mon.distance))
    else:
        stride = max(1, (len(mon.t) - 1) // 200)
        rows = [(i, float("nan")) for i in range(0, len(mon.t), stride)]
    with open(path, "w") as fh:
        fh.write("t,mass,energy,kirchhoff_c,orbital_distance\n")
        for i, d in rows:
            fh.write("%.12g,%.17g,%.17g,%.17g,%.12g\n"
                     % (mon.t[i], mon.mass[i], mon.energy[i],
                        mon.kirchhoff[i], d))


def write_manifest_json(path, experiment: ExperimentResult) -> None:
    with open(path, "w") as fh:
        json.dump(experiment.manifest(), fh, indent=2)
        fh.write("\n")
