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

Because the half nonlinear step preserves |u|, a step's trailing
half-kick and the next step's leading half-kick multiply by the same
phase exp(i dt/2 |u|^2r) (the first-same-as-last property of symmetric
splittings).  ``evolve`` advances one record interval per call of
``step_strang(state, dt, steps)``; inside the call each step's trailing
phase is the next step's leading one, and the last is kept on the
returned state, which the next call of the same dt reuses, so a run of
N steps evaluates N + 1 nonlinear phases instead of 2N.  Every phase,
the two half-kicks and the linear propagator, is taken as cos and sin
written into one complex array, which is cheaper than a complex exp.
The call owns its work arrays and overwrites them on every step: the
state, on which the forward and inverse transforms run in place, the
phase and the |u|^2 scratch.  Only the state it returns is new, so no
state a caller holds is ever changed.

Every transform here, the step's, the records' and the orbital
distance's, is ``kernel.dft_into``/``idft_into``: numpy's pocketfft
kernels called directly, bit for bit ``np.fft.fft``/``ifft`` without
their per-call wrapper, which was the largest Python overhead left in
a step.  There is no fallback to the public wrappers: a second path
would be one the trajectories never run, and the kernel tests pin the
private call convention so that a numpy changing it fails loudly.

Monitoring runs on the logging cadence, not every step: mass, energy,
the Kirchhoff coefficient, the orbital distance and the tail level are
recorded at steps 0, log_every, 2*log_every, ... and at the last step.
Blow-up detection stays per step, inside ``step_strang``: one sum over
each new state, which is non-finite exactly when an entry is, since the
norm-conserving substeps keep finite entries from overflowing it.  The
call stops at the first non-finite state and returns it with its own
time, so ``evolve`` checks each returned state once.  Every int |u_x|^2
and squared H^1 norm is ``kernel.parseval`` over the grid's ``Grid.m2``,
and the monitored energy is ``functionals.kirchhoff_energy`` of that sum.

Solitary waves are evolved on a torus wide enough that the periodized
tail sits below 1e-12 of the peak; the wraparound level is monitored.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import waves as wv
from .errors import DimensionError, DomainError, UsageError
from .functionals import kirchhoff_energy
from .kernel import (Grid, dft_into, idft_into, parseval, quadrature,
                     torus_grid)


@dataclass
class Monitors:
    """Append-only records along one evolution, one aligned entry per
    record, taken on the logging cadence (steps 0, log_every,
    2*log_every, ... and the last step).  ``distance`` stays empty when
    no reference wave is given.
    """

    steps: list = field(default_factory=list)
    t: list = field(default_factory=list)
    mass: list = field(default_factory=list)
    energy: list = field(default_factory=list)
    kirchhoff: list = field(default_factory=list)
    distance: list = field(default_factory=list)


@dataclass
class EvolutionState:
    """The state u at time t of a run with exponent r on a torus grid.

    ``half_kick`` = (u, dt, exp(i dt/2 |u|^2r)) is the phase of the
    trailing half-kick with the array and step it belongs to, set by
    ``step_strang`` on the state it returns, whose u is read-only.  A
    state built by a caller or by ``dataclasses.replace`` has none.
    """

    u: np.ndarray
    t: float
    r: int
    grid: Grid
    half_kick: Optional[tuple[np.ndarray, float, np.ndarray]] = field(
        default=None, init=False, repr=False)


def _phase(theta: np.ndarray, z: np.ndarray) -> np.ndarray:
    """exp(i theta) for real theta, as cos and sin written into the real
    and imaginary parts of the complex array z; returns z."""
    np.cos(theta, out=z.real)
    np.sin(theta, out=z.imag)
    return z


def _half_kick(u: np.ndarray, r: int, dt: float, mod2: np.ndarray,
               kick: np.ndarray) -> np.ndarray:
    """Phase of the half nonlinear step, exp(i dt/2 |u|^2r), written into
    ``kick``, with ``mod2`` as the |u|^2 scratch.  The squares of u's
    float view go into ``kick``'s float view first, so |u|^2 is
    re*re + im*im in that order with no temporary."""
    squares = kick.view(float)
    np.multiply(u.view(float), u.view(float), out=squares)
    np.add(squares[0::2], squares[1::2], out=mod2)
    if r > 1:
        mod2 **= r
    mod2 *= 0.5 * dt
    return _phase(mod2, kick)


def step_strang(state: EvolutionState, dt: float,
                steps: int = 1) -> EvolutionState:
    """``steps`` Strang steps (half nonlinear, full linear, half
    nonlinear) in work arrays this call allocates once; stops at the
    first non-finite state and returns it with its own time.

    The leading half-kick reuses ``state.half_kick`` when it belongs to
    this u and dt; the last trailing one is kept on the returned state,
    the only new object, whose u is read-only.
    """
    if not dt > 0:
        raise DomainError(f"dt must be positive, got {dt}")
    if not (isinstance(steps, (int, np.integer)) and steps >= 1):
        raise DomainError(f"steps must be an integer >= 1, got {steps!r}")
    grid, r = state.grid, state.r
    # m^2 is even in m and m[-j] = -m[j] exactly, so the propagator over
    # the n/2 + 1 distinct values, mirrored, is the full one bit for bit
    h = grid.n // 2 + 1
    m2, m2_half = grid.m2, grid.m2[:h]
    u = np.array(state.u, dtype=complex)
    low, high = u[:h], u[h:]
    mod2, kick = np.empty(grid.n), np.empty(grid.n, dtype=complex)
    angle, prop = np.empty(h), np.empty(h, dtype=complex)
    mirrored = prop[h - 2:0:-1]
    cached = state.half_kick
    if cached is not None and cached[0] is state.u and cached[1] == dt:
        lead = cached[2]
    else:
        lead = _half_kick(u, r, dt, mod2, kick)
    t = state.t
    for _ in range(steps):
        u *= lead
        dft_into(u, u)
        c = 1.0 + parseval(grid, m2, u)
        np.multiply(-c * dt, m2_half, out=angle)
        _phase(angle, prop)
        low *= prop
        high *= mirrored
        idft_into(u, u)
        # the trailing half-kick, and the next step's leading one
        lead = _half_kick(u, r, dt, mod2, kick)
        u *= lead
        t += dt
        # one reduction is exact here: a non-finite entry makes the sum
        # non-finite, and finite entries cannot overflow it because both
        # substeps conserve sum |u|^2
        if not cmath.isfinite(u.sum()):
            break
    u.flags.writeable = False
    new = EvolutionState(u, t, r, grid)
    new.half_kick = (u, dt, kick)
    return new


@dataclass
class EvolutionResult:
    """Final state, the cadence records and their summaries.  The drifts
    are maxima over the records; ``blow_up`` is the time of the first
    non-finite state, checked every step."""

    state: EvolutionState
    monitors: Monitors
    mass_drift: float          # max relative drift of F over the records
    energy_drift: float        # max relative drift of E over the records
    blow_up: Optional[float]   # time stamp, or None
    max_distance: Optional[float] = None
    tail_wrap: Optional[float] = None


def evolve(u0: np.ndarray, grid: Grid, r: int, T: float, dt: float,
           log_every: Optional[int] = None,
           distance_profile: Optional[wv.Profile] = None,
           rotation_only: bool = False) -> EvolutionResult:
    """Repeated Strang stepping with conservation monitoring on the
    logging cadence.

    ``u0`` holds one value per node of ``grid``.  T and dt must be
    finite with dt > 0, and T a whole number of steps dt, so the run
    ends at T exactly.
    Every ``log_every`` >= 1 steps (default n_steps // 200, at least 1) and
    at the last step one record is taken: time, mass, energy and the
    Kirchhoff coefficient, plus the orbital distance to
    ``distance_profile`` if given and, when that is a solitary wave, the
    tail level.  Mass drift sits at machine level, energy drift at
    the splitting level O(dt^2).  Every step checks the new state for
    finiteness; a non-finite state sets the blow-up flag with its time
    stamp and stops the run (relevant for the r = 4 experiments; global
    existence there is only guaranteed for small initial mass and no
    quantitative threshold is attempted).
    """
    if r < 1:
        raise DomainError("nonlinearity exponent r must be >= 1")
    if r == 4:
        warnings.warn(
            "r = 4 evolution: global existence requires small initial mass "
            "(no quantitative bound); non-finite states are flagged, not "
            "prevented", stacklevel=2)
    if not (math.isfinite(T) and math.isfinite(dt) and dt > 0):
        raise DomainError(f"T = {T} and dt = {dt} must be finite, dt > 0")
    n_steps = round(T / dt)
    if n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * T:
        raise DomainError(
            f"T = {T} is not a positive whole number of steps dt = {dt}")
    if log_every is None:
        log_every = max(1, n_steps // 200)
    if log_every < 1:
        raise DomainError(f"log_every must be >= 1, got {log_every}")
    u0 = np.asarray(u0, dtype=complex)
    if u0.shape != (grid.n,):
        raise DimensionError(f"u0 of shape {u0.shape} on a grid of {grid.n} nodes")
    state = EvolutionState(u0, 0.0, r, grid)
    mon = Monitors()

    def record(s: EvolutionState, step: int) -> None:
        # one transform serves the gradient norm and the Kirchhoff
        # coefficient; everything else is pointwise
        grad = parseval(grid, grid.m2, dft_into(s.u, np.empty_like(s.u)))
        mod2 = s.u.real ** 2 + s.u.imag ** 2
        mon.steps.append(step)
        mon.t.append(s.t)
        mon.mass.append(0.5 * quadrature(grid, mod2))
        mon.energy.append(
            kirchhoff_energy(grad, quadrature(grid, mod2 ** (r + 1)), r))
        mon.kirchhoff.append(1.0 + grad)
        if distance_profile is not None:
            mon.distance.append(
                orbital_distance(s.u, distance_profile, rotation_only).distance)

    blow_up = None
    # the tail level is taken against a solitary reference wave, at the
    # node diametrically opposite the initial peak
    solitary = (distance_profile is not None
                and distance_profile.params.family == wv.SOLITARY)
    tail = 0.0 if solitary else None
    edge = (int(np.argmax(np.abs(u0))) + grid.n // 2) % grid.n
    record(state, 0)
    if not np.isfinite(state.u).all():
        blow_up = 0.0
        n_steps = 0
    # one call per record interval: the stepper stops at the first
    # non-finite state, so one check of the state it returns finds it
    step = 0
    while step < n_steps:
        steps = min(log_every, n_steps - step)
        state = step_strang(state, dt, steps)
        step += steps
        if not cmath.isfinite(state.u.sum()):
            blow_up = state.t
            break
        record(state, step)
        if tail is not None:
            tail = max(tail, float(np.abs(state.u[edge])
                                   / np.max(np.abs(state.u))))

    def drift(values):
        ref = values[0]
        finite = np.asarray([v for v in values if np.isfinite(v)])
        if not np.isfinite(ref) or ref == 0.0 or finite.size == 0:
            return float("inf") if blow_up is not None else 0.0
        return float(np.max(np.abs(finite - ref)) / abs(ref))

    return EvolutionResult(state, mon, drift(mon.mass), drift(mon.energy),
                           blow_up, max(mon.distance) if mon.distance else None,
                           tail)


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
    v = np.asarray(v)
    return parseval(grid, 1 + grid.m2, dft_into(v, np.empty(v.shape, complex)))


def orbital_distance(u: np.ndarray, phi_profile: wv.Profile,
                     rotation_only: bool = False) -> OrbitalDistanceResult:
    """H^1 distance from u to the orbit of the wave under rotation and
    translation.

    All n cyclic shifts are scanned at once through the inverse DFT of
    the weighted cross-spectrum; for each shift the optimal phase is the
    argument of the H^1 inner product, so the scan is exact on the shift
    lattice.  ``rotation_only`` restricts the orbit to phase rotations
    (the even-subspace experiments, where translation is not available).
    The wave's side, ``phi_profile.h1_dual``, is computed once per
    profile.
    """
    grid = phi_profile.grid
    u = np.asarray(u, dtype=complex)
    if u.shape != (grid.n,):
        raise UsageError("state and reference wave must share one grid")
    scale = grid.parseval_scale
    dual, np_ = phi_profile.h1_dual
    uh = dft_into(u, np.empty_like(u))
    nu = parseval(grid, 1.0 + grid.m2, uh)
    if rotation_only:
        inner = scale * complex(np.sum(uh * dual))
        best, theta, shift = abs(inner), math.atan2(inner.imag, inner.real), 0.0
    else:
        corr = uh * dual
        corr = idft_into(corr, corr) * grid.n * scale
        j = int(np.argmax(np.abs(corr)))
        best = float(np.abs(corr[j]))
        theta = float(np.angle(corr[j]))
        shift = j * grid.spacing
    d2 = max(nu + np_ - 2 * best, 0.0)
    return OrbitalDistanceResult(math.sqrt(d2), theta, shift)


# ----------------------------------------------------------------------
# stability experiments
# ----------------------------------------------------------------------

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
    growth_ratio: Optional[float]   # None at a zero initial distance
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
    if not math.isfinite(epsilon):
        raise DomainError(f"epsilon must be finite, got {epsilon}")
    params = wv.solve_family(family, r, at)
    grid = experiment_grid(params, n)
    prof = wv.Profile(params, grid, *wv.profile_values(params, grid.nodes))
    norm_phi = math.sqrt(prof.h1_dual[1])
    if epsilon > 0.05 * norm_phi:
        raise DomainError(
            f"epsilon {epsilon} exceeds 5% of the wave's H1 norm {norm_phi:.4f}")
    q = 2 * math.pi / grid.circumference
    x = grid.nodes
    u0 = prof.phi.astype(complex) + epsilon * np.cos(q * x)
    if not even:
        u0 = u0 + 1j * epsilon * np.sin(2 * q * x)
    res = evolve(u0, grid, r, T, dt, log_every=log_every,
                 distance_profile=prof, rotation_only=even)
    d0, dmax = res.monitors.distance[0], res.max_distance
    return ExperimentResult(family, r, at, epsilon, T, dt, n, even,
                            d0, dmax, dmax / d0 if d0 > 0 else None,
                            res.blow_up, res)


# ----------------------------------------------------------------------
# trajectory export
# ----------------------------------------------------------------------

def write_trajectory_csv(path, result: EvolutionResult) -> None:
    """Trajectory log, one row per monitor record:
    t, mass, energy, kirchhoff_c, orbital_distance (nan without a
    reference wave)."""
    mon = result.monitors
    distance = mon.distance or [float("nan")] * len(mon.t)
    with open(path, "w") as fh:
        fh.write("t,mass,energy,kirchhoff_c,orbital_distance\n")
        for row in zip(mon.t, mon.mass, mon.energy, mon.kirchhoff, distance):
            fh.write("%.12g,%.17g,%.17g,%.17g,%.12g\n" % row)
