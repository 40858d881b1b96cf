"""Workload inputs, operations and output checks of the skwave benchmark.

Every workload is a fixed list of operations ("one pass") built from the
seed.  The program only receives the generated points; the references
the checks compare against are computed here, outside any timed region.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import solve_ivp

from skwave import evolution as ev
from skwave import report as rp
from skwave import waves as wv

# line_verdicts: solitary points with the verdict the theory gives there
LINE_POINTS = ((1, 1.0, rp.STABLE), (2, 0.5, rp.STABLE),
               (4, 0.3, rp.UNSTABLE_EVEN))
LINE_SIZES = (1024, 2048)
OMEGA_JITTER = 0.05

# periodic_sweep: one seeded modulus per equal stratum of [0.1, 0.9]
PERIODIC_FAMILIES = ((wv.PERIODIC_DN, 1), (wv.PERIODIC_DNQ, 2))
K_LO, K_HI, K_STRATA = 0.1, 0.9, 12
K_ALWAYS_CONCLUSIVE = 0.5

# stability_t20: the three acceptance (c9) experiments
STABILITY_RUNS = ((wv.PERIODIC_DN, 1, 0.5, False),
                  (wv.SOLITARY, 2, 0.5, False),
                  (wv.SOLITARY, 4, 0.3, True))
EPSILON, T_FINAL, DT, N_EVOLVE = 1e-2, 20.0, 1e-3, 512
T_WARMUP = 0.2

# tolerances, from the acceptance suite where it states one
THETA_REL_TOL = 1e-8
MASS_DRIFT_MAX = 1e-10
GROWTH_ENVELOPE = 10.0
WITNESS_MAX = 1e-5
MONITOR_MATCH = 1e-12

warnings.filterwarnings("ignore", message="r = 4 evolution")


def warm_caches() -> None:
    """Fill the per-r caches the pipeline consults on every call."""
    for r in (1, 2, 4):
        wv.shape_constants(r)
        wv.solitary_threshold(r)
    wv.dn_modulus_limit()


@dataclass
class Outcome:
    """What one operation's checks found."""

    failures: list
    conclusive: Optional[bool] = None     # verdict operations only
    energy_drift: Optional[float] = None  # stable stability runs only
    witness: Optional[float] = None


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass(frozen=True)
class Workload:
    ops: tuple
    warmup: tuple         # callables run once before timing, unchecked
    inputs: dict
    blas_bound: bool = False  # most of the time in dense BLAS/LAPACK calls


# ----------------------------------------------------------------------
# independent references
# ----------------------------------------------------------------------

def theta_reference(params: wv.WaveParams) -> float:
    """Floquet constant of the Hill equation, integrated here with
    DOP853 at rtol 1e-13 against the closed-form profile."""
    phi_f, _, d2phi_f = wv.closed_form_evaluators(params)
    phi_dd0 = float(d2phi_f(0.0))
    r, w, c = params.r, params.omega, params.c

    def rhs(x, y):
        v = float(phi_f(x))
        return (y[1], (w - (2 * r + 1) * v ** (2 * r)) / c * y[0])

    sol = solve_ivp(rhs, (0.0, 2 * math.pi), (-1.0 / phi_dd0, 0.0),
                    method="DOP853", rtol=1e-13, atol=1e-15)
    if not sol.success:
        raise RuntimeError(f"theta reference failed: {sol.message}")
    return float(sol.y[1, -1] / phi_dd0)


def hamiltonian(u: np.ndarray, grid, r: int) -> tuple:
    """(H, mass, Kirchhoff coefficient) of a torus state, with the
    conserved Hamiltonian H = G/2 + G^2/4 - int |u|^(2r+2)/(2r+2),
    G = int |u_x|^2 (spectral gradient, rectangle rule)."""
    n, length = grid.n, grid.circumference
    m = 2 * math.pi * np.fft.fftfreq(n, d=length / n)
    g = length / n ** 2 * float(np.sum(m * m * np.abs(np.fft.fft(u)) ** 2))
    mod2 = np.abs(u) ** 2
    potential = length / n * float(np.sum(mod2 ** (r + 1)))
    mass = 0.5 * length / n * float(np.sum(mod2))
    return g / 2 + g * g / 4 - potential / (2 * r + 2), mass, 1.0 + g


def initial_state(family: str, r: int, at: float, even: bool, grid) -> np.ndarray:
    """The documented perturbation: eps cos(q x) on Re, plus
    eps sin(2 q x) on Im unless even, q the box's fundamental."""
    params = wv.solve_family(family, r, at)
    x = grid.nodes
    q = 2 * math.pi / grid.circumference
    u0 = np.asarray(wv.closed_form_evaluators(params)[0](x), float) \
        + EPSILON * np.cos(q * x)
    if not even:
        u0 = u0 + 1j * EPSILON * np.sin(2 * q * x)
    return u0.astype(complex)


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------

def _stage_failure(v: rp.StabilityVerdict) -> list:
    if "failed_stage" in v.evidence:
        return [f"stage {v.evidence['failed_stage']} raised "
                f"{v.evidence.get('error')}"]
    return []


def check_line(expected: str, r: int) -> Callable[[object], Outcome]:
    """Every line point has a known verdict, so an inconclusive one (which
    decide() gives for any miscount) is a failure here."""
    def check(v: rp.StabilityVerdict) -> Outcome:
        failures = _stage_failure(v)
        conclusive = v.verdict != rp.INCONCLUSIVE
        if v.verdict != expected:
            failures.append(f"verdict {v.verdict}, expected {expected}")
        if (v.n_neg_L, v.z_kernel_L) != (1, 2):
            failures.append(f"block counts {(v.n_neg_L, v.z_kernel_L)}")
        if r == 4:
            even = v.evidence.get("even_block", {})
            if (even.get("n_neg"), even.get("z_kernel")) != (1, 1):
                failures.append(f"even counts {even}")
        return Outcome(failures, conclusive=conclusive)
    return check


def check_periodic(k: float, theta_ref: float) -> Callable[[object], Outcome]:
    """From k = 0.5 up every verdict is conclusive, so an inconclusive one
    there is a failure.  Below it the coarse kernel tolerance may count a
    third kernel vector (z = 3), the known defect that conclusive_frac
    shows; the negative count must still be 1."""
    def check(v: rp.StabilityVerdict) -> Outcome:
        failures = _stage_failure(v)
        if failures:
            return Outcome(failures, conclusive=False)
        if v.verdict == rp.INCONCLUSIVE:
            if k >= K_ALWAYS_CONCLUSIVE:
                failures.append(f"inconclusive at k >= {K_ALWAYS_CONCLUSIVE}, "
                                f"counts {(v.n_neg_L, v.z_kernel_L)}, "
                                f"slope {v.slope_sign}")
            elif v.n_neg_L != 1 or v.z_kernel_L not in (2, 3):
                failures.append(f"block counts {(v.n_neg_L, v.z_kernel_L)}")
            return Outcome(failures, conclusive=False)
        if v.verdict != rp.STABLE:
            failures.append(f"verdict {v.verdict}")
        if (v.n_neg_L, v.z_kernel_L) != (1, 2):
            failures.append(f"block counts {(v.n_neg_L, v.z_kernel_L)}")
        if v.theta is None or not v.theta < 0:
            failures.append(f"theta {v.theta} not negative")
        elif abs(v.theta - theta_ref) > THETA_REL_TOL * abs(theta_ref):
            failures.append(f"theta {v.theta!r} vs reference {theta_ref!r}")
        return Outcome(failures, conclusive=True)
    return check


def check_stability(family: str, r: int, at: float,
                    even: bool) -> Callable[[object], Outcome]:
    def check(res: ev.ExperimentResult) -> Outcome:
        evo = res.evolution
        failures = []
        finite = [res.initial_distance, res.max_distance, res.growth_ratio,
                  evo.mass_drift, evo.energy_drift]
        if res.blow_up is not None or not (np.all(np.isfinite(finite))
                                           and np.all(np.isfinite(evo.state.u))):
            return Outcome([f"non-finite result (blow_up={res.blow_up})"])
        if evo.mass_drift > MASS_DRIFT_MAX:
            failures.append(f"mass drift {evo.mass_drift:.2e}")
        if even and not res.growth_ratio > GROWTH_ENVELOPE:
            failures.append(f"even run stayed bounded, ratio {res.growth_ratio:.2f}")
        if not even and res.growth_ratio > GROWTH_ENVELOPE:
            failures.append(f"stable run grew, ratio {res.growth_ratio:.2f}")

        grid = evo.state.grid
        h0, mass0, kirchhoff0 = hamiltonian(
            initial_state(family, r, at, even, grid), grid, r)
        for name, mine, theirs in (("mass", mass0, evo.monitors.mass[0]),
                                   ("Kirchhoff", kirchhoff0,
                                    evo.monitors.kirchhoff[0])):
            if abs(mine - theirs) > MONITOR_MATCH * abs(theirs):
                failures.append(f"rebuilt initial {name} {mine!r} vs monitor {theirs!r}")
        if even:
            return Outcome(failures)
        witness = abs(hamiltonian(evo.state.u, grid, r)[0] - h0) / abs(h0)
        if witness > WITNESS_MAX:
            failures.append(f"Hamiltonian drift {witness:.2e}")
        return Outcome(failures, energy_drift=evo.energy_drift, witness=witness)
    return check


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

def _line(rng: np.random.Generator) -> Workload:
    points = [(r, w0 * (1 + OMEGA_JITTER * rng.uniform(-1, 1)), expected)
              for r, w0, expected in LINE_POINTS]
    ops = tuple(
        Op(f"solitary r={r} omega={w:.6f} n={n}",
           lambda r=r, w=w, n=n: rp.verdict(wv.SOLITARY, r, w, n=n),
           check_line(expected, r))
        for n in LINE_SIZES for r, w, expected in points)
    # the cheapest operation that takes every code path (r = 4 runs the
    # even pass)
    warmup = (ops[len(points) - 1].run,)
    return Workload(ops, warmup,
                    {"omega": {f"r{r}": w for r, w, _ in points},
                     "n": list(LINE_SIZES)}, blas_bound=True)


def _periodic(rng: np.random.Generator) -> Workload:
    width = (K_HI - K_LO) / K_STRATA
    ops, warmup, inputs = [], [], {}
    for family, r in PERIODIC_FAMILIES:
        ks = K_LO + width * (np.arange(K_STRATA) + rng.uniform(size=K_STRATA))
        inputs[family] = [float(k) for k in ks]
        for k in inputs[family]:
            ref = theta_reference(wv.solve_family(family, r, k))
            ops.append(Op(f"{family} k={k:.6f}",
                          lambda f=family, r=r, k=k: rp.verdict(f, r, k),
                          check_periodic(k, ref)))
        warmup.append(ops[-1].run)
    return Workload(tuple(ops), tuple(warmup), inputs)


def _stability(rng: np.random.Generator) -> Workload:
    ops, warmup = [], []
    for family, r, at, even in STABILITY_RUNS:
        def run(family=family, r=r, at=at, even=even, T=T_FINAL):
            return ev.stability_experiment(family, r, at, EPSILON, T, dt=DT,
                                           n=N_EVOLVE, even=even)
        ops.append(Op(f"{family} r={r} at={at} even={even}", run,
                      check_stability(family, r, at, even)))
        warmup.append(lambda run=run: run(T=T_WARMUP))
    return Workload(tuple(ops), tuple(warmup),
                    {"runs": [list(x) for x in STABILITY_RUNS],
                     "epsilon": EPSILON, "T": T_FINAL, "dt": DT, "n": N_EVOLVE})


def build(name: str, seed: int) -> Workload:
    """The workload's pass for this seed (the c9 points of stability_t20
    do not depend on it: only there is the growth envelope known)."""
    rng = np.random.default_rng(seed)
    return {"line_verdicts": _line, "periodic_sweep": _periodic,
            "stability_t20": _stability}[name](rng)
