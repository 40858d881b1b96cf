import dataclasses

import numpy as np
import pytest

from skwave import evolution as ev
from skwave import functionals as fn
from skwave import waves as wv
from skwave.errors import DimensionError, DomainError, UsageError
from skwave.kernel import quadrature, torus_grid, wavenumbers

from oracles import energy, kirchhoff_coefficient, mass, step_strang_allocating


@pytest.fixture(scope="module")
def dn_wave():
    params = wv.solve_periodic_r1(0.5)
    grid = torus_grid(512)
    return wv.sample_profile(params, grid)


# ----------------------------------------------------------------------
# Kirchhoff coefficient
# ----------------------------------------------------------------------

def test_kirchhoff_zero_state():
    g = torus_grid(64)
    assert kirchhoff_coefficient(np.zeros(64, complex), g) == 1.0


def test_kirchhoff_plane_wave():
    g = torus_grid(256)
    u = np.exp(2j * g.nodes)
    assert abs(kirchhoff_coefficient(u, g) - (1 + 8 * np.pi)) < 1e-10


def test_kirchhoff_dn_wave(dn_wave):
    tau1 = fn.closed_form_tau(0.5)[0]
    c = kirchhoff_coefficient(dn_wave.phi.astype(complex), dn_wave.grid)
    assert abs(c - (1 + tau1)) < 1e-8


def test_energy_is_the_monitored_energy():
    # a random state fills every mode, the Nyquist mode included, so the
    # gradient sum of the energy must be the one the flow takes
    g, r = torus_grid(64), 1
    rng = np.random.default_rng(7)
    u = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    monitored = ev.evolve(u, g, r, 1e-3, 1e-3).monitors.energy[0]
    assert abs(energy(u, g, r) - monitored) <= 1e-13 * abs(monitored)


# ----------------------------------------------------------------------
# Strang stepping
# ----------------------------------------------------------------------

def test_step_modulus_preserving_single_mode():
    g = torus_grid(128)
    u0 = 0.7 * np.exp(1j * 3 * g.nodes)
    st = ev.EvolutionState(u0, 0.0, 1, g)
    st = ev.step_strang(st, 1e-2)
    assert np.max(np.abs(np.abs(st.u) - 0.7)) < 1e-13
    # single mode stays single mode
    spec = np.abs(np.fft.fft(st.u))
    spec[3] = 0.0
    assert np.max(spec) < 1e-10 * 128


def test_step_mass_exact():
    g = torus_grid(256)
    rng = np.random.default_rng(3)
    u0 = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    st = ev.EvolutionState(u0, 0.0, 2, g)
    m0 = mass(u0, g)
    st = ev.step_strang(st, 5e-3)
    assert abs(mass(st.u, g) - m0) < 1e-13 * m0


def test_step_matches_full_propagator():
    # reference: the linear propagator exp(-i c m^2 dt) taken over all n
    # modes, with c from a plain Parseval sum
    g = torus_grid(128)
    rng = np.random.default_rng(5)
    # random amplitudes on the modes |m| <= 8 of both signs (the phase
    # c m^2 dt stays O(1), so roundoff stays O(1e-16))
    coeffs = np.zeros(128, complex)
    coeffs[np.r_[0:9, -8:0]] = rng.standard_normal(17) + 1j * rng.standard_normal(17)
    u0 = 0.3 * np.fft.ifft(coeffs) * 128 / 17
    dt, r = 1e-2, 2
    m = wavenumbers(g)
    u = u0 * np.exp(0.5j * dt * np.abs(u0) ** (2 * r))
    uh = np.fft.fft(u)
    c = 1 + g.circumference / g.n ** 2 * np.sum(m * m * np.abs(uh) ** 2)
    u = np.fft.ifft(uh * np.exp(-1j * c * m * m * dt))
    ref = u * np.exp(0.5j * dt * np.abs(u) ** (2 * r))
    st = ev.step_strang(ev.EvolutionState(u0, 0.0, r, g), dt)
    assert np.max(np.abs(st.u - ref)) < 1e-13


def test_standing_wave_orbit_distance(dn_wave):
    res = ev.evolve(dn_wave.phi.astype(complex), dn_wave.grid, 1, 1.0, 1e-3,
                    distance_profile=dn_wave)
    assert max(res.monitors.distance) < 1e-6


def test_zero_initial_data():
    g = torus_grid(64)
    res = ev.evolve(np.zeros(64, complex), g, 1, 0.5, 1e-2)
    assert np.all(res.state.u == 0)


@pytest.mark.parametrize("log_every", [0, -3])
def test_evolve_rejects_log_every_below_one(log_every):
    # 0 would divide by zero; -3 would record steps 0, 3, 6, 9 and the last
    g = torus_grid(64)
    with pytest.raises(DomainError):
        ev.evolve(np.zeros(64, complex), g, 1, 0.1, 1e-2, log_every=log_every)


@pytest.mark.parametrize("T, dt", [
    (np.nan, 1e-2), (np.inf, 1e-2), (1.0, np.nan), (1.0, np.inf),
    (1.0, 0.0)])
def test_evolve_rejects_nonfinite_or_zero_step(T, dt):
    # nan and zero made round(T / dt) raise ValueError, ZeroDivisionError
    # or OverflowError instead of a DomainError
    g = torus_grid(64)
    with pytest.raises(DomainError):
        ev.evolve(np.zeros(64, complex), g, 1, T, dt)


@pytest.mark.parametrize("dt", [np.nan, 0.0, -1e-2])
def test_step_rejects_nonpositive_or_nan_dt(dt):
    # a nan dt passed a `dt <= 0` guard and returned an all-nan state
    g = torus_grid(64)
    st = ev.EvolutionState(0.5 * np.exp(1j * g.nodes), 0.0, 1, g)
    with pytest.raises(DomainError):
        ev.step_strang(st, dt)


@pytest.mark.parametrize("shape", [(62,), (1,), (64, 1)])
def test_evolve_rejects_misshaped_state(shape):
    # a short state raised a bare ValueError from parseval, an (n, 1)
    # one a TypeError
    g = torus_grid(64)
    with pytest.raises(DimensionError):
        ev.evolve(np.zeros(shape, complex), g, 1, 0.1, 1e-2)


def test_evolve_rejects_fractional_step_count():
    # 1.0 / 0.3 steps would silently end the run at t = 0.9
    g = torus_grid(64)
    with pytest.raises(DomainError):
        ev.evolve(np.zeros(64, complex), g, 1, 1.0, 0.3)


def test_plane_wave_closed_form():
    # one Fourier mode: the Kirchhoff coefficient is constant in time and
    # the solution is A e^{i m x} e^{i(|A|^{2r} - c m^2) t} exactly
    A, m, r = 0.5, 1, 1
    g = torus_grid(512)
    u0 = A * np.exp(1j * m * g.nodes)
    c = 1 + m * m * A * A * 2 * np.pi
    lam = A ** (2 * r) - c * m * m
    res = ev.evolve(u0, g, r, 1.0, 1e-3)
    exact = u0 * np.exp(1j * lam * 1.0)
    assert np.max(np.abs(res.state.u - exact)) < 1e-8


def test_energy_drift_second_order(dn_wave):
    # a perturbed state: on the exact wave the Hamiltonian drifts only at
    # roundoff (~1e-14), which leaves no order to measure
    u0 = dn_wave.phi.astype(complex) + 0.01 * np.cos(dn_wave.grid.nodes)
    d1 = ev.evolve(u0, dn_wave.grid, 1, 2.0, 2e-3).energy_drift
    d2 = ev.evolve(u0, dn_wave.grid, 1, 2.0, 1e-3).energy_drift
    assert 3.0 < d1 / d2 < 5.0


@pytest.mark.parametrize("dt", [2e-3, 1e-3])
def test_cadence_hides_no_energy_drift(dn_wave, dt):
    # the default cadence (every 5th and 10th step here) sees the
    # per-step maximum: measured ratio 0.9999 at both dt
    u0 = dn_wave.phi.astype(complex) + 0.01 * np.cos(dn_wave.grid.nodes)
    sparse = ev.evolve(u0, dn_wave.grid, 1, 2.0, dt)
    dense = ev.evolve(u0, dn_wave.grid, 1, 2.0, dt, log_every=1)
    assert len(sparse.monitors.t) < len(dense.monitors.t)
    assert sparse.energy_drift >= 0.99 * dense.energy_drift


def test_monitors_follow_cadence(monkeypatch):
    # one forward transform per step plus one per record; per-step
    # monitoring would take two per step
    g = torus_grid(64)
    calls = []
    dft_into = ev.dft_into

    def counting_dft_into(*args):
        calls.append(1)
        return dft_into(*args)

    monkeypatch.setattr(ev, "dft_into", counting_dft_into)
    n_steps, log_every = 100, 10
    res = ev.evolve(0.5 * np.exp(1j * g.nodes), g, 1, n_steps * 1e-2, 1e-2,
                    log_every=log_every)
    mon = res.monitors
    assert mon.steps == list(range(0, n_steps + 1, log_every))
    assert len(mon.t) == len(mon.mass) == len(mon.energy) == len(mon.kirchhoff)
    assert np.allclose(mon.t, 1e-2 * np.array(mon.steps), rtol=0, atol=1e-12)
    assert len(calls) == n_steps + len(mon.steps)


@pytest.fixture
def half_kicks(monkeypatch):
    """The nonlinear half-kick phases evaluated while the test runs."""
    calls = []
    half_kick = ev._half_kick

    def counting_half_kick(*args):
        calls.append(1)
        return half_kick(*args)

    monkeypatch.setattr(ev, "_half_kick", counting_half_kick)
    return calls


def test_one_half_kick_phase_per_step(half_kicks):
    # the trailing half-kick of a step is the leading one of the next:
    # N steps evaluate N + 1 nonlinear phases, not 2N
    g = torus_grid(64)
    n_steps = 100
    ev.evolve(0.5 * np.exp(1j * g.nodes), g, 1, n_steps * 1e-2, 1e-2,
              log_every=10)
    assert len(half_kicks) == n_steps + 1


def test_trajectory_matches_fresh_steps(dn_wave):
    # evolve's shared half-kicks against steps from states built afresh,
    # which carry no phase and compute both half-kicks (measured: final
    # states 2.4e-14 apart, record energies 1.1e-14 relative)
    g, r = dn_wave.grid, 1
    u0 = dn_wave.phi.astype(complex) + 0.01 * (np.cos(g.nodes)
                                               + 1j * np.sin(2 * g.nodes))
    dt, n_steps = 1e-3, 2000
    res = ev.evolve(u0, g, r, n_steps * dt, dt)
    log_every = res.monitors.steps[1]

    def energy(u):
        return fn.kirchhoff_energy(
            kirchhoff_coefficient(u, g) - 1.0,
            quadrature(g, (u.real ** 2 + u.imag ** 2) ** (r + 1)), r)

    u, mass0, energies = u0, mass(u0, g), [energy(u0)]
    for step in range(1, n_steps + 1):
        u = ev.step_strang(ev.EvolutionState(u, 0.0, r, g), dt).u
        if step % log_every == 0:
            energies.append(energy(u))
    assert np.max(np.abs(res.state.u - u)) <= 1e-12
    assert abs(mass(u, g) - mass0) <= 1e-12 * mass0
    assert res.mass_drift <= 1e-12
    energies = np.array(energies)
    assert np.max(np.abs(energies - res.monitors.energy)) <= 1e-10 * abs(energies[0])
    fresh_drift = np.max(np.abs(energies - energies[0])) / abs(energies[0])
    assert abs(fresh_drift - res.energy_drift) <= 1e-10


def test_built_state_has_no_phase(half_kicks):
    g = torus_grid(64)
    st = ev.EvolutionState(0.5 * np.exp(1j * g.nodes), 0.0, 1, g)
    assert st.half_kick is None
    stepped = ev.step_strang(st, 1e-2)
    assert len(half_kicks) == 2
    assert stepped.half_kick[0] is stepped.u and stepped.half_kick[1] == 1e-2
    # dataclasses.replace builds a new state: the phase is not copied
    assert dataclasses.replace(stepped, u=stepped.u.copy()).half_kick is None
    ev.step_strang(stepped, 1e-2)
    assert len(half_kicks) == 3


def test_phase_never_reused_for_another_dt(half_kicks):
    g = torus_grid(64)
    u0 = 0.5 * np.exp(1j * g.nodes) + 0.3 * np.cos(2 * g.nodes)
    st = ev.step_strang(ev.EvolutionState(u0, 0.0, 2, g), 1e-2)
    half_kicks.clear()
    new = ev.step_strang(st, 2e-2)
    assert len(half_kicks) == 2
    ref = ev.step_strang(ev.EvolutionState(st.u.copy(), st.t, 2, g), 2e-2)
    assert np.array_equal(new.u, ref.u)


def test_stepped_state_is_read_only(half_kicks):
    g = torus_grid(64)
    u0 = 0.5 * np.exp(1j * g.nodes) + 0.3 * np.cos(2 * g.nodes)
    st = ev.step_strang(ev.EvolutionState(u0, 0.0, 1, g), 1e-2)
    # an in-place change cannot keep the old phase ...
    with pytest.raises(ValueError):
        st.u[3] = 0.0
    # ... and a rebound u does not inherit it
    st.u = st.u + 0.1
    half_kicks.clear()
    new = ev.step_strang(st, 1e-2)
    assert len(half_kicks) == 2
    ref = ev.step_strang(ev.EvolutionState(st.u, st.t, 1, g), 1e-2)
    assert np.array_equal(new.u, ref.u)


@pytest.mark.filterwarnings("ignore:r = 4 evolution")
@pytest.mark.parametrize("family, r, at, even", [
    ("periodic_dn", 1, 0.5, False), ("solitary", 2, 0.5, False),
    ("solitary", 4, 0.3, True)])
def test_in_place_step_matches_allocating_step(monkeypatch, family, r, at, even):
    # the c9 runs to T = 2 (2000 steps), with the in-place step and with
    # the allocating step it replaced: every bit of the final state and
    # of every record is the same
    def run():
        return ev.stability_experiment(family, r, at, 1e-2, 2.0, even=even)

    new = run()
    monkeypatch.setattr(ev, "step_strang", step_strang_allocating)
    old = run()
    assert np.array_equal(new.evolution.state.u, old.evolution.state.u)
    assert new.evolution.monitors == old.evolution.monitors
    assert new.evolution.energy_drift == old.evolution.energy_drift
    assert new.growth_ratio == old.growth_ratio


def test_energy_drift_perturbed_solitary():
    # G = int |u_x|^2 moves along a perturbed run, so only the true
    # Hamiltonian G/2 + G^2/4 - ... is flat (a G^2/2 term drifts by 0.49)
    res = ev.stability_experiment("solitary", 2, 0.5, 1e-2, 1.0)
    assert res.evolution.energy_drift <= 1e-5


def test_mass_conservation_long_run(dn_wave):
    u0 = dn_wave.phi.astype(complex) + 0.01 * np.cos(dn_wave.grid.nodes)
    res = ev.evolve(u0, dn_wave.grid, 1, 10.0, 1e-3)
    assert res.mass_drift <= 1e-10


# ----------------------------------------------------------------------
# orbital distance
# ----------------------------------------------------------------------

def test_distance_member_of_orbit(dn_wave):
    res = ev.orbital_distance(dn_wave.phi.astype(complex), dn_wave)
    assert res.distance < 1e-12


def test_distance_group_recovery(dn_wave):
    u = np.exp(1.2j) * np.roll(dn_wave.phi, 5).astype(complex)
    res = ev.orbital_distance(u, dn_wave)
    assert res.distance < 1e-12
    assert abs(res.theta_opt - 1.2) < 1e-10
    assert abs(res.s_opt - dn_wave.grid.nodes[5]) < 1e-12


def test_distance_invariant_under_group_action(dn_wave, rng):
    u = dn_wave.phi.astype(complex) + 1e-3 * (
        rng.standard_normal(512) * 0 + np.cos(dn_wave.grid.nodes)
        + 1j * np.sin(2 * dn_wave.grid.nodes))
    d0 = ev.orbital_distance(u, dn_wave).distance
    moved = np.exp(0.8j) * np.roll(u, 17)
    d1 = ev.orbital_distance(moved, dn_wave).distance
    assert abs(d0 - d1) < 1e-12


def test_distance_small_perturbation_vs_brute_force(dn_wave):
    g = dn_wave.grid
    eps = 1e-3
    u = dn_wave.phi.astype(complex) + eps * (np.cos(g.nodes)
                                             + 1j * np.sin(2 * g.nodes))
    fast = ev.orbital_distance(u, dn_wave)
    assert 0 < fast.distance <= 2 * eps * np.sqrt(
        ev.h1_norm_sq(g, np.cos(g.nodes) + 1j * np.sin(2 * g.nodes)) / eps ** 0)
    # brute-force oracle: dense scan over rotation x shift lattice
    best = np.inf
    for j in range(g.n):
        shifted = np.roll(dn_wave.phi, j).astype(complex)
        for th in np.linspace(0, 2 * np.pi, 181):
            d2 = ev.h1_norm_sq(g, u - np.exp(1j * th) * shifted)
            best = min(best, d2)
    assert fast.distance <= np.sqrt(best) + 1e-12
    assert np.sqrt(best) - fast.distance < 1e-4  # scan is theta-coarse


def test_distance_rotation_only(dn_wave):
    u = np.exp(0.4j) * dn_wave.phi.astype(complex)
    res = ev.orbital_distance(u, dn_wave, rotation_only=True)
    assert res.distance < 1e-12
    assert res.s_opt == 0.0
    # a 40-node shift is invisible to rotations alone (measured 0.062)
    shifted = np.roll(dn_wave.phi, 40).astype(complex)
    assert ev.orbital_distance(shifted, dn_wave, rotation_only=True).distance > 0.05


# ----------------------------------------------------------------------
# experiments
# ----------------------------------------------------------------------

def test_experiment_grid_for_solitary():
    p = wv.solve_solitary(2, 0.5)
    g = ev.experiment_grid(p, 512)
    assert g.topology == "torus"
    assert g.circumference >= 8 * p.r / p.b
    phi = wv.profile_values(p, g.nodes)[0]
    assert np.max(phi) / p.a > 1 - 1e-10
    assert np.min(phi) < 1e-11 * p.a


def test_experiment_epsilon_guard():
    with pytest.raises(DomainError):
        ev.stability_experiment("periodic_dn", 1, 0.5, 0.5, 1.0)


@pytest.mark.parametrize("epsilon", [np.nan, np.inf, -np.inf])
def test_experiment_rejects_nonfinite_epsilon(epsilon):
    # nan passed the 5% check and came back as growth_ratio inf
    with pytest.raises(DomainError, match="epsilon"):
        ev.stability_experiment("periodic_dn", 1, 0.5, epsilon, 1.0)


def test_short_stable_experiment():
    res = ev.stability_experiment("periodic_dn", 1, 0.5, 1e-2, 2.0, dt=2e-3)
    assert res.blow_up is None
    assert res.growth_ratio < 10
    assert res.evolution.mass_drift < 1e-10


def test_trajectory_export(tmp_path):
    # 1000 steps: the default cadence records every 5th
    res = ev.stability_experiment("periodic_dn", 1, 0.5, 1e-2, 1.0, dt=1e-3)
    csv_path = tmp_path / "traj.csv"
    ev.write_trajectory_csv(csv_path, res.evolution)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,mass,energy,kirchhoff_c,orbital_distance"
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    mon = res.evolution.monitors
    assert rows.shape == (len(mon.t), 5) == (201, 5)
    assert np.allclose(rows[:, 0], 5e-3 * np.arange(201), rtol=0, atol=1e-12)
    assert np.allclose(rows[:, 4], mon.distance, rtol=1e-11, atol=0)
    man = res.manifest()
    assert man["family"] == "periodic_dn"
    assert man["initial_distance"] > 0


def test_blow_up_flagged():
    # both substeps preserve the discrete norm, so the scheme itself
    # cannot overflow; the flag guards against non-finite states and is
    # exercised here by direct injection
    g = torus_grid(128)
    u0 = np.ones(128, complex)
    u0[5] = np.nan
    with pytest.warns(UserWarning, match="small initial mass"):
        res = ev.evolve(u0, g, 4, 0.1, 1e-2, log_every=1)
    assert res.blow_up is not None
    assert res.blow_up <= 0.1


def _poison_step_7(monkeypatch, value):
    """Run 100 steps with ``value`` written into the state of step 7; the
    steps taken, one entry each."""
    g = torus_grid(64)
    step = ev.step_strang
    taken = []

    def poison_at_step_7(state, dt, steps=1):
        # one step at a time, stopping on a non-finite state as the
        # program does
        for _ in range(steps):
            taken.append(1)
            state = step(state, dt)
            if len(taken) == 7:
                # a stepped u is read-only: hand back a poisoned copy
                u = state.u.copy()
                u[3] = value
                state = ev.EvolutionState(u, state.t, state.r, state.grid)
            if not np.isfinite(state.u).all():
                break
        return state

    monkeypatch.setattr(ev, "step_strang", poison_at_step_7)
    return ev.evolve(0.5 * np.exp(1j * g.nodes), g, 1, 1.0, 1e-2,
                     log_every=50), taken


def test_blow_up_detected_between_records(monkeypatch):
    # the finiteness check runs every step, not on the logging cadence
    res, taken = _poison_step_7(monkeypatch, np.nan)
    assert abs(res.blow_up - 7e-2) < 1e-12
    assert len(taken) == 7
    assert res.state.t == res.blow_up
    assert res.monitors.steps == [0]


def test_blow_up_inf_detected_between_records(monkeypatch):
    # the check sums the state: one inf entry makes the sum non-finite
    res, taken = _poison_step_7(monkeypatch, np.inf)
    assert abs(res.blow_up - 7e-2) < 1e-12
    assert len(taken) == 7
    assert res.monitors.steps == [0]


def test_blow_up_stops_inside_the_stepper(monkeypatch):
    # a NaN in the 7th inverse transform: the stepper itself stops at
    # that step, inside its first record interval, and evolve stamps it
    g = torus_grid(64)
    idft_into = ev.idft_into
    outputs = []

    def poison_7th_output(*args):
        out = idft_into(*args)
        outputs.append(1)
        if len(outputs) == 7:
            out[3] = np.nan
        return out

    monkeypatch.setattr(ev, "idft_into", poison_7th_output)
    res = ev.evolve(0.5 * np.exp(1j * g.nodes), g, 1, 1.0, 1e-2,
                    log_every=50)
    assert abs(res.blow_up - 7e-2) < 1e-12
    assert res.state.t == res.blow_up
    assert not np.isfinite(res.state.u).all()
    assert len(outputs) == 7
    assert res.monitors.steps == [0]


@pytest.mark.parametrize("steps", [1, 7, 100])
def test_step_count_is_chained_single_steps(dn_wave, steps):
    # the c9 dn state: one call of k steps against k one-step calls,
    # bit for bit in u, t and the phase the next call reuses
    g, dt = dn_wave.grid, 1e-3
    u0 = dn_wave.phi.astype(complex) + 1e-2 * (np.cos(g.nodes)
                                               + 1j * np.sin(2 * g.nodes))
    for start in (ev.EvolutionState(u0, 0.0, 1, g),
                  ev.step_strang(ev.EvolutionState(u0, 0.0, 1, g), dt)):
        held = (start.u.copy(), start.half_kick and start.half_kick[2].copy())
        chained = start
        for _ in range(steps):
            chained = ev.step_strang(chained, dt)
        whole = ev.step_strang(start, dt, steps)
        assert np.array_equal(whole.u, chained.u)
        assert whole.t == chained.t
        assert whole.half_kick[0] is whole.u and whole.half_kick[1] == dt
        assert np.array_equal(whole.half_kick[2], chained.half_kick[2])
        assert not whole.u.flags.writeable
        # the state the caller holds, and its phase, are untouched
        assert np.array_equal(start.u, held[0])
        assert held[1] is None or np.array_equal(start.half_kick[2], held[1])


@pytest.mark.parametrize("steps", [0, -3, 2.5])
def test_step_rejects_a_step_count_below_one_or_fractional(steps):
    g = torus_grid(64)
    st = ev.EvolutionState(0.5 * np.exp(1j * g.nodes), 0.0, 1, g)
    with pytest.raises(DomainError):
        ev.step_strang(st, 1e-2, steps)


def test_evolution_rejects_line_grid():
    from skwave.kernel import line_grid
    with pytest.raises(UsageError):
        ev.evolve(np.zeros(64, complex), line_grid(5, 64), 1, 0.1, 1e-2)
