"""The one time loop behind both solvers: engine passes per run and where a blow-up is located.

A run builds one interaction plan and steps one stacked array of all species'
points.  A recorded state's field and energy come from one engine pass, and the field
serves the first stage of the next step (and, for a quantile state, its
dissipation), so an RK4 run of S steps evaluates the engine 4S + 1 times
whatever its record interval, quantile and particle runs alike.  A
non-finite velocity is caught at the stage that produced it and named by the
first interacting pair (i, j, k, l) that overflows.
"""

from dataclasses import replace

import numpy as np
import pytest

import multiagg as mg
from multiagg import engine
from multiagg.measures import particles_from_quantile
from multiagg.quantile_solver import SolverConfig, run


def count_engine_passes(monkeypatch):
    """Wrap the interaction plan's pass, which every engine call makes; returns the call
    counter."""
    calls = [0]
    original = engine.InteractionPlan.fields

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(engine.InteractionPlan, "fields", counted)
    return calls


def count_plans(monkeypatch):
    """Wrap the interaction plan's build; returns the call counter."""
    calls = [0]
    original = engine.InteractionPlan.__init__

    def counted(*args, **kwargs):
        calls[0] += 1
        original(*args, **kwargs)

    monkeypatch.setattr(engine.InteractionPlan, "__init__", counted)
    return calls


def two_species():
    pm = mg.matrix_from_entries([[mg.GaussianAR(1.0, 1.0, 0.5, 0.3), mg.Quadratic(0.5)],
                                 [None, mg.Power(3.0, 0.5)]], kappa=np.zeros((2, 2)))
    params = mg.SystemParams(m=[1.0, 0.7], p=[1.0, 1.3], E=[0.0])
    rng = np.random.default_rng(3)
    return mg.QuantileState(np.sort(rng.normal(0.0, 1.0, (2, 24)), axis=1), params), pm


STEPS = 10


@pytest.mark.parametrize("every", [1, 5])
def test_rk4_run_evaluates_the_engine_4s_plus_1_times(monkeypatch, every):
    qs, pm = two_species()
    calls = count_engine_passes(monkeypatch)
    traj = run(qs, pm, SolverConfig(dt=0.01, t_end=STEPS * 0.01, scheme="rk4",
                                    record_every=every))
    assert len(traj.records) == STEPS // every + 1
    assert calls[0] == 4 * STEPS + 1


def test_euler_run_evaluates_the_engine_s_plus_1_times(monkeypatch):
    qs, pm = two_species()
    calls = count_engine_passes(monkeypatch)
    run(qs, pm, SolverConfig(dt=0.01, t_end=STEPS * 0.01, scheme="euler", record_every=3))
    assert calls[0] == STEPS + 1


def test_particle_run_evaluates_the_engine_4s_plus_1_times(monkeypatch):
    qs, pm = two_species()
    calls = count_engine_passes(monkeypatch)
    mg.run(particles_from_quantile(qs), pm,
           SolverConfig(dt=0.01, t_end=STEPS * 0.01, scheme="rk4", record_every=1))
    assert calls[0] == 4 * STEPS + 1


@pytest.mark.parametrize("particles", [False, True])
def test_a_run_and_a_step_build_one_plan(monkeypatch, particles):
    qs, pm = two_species()
    state = particles_from_quantile(qs) if particles else qs
    built = count_plans(monkeypatch)
    run(state, pm, SolverConfig(dt=0.01, t_end=STEPS * 0.01, scheme="rk4", record_every=3))
    assert built[0] == 1
    built[0] = 0
    run(state, pm, SolverConfig(dt=0.01, t_end=0.01, scheme="rk4"))
    assert built[0] == 1


@pytest.mark.parametrize("d", [1, 2, 3])
def test_recorded_energy_is_the_energy_of_the_recorded_state(d):
    # A record's energy comes from its field pass; the energy alone agrees bit for bit.
    _, pm = two_species()
    rng = np.random.default_rng(4)
    ps = mg.ParticleState([rng.normal(0.0, 1.0, (24, d)) for _ in range(2)],
                          [np.full(24, 1.0 / 24.0), np.full(24, 1.3 / 24.0)],
                          mg.SystemParams(m=[1.0, 0.7], p=[1.0, 1.3], E=[0.0] * d, d=d))
    cfg = SolverConfig(dt=0.01, t_end=5 * 0.01, scheme="rk4", record_every=2)
    traj = mg.run(ps, pm, cfg)
    assert traj.energies == [mg.energy(state, pm) for state in traj.states]


def test_reused_field_leaves_the_trajectory_unchanged():
    # The same steps taken one at a time, each from a freshly evaluated first stage.
    qs, pm = two_species()
    cfg = SolverConfig(dt=0.01, t_end=STEPS * 0.01, scheme="rk4", record_every=1)
    traj = run(qs, pm, cfg)
    state = qs
    for k in range(STEPS):
        state = run(state, pm, replace(cfg, t_end=cfg.dt)).final_state
        assert np.array_equal(state.u, traj.states[k + 1].u)
        rec = mg.diagnostics.record(state, pm, traj.times[k + 1])
        assert rec.dissipation == traj.records[k + 1].dissipation
        assert traj.records[k + 1].energy == mg.energy(state, pm)


def mixed_quantile():
    """Three species with every sum method of d = 1: direct Morse and GaussianAR self
    pairs, a Tabulated self pair and a Power q = 3 pair on prefix tables, a Quadratic
    pair by moments and a Zero pair skipped."""
    knots = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0]
    tab = mg.Tabulated(knots, [0.5 * k * k + 0.25 * np.exp(-k * k) for k in knots],
                       [k - 0.5 * k * np.exp(-k * k) for k in knots])
    pm = mg.matrix_from_entries([[mg.Morse(1.0, 1.0, 0.5, 0.25, eps=0.1), mg.Power(3.0, 0.5),
                                  mg.Quadratic(1.0)],
                                 [None, mg.GaussianAR(1.0, 1.0, 0.6, 0.2), mg.Zero()],
                                 [None, None, tab]], kappa=np.zeros((3, 3)))
    params = mg.SystemParams(m=[1.0, 0.5, 1.5], p=[1.0, 0.8, 1.2], E=[0.0])
    rng = np.random.default_rng(8)
    return mg.QuantileState(np.sort(rng.normal(0.0, 1.0, (3, 24)), axis=1), params), pm


def planar_particles():
    """Two species in the plane, the cross pair a Morse kernel on direct tiles."""
    pm = mg.matrix_from_entries([[mg.GaussianAR(1.0, 1.0, 0.6, 0.2),
                                  mg.Morse(1.0, 1.0, 0.5, 0.3, eps=0.05)],
                                 [None, mg.Quadratic(0.5)]], kappa=np.zeros((2, 2)))
    rng = np.random.default_rng(9)
    masses = [rng.uniform(0.5, 1.5, 30) / 30, rng.uniform(0.5, 1.5, 20) / 20]
    params = mg.SystemParams(m=[1.0, 0.8], p=[w.sum() for w in masses], E=[0.0, 0.0], d=2)
    return mg.ParticleState([rng.normal(0.0, 1.0, (30, 2)), rng.normal(0.5, 0.7, (20, 2))],
                            masses, params), pm


def reference_states(state, pm, dt, steps, scheme):
    """The states of a run written out species by species over ``pair_fields``, with a
    quantile state sorted after each step (a no-op unless its cells crossed)."""
    xs, ws = state.clouds()
    xs, m = list(xs), state.params.m

    def f(ys):
        return [-m[i] * g for i, g in enumerate(engine.pair_fields(pm, ys, ws))]

    states = [state]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(steps):
            k1 = f(xs)
            if scheme == "euler":
                xs = [x + dt * a for x, a in zip(xs, k1)]
            else:
                k2 = f([x + 0.5 * dt * a for x, a in zip(xs, k1)])
                k3 = f([x + 0.5 * dt * a for x, a in zip(xs, k2)])
                k4 = f([x + dt * a for x, a in zip(xs, k3)])
                xs = [x + dt / 6.0 * (a + 2.0 * b + 2.0 * c + e)
                      for x, a, b, c, e in zip(xs, k1, k2, k3, k4)]
            if isinstance(state, mg.QuantileState):
                xs = [np.sort(x, axis=0) for x in xs]
            states.append(state.with_clouds(xs))
    return states


@pytest.mark.parametrize("scheme", ["euler", "rk4"])
@pytest.mark.parametrize("system", [mixed_quantile, planar_particles])
def test_run_equals_the_loop_over_pair_fields_bit_for_bit(system, scheme):
    state, pm = system()
    steps, dt = 12, 0.02
    traj = run(state, pm, SolverConfig(dt=dt, t_end=steps * dt, scheme=scheme))
    expected = reference_states(state, pm, dt, steps, scheme)
    assert len(traj.states) == len(expected) == steps + 1
    for got, want, rec in zip(traj.states, expected, traj.records):
        for a, b in zip(got.clouds()[0], want.clouds()[0]):
            assert np.array_equal(a, b)
        assert rec.energy == mg.energy(want, pm)
        assert rec.dissipation == mg.dissipation(want, pm)


def blowup():
    pm = mg.matrix_from_entries([[mg.Power(q=6.0, a=-1e4)]], kappa=[[0.0]])
    qs = mg.QuantileState(np.array([[-1.0, 1.0]]), mg.SystemParams(m=[1.0], p=[1.0], E=[0.0]))
    return qs, pm


@pytest.mark.parametrize("scheme", ["rk4", "euler"])
def test_quantile_blowup_names_the_pair(scheme):
    qs, pm = blowup()
    cfg = SolverConfig(dt=0.5, t_end=5.0, scheme=scheme, repair="none")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(mg.NumericsError) as exc:
            run(qs, pm, cfg)
    # The stage that overflows sees finite points; the pair (k=0, l=1) is its first overflow.
    assert exc.value.witness == {"i": 0, "j": 0, "k": 0, "l": 1}
    assert exc.value.partial.times[0] == 0.0


@pytest.mark.parametrize("scheme", ["rk4", "euler"])
def test_particle_blowup_names_the_pair(scheme):
    qs, pm = blowup()
    cfg = SolverConfig(dt=0.5, t_end=5.0, scheme=scheme)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(mg.NumericsError) as exc:
            mg.run(particles_from_quantile(qs), pm, cfg)
    assert exc.value.witness == {"i": 0, "j": 0, "k": 0, "l": 1}
    assert exc.value.partial.times[0] == 0.0


@pytest.mark.parametrize("scheme", ["rk4", "euler"])
def test_particle_blowup_in_the_plane_names_the_pair(scheme):
    # The d = 1 blow-up turned into the plane: the same pair overflows at the same stage.
    qs, pm = blowup()
    ps = mg.ParticleState([np.array([[-0.6, -0.8], [0.6, 0.8]])], [np.array([0.5, 0.5])],
                          mg.SystemParams(m=[1.0], p=[1.0], E=[0.0, 0.0], d=2))
    cfg = SolverConfig(dt=0.5, t_end=5.0, scheme=scheme)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(mg.NumericsError) as line:
            mg.run(particles_from_quantile(qs), pm, cfg)
        with pytest.raises(mg.NumericsError) as plane:
            mg.run(ps, pm, cfg)
    assert plane.value.witness == {"i": 0, "j": 0, "k": 0, "l": 1}
    assert plane.value.partial.times == line.value.partial.times


def test_last_recorded_field_is_checked():
    # A run of no steps on a finite state whose field overflows: no step
    # takes the recorded field as its first stage, so the loop checks it.
    pm = mg.matrix_from_entries([[mg.Power(q=6.0, a=1.0)]], kappa=[[0.0]])
    qs = mg.QuantileState(np.array([[-1e62, 1e62]]), mg.SystemParams(m=[1.0], p=[1.0], E=[0.0]))
    with np.errstate(over="ignore"):
        with pytest.raises(mg.NumericsError) as exc:
            run(qs, pm, SolverConfig(dt=0.1, t_end=0.0))
    assert exc.value.witness == {"i": 0, "j": 0, "k": 0, "l": 1}
    assert exc.value.partial.times == [0.0]


@pytest.mark.parametrize("particles", [False, True])
def test_a_run_builds_a_state_only_for_a_record(monkeypatch, particles):
    qs, pm = two_species()
    state = particles_from_quantile(qs) if particles else qs
    built = [0]
    for cls in (mg.QuantileState, mg.ParticleState):
        def counted(self, original=cls.__post_init__):
            built[0] += 1
            original(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    traj = run(state, pm, SolverConfig(dt=0.01, t_end=20 * 0.01, record_every=5))
    assert len(traj.records) == 5 and traj.states[0] is state
    assert built[0] <= len(traj.records)


def crossing_run(repair):
    # Two cells attracted at very different strengths: an Euler step of 0.9
    # makes them cross.
    pm = mg.matrix_from_entries([[mg.GaussianAR(1.0, 1.0, 0.0, 1.0)]], kappa=[[-1.0]])
    u = np.array([[0.0, 2.4, 2.6]])
    qs = mg.QuantileState(u, mg.SystemParams(m=[1.0], p=[1.0], E=[u.mean()]))
    return run(qs, pm, SolverConfig(dt=0.9, t_end=1.8, scheme="euler", repair=repair))


def test_run_counts_and_repairs_crossings():
    fixed, raw = crossing_run("sort"), crossing_run("none")
    assert (fixed.monotonicity_violations, fixed.repair_events) == (2, 2)
    assert (raw.monotonicity_violations, raw.repair_events) == (1, 0)
    assert all((np.diff(state.u, axis=1) >= 0.0).all() for state in fixed.states)
    assert raw.times[1] == 0.9 and not (np.diff(raw.states[1].u, axis=1) >= 0.0).all()
