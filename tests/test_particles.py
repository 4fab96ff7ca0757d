from dataclasses import replace

import numpy as np
import pytest

import multiagg as mg
from multiagg.diagnostics import energy
from multiagg.measures import compound_distance
from multiagg.quantile_solver import SolverConfig, run, velocity


def sp(m, p, E, d=1):
    E = [E] * d if np.ndim(E) == 0 else E
    return mg.SystemParams(m=m, p=p, E=E, d=d)


def test_single_particle_is_stationary():
    pm = mg.matrix_from_entries([[mg.GaussianAR(1.0, 1.0, 0.5, 2.0)]], kappa=[[0.0]])
    ps = mg.ParticleState([np.array([2.0])], [np.array([1.0])], sp([1.0], [1.0], 2.0))
    vel = velocity(ps, pm)
    assert np.all(vel[0] == 0.0)
    traj = run(ps, pm, SolverConfig(dt=0.1, t_end=1.0))
    assert np.array_equal(traj.final_state.positions[0], ps.positions[0])


def test_pair_velocities_quadratic():
    pm = mg.matrix_from_entries([[mg.Quadratic(1.0)]], kappa=[[1.0]])
    ps = mg.ParticleState([np.array([1.0, -1.0])], [np.array([1.0, 1.0])],
                          sp([1.0], [2.0], 0.0))
    vel = velocity(ps, pm)[0].ravel()
    assert vel[0] == -2.0  # particle at +1 pulled left
    assert vel[1] == 2.0


def test_rotation_equivariance_d2():
    rng = np.random.default_rng(12)
    pm = mg.matrix_from_entries(
        [[mg.GaussianAR(1.0, 1.0, 0.5, 2.0), mg.Quadratic(0.7)],
         [None, mg.GaussianAR(0.5, 2.0, 0.2, 1.0)]],
        kappa=np.zeros((2, 2)))
    xs = [rng.normal(size=(4, 2)), rng.normal(size=(3, 2))]
    ws = [np.full(4, 0.25), np.full(3, 1.0 / 3.0)]
    params = sp([1.0, 2.0], [1.0, 1.0], [0.0, 0.0], d=2)
    center = sum((w[:, None] * x).sum(0) / m for x, w, m in zip(xs, ws, [1.0, 2.0]))
    params = mg.SystemParams(m=[1.0, 2.0], p=[1.0, 1.0], E=center, d=2)
    ps = mg.ParticleState(xs, ws, params)
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    ps_rot = mg.ParticleState([x @ rot.T for x in xs], ws,
                              mg.SystemParams(m=[1.0, 2.0], p=[1.0, 1.0],
                                              E=rot @ center, d=2))
    vel = velocity(ps, pm)
    vel_rot = velocity(ps_rot, pm)
    for v, vr in zip(vel, vel_rot):
        assert np.abs(vr - v @ rot.T).max() < 1e-12


def test_particle_energy_worked_examples():
    pm = mg.matrix_from_entries([[mg.Quadratic(1.0)]], kappa=[[1.0]])
    ps = mg.ParticleState([np.array([-1.0, 1.0])], [np.array([1.0, 1.0])],
                          sp([1.0], [2.0], 0.0))
    assert energy(ps, pm) == 2.0  # 1/2 (0 + 2 + 2 + 0)

    gauss = mg.matrix_from_entries([[mg.GaussianAR(1.0, 1.0, 0.0, 1.0)]], kappa=[[0.0]])
    single = mg.ParticleState([np.array([3.0])], [np.array([2.0])], sp([1.0], [2.0], 6.0))
    assert energy(single, gauss) == 0.5 * 4.0 * (-1.0)  # p^2 W(0) / 2


def test_particle_energy_matches_quantile_energy():
    rng = np.random.default_rng(21)
    pm = mg.matrix_from_entries(
        [[mg.GaussianAR(1.0, 1.0, 0.5, 2.0), mg.Quadratic(0.6)],
         [None, mg.DoubleWell(0.3, 0.4)]],
        kappa=np.zeros((2, 2)))
    M = 8
    u = np.sort(rng.normal(size=(2, M)), axis=1)
    params = sp([1.0, 0.5], [1.0, 2.0],
                float(np.sum([1.0, 2.0] / np.array([1.0, 0.5]) * u.mean(axis=1))))
    qs = mg.QuantileState(u, params)
    ps = mg.particles_from_quantile(qs)
    assert energy(ps, pm) == pytest.approx(mg.energy(qs, pm), rel=1e-12)


def test_labelled_metric_examples():
    params = sp([1.0], [1.0], 0.0)
    a = mg.ParticleState([np.array([0.0])], [np.array([1.0])], params)
    b = mg.ParticleState([np.array([2.0])], [np.array([1.0])],
                         sp([1.0], [1.0], 2.0))
    assert compound_distance(a, a) == 0.0
    assert compound_distance(a, b) == 2.0
    # swapping identical particles: the measures agree, the labelled metric does not
    params2 = sp([1.0], [2.0], 1.0)
    c = mg.ParticleState([np.array([0.0, 1.0])], [np.array([1.0, 1.0])], params2)
    d = mg.ParticleState([np.array([1.0, 0.0])], [np.array([1.0, 1.0])], params2)
    assert compound_distance(c, d) > 0.0
    assert mg.compound_distance(mg.quantile_from_particles(c, 8),
                                mg.quantile_from_particles(d, 8)) == 0.0


def test_labelled_metric_shape_errors():
    params = sp([1.0], [1.0], 0.0)
    a = mg.ParticleState([np.array([0.0])], [np.array([1.0])], params)
    b = mg.ParticleState([np.array([0.0, 0.0])], [np.array([0.5, 0.5])], params)
    with pytest.raises(ValueError):
        compound_distance(a, b)


def test_pair_separation_decays_at_total_mass_rate():
    # separation s satisfies ds/dt = -m kappa P s for a quadratic kernel
    pm = mg.matrix_from_entries([[mg.Quadratic(1.0)]], kappa=[[1.0]])
    w = np.array([0.4, 0.6])
    x0 = np.array([-0.5, 0.7])
    ps = mg.ParticleState([x0], [w], sp([1.0], [1.0], float(x0 @ w)))
    traj = run(ps, pm, SolverConfig(dt=1e-2, t_end=1.0, record_every=10))
    x = traj.final_state.positions[0].ravel()
    assert abs(x[1] - x[0]) == pytest.approx(1.2 * np.exp(-1.0), rel=1e-6)


def test_convergence_to_weighted_center(two_species_attractive):
    pm, _ = two_species_attractive
    xs = [np.array([-1.0, 0.0, 0.5]), np.array([0.25, 1.0])]
    ps = mg.equal_mass_particles(xs, sp([1.0, 1.0], [1.0, 1.0], 0.0))
    center = mg.weighted_center_of_mass(ps)
    params = mg.SystemParams(m=[1.0, 1.0], p=[1.0, 1.0], E=center)
    ps = mg.ParticleState(ps.positions, ps.masses, params)
    x_inf = center[0] / 2.0
    traj = run(ps, pm, SolverConfig(dt=1e-2, t_end=8.0, record_every=100))
    worst = max(np.abs(x - x_inf).max() for x in traj.final_state.positions)
    assert worst < 1e-5


def test_velocity_is_mass_weighted_energy_gradient():
    rng = np.random.default_rng(77)
    pm = mg.matrix_from_entries(
        [[mg.GaussianAR(1.0, 1.0, 0.5, 2.0), mg.Quadratic(0.9)],
         [None, mg.GaussianAR(0.4, 1.5, 0.0, 1.0)]],
        kappa=np.zeros((2, 2)))
    for d in (1, 2):
        xs = [rng.normal(size=(4, d)), rng.normal(size=(4, d))]
        ws = [rng.uniform(0.1, 0.5, size=4) for _ in range(2)]
        p = [float(w.sum()) for w in ws]
        center = sum((w[:, None] * x).sum(0) / m for x, w, m in zip(xs, ws, [1.0, 2.0]))
        params = mg.SystemParams(m=[1.0, 2.0], p=p, E=center, d=d)
        ps = mg.ParticleState(xs, ws, params)
        vel = velocity(ps, pm)
        h = 1e-6
        scale = max(np.abs(v).max() for v in vel)
        for i in range(2):
            for k in range(4):
                for axis in range(d):
                    plus, minus = ps.copy(), ps.copy()
                    plus.positions[i][k, axis] += h
                    minus.positions[i][k, axis] -= h
                    fd = (energy(plus, pm) - energy(minus, pm)) / (2 * h)
                    want = -params.m[i] / ws[i][k] * fd
                    assert abs(vel[i][k, axis] - want) <= 1e-6 * max(1.0, scale)


def test_particle_center_conserved():
    rng = np.random.default_rng(55)
    pm = mg.matrix_from_entries(
        [[mg.DoubleWell(0.4, 0.6), mg.GaussianAR(1.0, 2.0, 0.3, 1.0)],
         [None, mg.Quadratic(1.2)]],
        kappa=np.array([[-1.2, 0.0], [0.0, 1.2]]))
    xs = [rng.uniform(-1, 1, size=(5, 1)), rng.uniform(-1, 1, size=(3, 1))]
    ws = [rng.uniform(0.1, 0.4, size=5), rng.uniform(0.2, 0.6, size=3)]
    p = [float(w.sum()) for w in ws]
    center = sum((w[:, None] * x).sum(0) / m for x, w, m in zip(xs, ws, [0.8, 1.7]))
    params = mg.SystemParams(m=[0.8, 1.7], p=p, E=center, d=1)
    ps = mg.ParticleState(xs, ws, params)
    traj = run(ps, pm, SolverConfig(dt=1e-3, t_end=1.0, record_every=100))
    centers = np.array([mg.weighted_center_of_mass(s)[0] for s in traj.states])
    assert np.abs(centers - centers[0]).max() <= 1e-12 * max(1.0, abs(centers[0]))


def test_energy_decays_along_rk4():
    rng = np.random.default_rng(99)
    pm = mg.matrix_from_entries([[mg.GaussianAR(1.0, 1.0, 0.5, 2.0)]], kappa=[[-2.0]])
    x = rng.uniform(-1.5, 1.5, size=(12, 1))
    ps = mg.equal_mass_particles([x], sp([1.0], [1.0], float(x.mean())))
    dt = 1e-2
    traj = run(ps, pm, SolverConfig(dt=dt, t_end=3.0, record_every=5))
    energies = np.array(traj.energies)
    slack = 100.0 * dt ** 4 * (1.0 + abs(energies[0]))
    assert np.all(np.diff(energies) <= slack)


def test_matches_quantile_solver_on_atomic_data(two_species_attractive):
    pm, _ = two_species_attractive
    rng = np.random.default_rng(3)
    M = 16
    u0 = np.sort(rng.uniform(-1.0, 1.0, size=(2, M)), axis=1)
    E = float(np.sum(u0.mean(axis=1)))
    params = mg.SystemParams(m=[1.0, 1.0], p=[1.0, 1.0], E=[E])
    qs = mg.QuantileState(u0, params)
    ps = mg.particles_from_quantile(qs)
    cfg = SolverConfig(dt=1e-3, t_end=0.2, scheme="rk4", repair="none", record_every=50)
    qt = mg.run(qs, pm, cfg)
    pt = run(ps, pm, cfg)
    diff = max(np.abs(a.u[i] - b.positions[i].ravel()).max()
               for a, b in zip(qt.states, pt.states) for i in range(2))
    assert diff <= 1e-11


@pytest.mark.parametrize("scheme", ["euler", "rk4"])
def test_step_on_a_particle_state_is_the_first_recorded_step(scheme):
    rng = np.random.default_rng(5)
    pm = mg.matrix_from_entries(
        [[mg.GaussianAR(1.0, 1.0, 0.5, 2.0), mg.Quadratic(0.7)],
         [None, mg.DoubleWell(0.1, 0.3)]],
        kappa=np.zeros((2, 2)))
    xs = [rng.normal(size=(5, 2)), rng.normal(size=(3, 2))]
    ws = [np.full(5, 0.2), rng.uniform(0.5, 1.5, 3)]
    params = mg.SystemParams(m=[1.0, 2.0], p=[1.0, float(ws[1].sum())], E=[0.0, 0.0], d=2)
    center = mg.weighted_center_of_mass(mg.ParticleState(xs, ws, params))
    ps = mg.ParticleState(xs, ws, mg.SystemParams(m=[1.0, 2.0], p=params.p, E=center, d=2))
    cfg = SolverConfig(dt=0.05, t_end=0.05, scheme=scheme)
    stepped = run(ps, pm, cfg)
    assert (stepped.monotonicity_violations, stepped.repair_events) == (0, 0)
    recorded = run(ps, pm, replace(cfg, t_end=0.2)).states[1]
    for a, b in zip(stepped.final_state.positions, recorded.positions):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
