import numpy as np
import pytest

import multiagg as mg
from multiagg.diagnostics import (dissipation, energy, fit_decay_rate, ground_state,
                                  support_and_diameter)
from multiagg.quantile_solver import SolverConfig, run, velocity


def sp(m, p, E=0.0):
    return mg.SystemParams(m=m, p=p, E=[E])


def steady(traj, tol=1e-8):
    """Is a run's final state stationary: |dissipation| < tol (1 + |energy|) on its last record?"""
    rec = traj.records[-1]
    return abs(rec.dissipation) < tol * (1.0 + abs(rec.energy))


def test_energy_double_sum_worked_example():
    pm = mg.matrix_from_entries([[mg.Quadratic(1.0)]], kappa=[[1.0]])
    u = np.array([[-1.0, -1.0, 1.0, 1.0]])
    qs = mg.QuantileState(u, sp([1.0], [2.0]))
    # direct 4x4 oracle
    oracle = 0.0
    for k in range(4):
        for l in range(4):
            oracle += 0.5 * (u[0, k] - u[0, l]) ** 2
    oracle *= 0.5 * (2.0 * 2.0) / 16.0
    assert oracle == 2.0
    assert energy(qs, pm) == pytest.approx(2.0, rel=1e-14)


def test_energy_dirac_and_zero():
    gauss = mg.matrix_from_entries([[mg.GaussianAR(1.0, 1.0, 0.0, 1.0)]], kappa=[[0.0]])
    qs = mg.QuantileState(np.full((1, 8), 0.3), sp([1.0], [2.0], 0.6))
    assert energy(qs, gauss) == 0.5 * 4.0 * (-1.0)
    zero = mg.matrix_from_entries([[mg.Zero()]], kappa=[[0.0]])
    assert energy(qs, zero) == 0.0


def test_dissipation_zero_at_steady_state():
    pm = mg.matrix_from_entries([[mg.GaussianAR(1.0, 1.0, 0.5, 2.0)]], kappa=[[0.0]])
    qs = mg.QuantileState(np.full((1, 16), -0.4), sp([1.0], [1.0], -0.4))
    assert dissipation(qs, pm) == 0.0


def test_dissipation_nonpositive_and_matches_velocity_identity():
    rng = np.random.default_rng(2)
    pm = mg.matrix_from_entries(
        [[mg.GaussianAR(1.0, 1.0, 0.5, 2.0), mg.Quadratic(0.7)],
         [None, mg.DoubleWell(0.5, 0.5)]],
        kappa=np.zeros((2, 2)))
    params = sp([1.3, 0.6], [0.8, 1.9])
    for _ in range(25):
        u = np.sort(rng.normal(size=(2, 12)), axis=1)
        qs = mg.QuantileState(u, params)
        dis = dissipation(qs, pm)
        assert dis <= 0.0
        v = np.stack(velocity(qs, pm))[:, :, 0]
        identity = -float(np.sum(params.p / (params.m * 12) * (v * v).sum(axis=1)))
        assert dis == pytest.approx(identity, rel=1e-12, abs=1e-15)


def test_dissipation_matches_energy_derivative_along_trajectory(two_species_attractive):
    pm, params = two_species_attractive
    z = (np.arange(32) + 0.5) / 32
    u = np.vstack([-1.0 + z, 0.5 + z])
    qs = mg.QuantileState(u, mg.SystemParams(m=[1, 1], p=[1, 1],
                                             E=[float(u.mean(axis=1).sum())]))
    dt = 1e-3
    traj = run(qs, pm, SolverConfig(dt=dt, t_end=0.2, record_every=1))
    recs = traj.records
    for k in range(5, 150, 15):
        fd = (recs[k + 1].energy - recs[k - 1].energy) / (2.0 * dt)
        assert fd == pytest.approx(recs[k].dissipation, rel=5.0 * dt * dt + 1e-9)


def test_ground_state_worked_examples():
    assert ground_state(sp([1.0], [1.0], 0.0), 4).u.tolist() == [[0.0] * 4]
    params = mg.SystemParams(m=[1.0, 2.0], p=[1.0, 2.0], E=[3.0])
    gs = ground_state(params, 4)
    assert np.all(gs.u == 1.5)
    pm = mg.matrix_from_entries(
        [[mg.GaussianAR(1.0, 1.0, 0.5, 2.0), mg.Quadratic(1.0)],
         [None, mg.DoubleWell(1.0, 1.0)]],
        kappa=np.zeros((2, 2)))
    assert dissipation(gs, pm) == 0.0
    assert all(np.all(v == 0.0) for v in velocity(gs, pm))


def test_support_and_diameter():
    qs = mg.QuantileState(np.array([[-1.0, -1.0, 1.0, 1.0]]), sp([1.0], [1.0]))
    lo, hi, diam = support_and_diameter(qs)
    assert lo.tolist() == [-1.0] and hi.tolist() == [1.0] and diam.tolist() == [2.0]
    dirac = mg.QuantileState(np.zeros((1, 4)), sp([1.0], [1.0]))
    assert support_and_diameter(dirac)[2].tolist() == [0.0]
    rng = np.random.default_rng(4)
    u = np.sort(rng.normal(size=(1, 32)), axis=1)
    lo, hi, _ = support_and_diameter(mg.QuantileState(u, sp([1.0], [1.0], float(u.mean()))))
    assert hi[0] == u.max() and lo[0] == u.min()


def test_support_sort_invariant_under_permutation():
    rng = np.random.default_rng(44)
    vals = rng.normal(size=16)
    params = sp([1.0], [1.0], float(vals.mean()))
    sorted_qs = mg.QuantileState(np.sort(vals)[None, :], params)
    shuffled = vals.copy()
    rng.shuffle(shuffled)
    repaired = mg.QuantileState(np.sort(shuffled)[None, :], params)
    assert support_and_diameter(sorted_qs) == pytest.approx(support_and_diameter(repaired))


def test_fit_decay_rate_exact_series():
    t = np.linspace(0.0, 3.0, 40)
    fit = fit_decay_rate(t, np.exp(-2.0 * t), (0.0, 3.0), predicted_rate=2.0, quantity="x")
    assert abs(fit.fitted_rate - 2.0) <= 1e-9
    assert fit.rel_err <= 1e-9
    assert fit.r_squared == pytest.approx(1.0)


def test_fit_decay_rate_constant_and_errors():
    t = np.linspace(0.0, 1.0, 10)
    fit = fit_decay_rate(t, np.ones_like(t), (0.0, 1.0))
    assert fit.fitted_rate == 0.0
    with pytest.raises(ValueError):
        fit_decay_rate(t, np.concatenate([np.ones(9), [0.0]]), (0.0, 1.0))
    with pytest.raises(ValueError):
        fit_decay_rate(t, np.ones_like(t), (0.9, 0.95))


def test_steady_state_ground_and_perturbed(two_species_attractive):
    pm, params = two_species_attractive
    gs = ground_state(params, 16)
    traj = run(gs, pm, SolverConfig(dt=0.1, t_end=0.0))
    assert steady(traj)

    z = (np.arange(16) + 0.5) / 16
    u = np.vstack([-1.0 + z, z])
    qs = mg.QuantileState(u, mg.SystemParams(m=[1, 1], p=[1, 1],
                                             E=[float(u.mean(axis=1).sum())]))
    traj2 = run(qs, pm, SolverConfig(dt=0.1, t_end=0.0))
    assert not steady(traj2)


def test_steady_state_mirror_diracs_of_double_well():
    # two equal masses at separation solving W'(s) = 0: s^2 = b / (2a)
    a, b = 1.0, 1.0
    pm = mg.matrix_from_entries([[mg.DoubleWell(a, b)]], kappa=[[-2.0 * b]])
    s = np.sqrt(b / (2.0 * a))
    M = 16
    u = np.concatenate([np.full(M // 2, -s / 2.0), np.full(M // 2, s / 2.0)])[None, :]
    qs = mg.QuantileState(u, sp([1.0], [2.0]))
    traj = run(qs, pm, SolverConfig(dt=0.01, t_end=0.0))
    assert steady(traj)
    # The stationarity residual of each species is its largest force, max |velocity| / m_i.
    residuals = [np.abs(v).max() / m for v, m in zip(velocity(traj.final_state, pm), qs.params.m)]
    assert max(residuals) < 1e-8


def test_final_record_is_the_energy_and_dissipation_of_the_final_state():
    # The steady-state verdict reads the final record, so it must hold that state's values.
    pm = mg.matrix_from_entries([[mg.GaussianAR(1.0, 1.0, 0.6, 0.2)]], kappa=[[-3.0]])
    u = np.sort(np.random.default_rng(5).normal(size=(1, 40)), axis=1)
    qs = mg.QuantileState(u, sp([1.0], [1.0], E=float(u.mean())))
    traj = run(qs, pm, SolverConfig(dt=0.01, t_end=0.05, record_every=2))
    final, rec = traj.final_state, traj.records[-1]
    assert (rec.dissipation, rec.energy) == (dissipation(final, pm), energy(final, pm))


def test_ground_state_is_energy_minimum(two_species_attractive):
    pm, params = two_species_attractive
    gs = ground_state(params, 16)
    e0 = energy(gs, pm)
    rng = np.random.default_rng(10)
    for _ in range(100):
        du = np.sort(rng.normal(scale=0.5, size=(2, 16)), axis=1)
        du -= du.mean(axis=1, keepdims=True)  # keep every species' mean (and E) fixed
        shift = rng.normal()
        u = gs.u + du + np.array([[shift], [-shift]])  # opposite mean shifts cancel in E
        perturbed = mg.QuantileState(u, params)
        assert energy(perturbed, pm) > e0
