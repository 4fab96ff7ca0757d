import numpy as np
import pytest

import multiagg as mg
from multiagg import quantile_solver
from multiagg.measures import cell_midpoints
from multiagg.quantile_solver import SolverConfig, run, stable_dt, velocity


def sp(m, p, E=0.0):
    return mg.SystemParams(m=m, p=p, E=[E])


def single_quadratic(kappa=1.0, m=1.0, p=1.0):
    pm = mg.matrix_from_entries([[mg.Quadratic(kappa)]], kappa=[[kappa]])
    return pm, sp([m], [p])


def test_velocity_single_species_quadratic_closed_form():
    pm, params = single_quadratic(kappa=1.3, m=0.7, p=2.0)
    rng = np.random.default_rng(0)
    u = np.sort(rng.normal(size=(1, 32)), axis=1)
    qs = mg.QuantileState(u, sp([0.7], [2.0], E=float(2.0 / 0.7 * u.mean())))
    v = np.stack(velocity(qs, pm))[:, :, 0]
    # direct-summation oracle
    oracle = np.empty_like(u)
    for k in range(32):
        oracle[0, k] = 0.7 * 2.0 * np.mean([1.3 * (u[0, l] - u[0, k]) for l in range(32)])
    assert np.abs(v - oracle).max() < 1e-12
    assert np.abs(v - 0.7 * 1.3 * 2.0 * (u.mean() - u)).max() < 1e-12


@pytest.mark.parametrize("pot", [mg.Quadratic(2.0), mg.GaussianAR(1.0, 1.0, 0.5, 2.0),
                                 mg.DoubleWell(1.0, 1.0),
                                 mg.Morse(1.0, 1.0, 0.5, 2.0, eps=0.3)])
def test_velocity_dirac_is_steady(pot):
    pm = mg.matrix_from_entries([[pot]], kappa=[[0.0]])
    qs = mg.QuantileState(np.full((1, 8), 1.7), sp([1.0], [1.0], E=1.7))
    assert np.all(velocity(qs, pm)[0] == 0.0)


def test_velocity_two_species_cross_only():
    a = 0.8
    w12 = mg.GaussianAR(1.0, 1.0, 0.0, 1.0)
    pm = mg.matrix_from_entries([[mg.Zero(), w12], [None, mg.Zero()]],
                                kappa=np.zeros((2, 2)))
    params = mg.SystemParams(m=[1.5, 0.5], p=[2.0, 3.0], E=[a * 3.0 / 0.5])
    u = np.vstack([np.zeros(8), np.full(8, a)])
    qs = mg.QuantileState(u, params)
    v = velocity(qs, pm)
    g = w12.deriv(a)
    assert np.allclose(v[0], 1.5 * 3.0 * g, rtol=1e-14)
    assert np.allclose(v[1], -0.5 * 2.0 * g, rtol=1e-14)


def test_velocity_nonfinite_raises_with_witness():
    pm = mg.matrix_from_entries([[mg.Power(q=8.0, a=1e300)]], kappa=[[0.0]])
    u = np.array([[-40.0, 0.0, 40.0]])
    qs = mg.QuantileState(u, sp([1.0], [1.0]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(mg.NumericsError) as exc:
            velocity(qs, pm)
    assert {"i", "j", "k", "l"} <= set(exc.value.witness)


@pytest.mark.parametrize("tile", [4, 16384])
def test_nonfinite_witness_is_the_first_in_row_major_order(monkeypatch, tile):
    # One row per tile at tile=4; the only overflow sits in row k=3 of pair (0, 1).
    monkeypatch.setattr(quantile_solver, "_TILE", tile)
    pm = mg.matrix_from_entries([[mg.Zero(), mg.Power(q=8.0, a=1e300)], [None, mg.Zero()]],
                                kappa=np.zeros((2, 2)))
    u = np.array([[-1.0, 0.0, 1.0, 50.0], [0.0, 0.1, 0.2, 0.3]])
    with np.errstate(over="ignore", invalid="ignore"):
        witness = quantile_solver._nonfinite_witness(u[:, :, None], pm)
    assert witness == {"i": 0, "j": 1, "k": 3, "l": 0}


def test_step_zero_velocity_is_fixed_point():
    pm = mg.matrix_from_entries([[mg.Zero()]], kappa=[[0.0]])
    u = np.array([[-1.0, 0.0, 2.0]])
    qs = mg.QuantileState(u, sp([1.0], [1.0], E=1.0 / 3.0))
    traj = run(qs, pm, SolverConfig(dt=0.1, t_end=0.1))
    assert np.array_equal(traj.final_state.u, u)
    assert traj.monotonicity_violations == 0


def test_step_euler_linear_contraction_factor():
    pm, params = single_quadratic()
    u = np.array([np.linspace(-1.0, 1.0, 16)])
    qs = mg.QuantileState(u, params)
    dt = 0.125
    out = run(qs, pm, SolverConfig(dt=dt, t_end=dt, scheme="euler")).final_state
    assert np.allclose(out.u - u.mean(), (1.0 - dt) * (u - u.mean()), rtol=1e-14)


def test_rk4_matches_exponential_decay_to_fourth_order():
    pm, params = single_quadratic()
    u0 = np.array([np.linspace(-1.0, 1.0, 16)])
    qs = mg.QuantileState(u0, params)
    dt = 0.1
    traj = run(qs, pm, SolverConfig(dt=dt, t_end=1.0, scheme="rk4", record_every=10))
    dev = traj.final_state.u - u0.mean()
    exact = np.exp(-1.0) * (u0 - u0.mean())
    assert np.abs(dev - exact).max() <= dt ** 4


def test_step_reports_and_repairs_crossings():
    # two cells attracted at very different strengths; a large Euler step
    # makes them cross
    pot = mg.GaussianAR(1.0, 1.0, 0.0, 1.0)
    pm = mg.matrix_from_entries([[pot]], kappa=[[-1.0]])
    u = np.array([[0.0, 2.4, 2.6]])
    params = sp([1.0], [1.0], E=u.mean())
    qs = mg.QuantileState(u, params)
    v = velocity(qs, pm)[0][:, 0]
    gaps = np.diff(u[0])
    closing = np.diff(v)
    k = int(np.argmin(closing))
    assert closing[k] < 0.0
    dt = 1.5 * gaps[k] / (-closing[k])
    raw = run(qs, pm, SolverConfig(dt=dt, t_end=dt, scheme="euler", repair="none"))
    assert raw.monotonicity_violations > 0 and raw.repair_events == 0
    assert not (np.diff(raw.final_state.u, axis=1) >= 0.0).all()
    fixed = run(qs, pm, SolverConfig(dt=dt, t_end=dt, scheme="euler", repair="sort"))
    assert fixed.repair_events > 0
    assert (np.diff(fixed.final_state.u, axis=1) >= 0.0).all()
    assert np.array_equal(fixed.final_state.u, np.sort(raw.final_state.u, axis=1))


def test_run_zero_horizon_returns_initial():
    pm, params = single_quadratic()
    qs = mg.QuantileState(np.array([[0.0, 1.0]]), sp([1.0], [1.0], E=0.5))
    traj = run(qs, pm, SolverConfig(dt=0.1, t_end=0.0))
    assert len(traj.states) == 1 and traj.times == [0.0]


def test_run_partial_trajectory_on_blowup():
    # strongly repulsive quartic tails blow the state up to overflow
    pm = mg.matrix_from_entries([[mg.Power(q=6.0, a=-1e4)]], kappa=[[0.0]])
    u = np.array([[-1.0, 1.0]])
    qs = mg.QuantileState(u, sp([1.0], [1.0]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(mg.NumericsError) as exc:
            run(qs, pm, SolverConfig(dt=0.5, t_end=50.0, scheme="euler", repair="none"))
    assert exc.value.partial is not None
    assert len(exc.value.partial.states) >= 1


def test_center_conserved_with_mixed_potentials():
    rng = np.random.default_rng(31)
    w11 = mg.GaussianAR(1.0, 1.0, 0.5, 2.0)
    w12 = mg.Quadratic(0.8)
    w22 = mg.DoubleWell(0.5, 0.5)
    pm = mg.matrix_from_entries([[w11, w12], [None, w22]],
                                kappa=np.array([[-2.0, 0.8], [0.8, -1.0]]))
    params = mg.SystemParams(m=[1.0, 2.5], p=[2.0, 0.5], E=[0.0])
    u = np.sort(rng.uniform(-1.0, 1.0, size=(2, 16)), axis=1)
    u[0] -= (params.p / params.m * u.mean(axis=1))[0] / (params.p[0] / params.m[0])
    center0 = float(np.sum(params.p / params.m * u.mean(axis=1)))
    qs = mg.QuantileState(u, mg.SystemParams(m=[1.0, 2.5], p=[2.0, 0.5], E=[center0]))
    traj = run(qs, pm, SolverConfig(dt=2e-3, t_end=2.0, scheme="rk4", record_every=100))
    centers = np.array([r.E_invariant for r in traj.records])
    assert np.abs(centers - centers[0]).max() <= 1e-12
    # masses never change: every state carries the same immutable params
    assert all(s.params is qs.params for s in traj.states)
    assert all(s.u.shape == qs.u.shape for s in traj.states)


def test_euler_preserves_monotonicity_gap_bound():
    # Lipschitz kernel: |W''| <= 2, so one Euler step shrinks the smallest
    # cell gap by at most the factor (1 - dt * m * L * p)
    pot = mg.GaussianAR(1.0, 1.0, 0.0, 1.0)
    pm = mg.matrix_from_entries([[pot]], kappa=[[-2.0]])
    factor = 1.0 - 0.05 * 2.0
    u = np.array([np.linspace(-1.0, 1.0, 16)])
    qs = mg.QuantileState(u, sp([1.0], [1.0]))
    cfg = SolverConfig(dt=0.05, t_end=0.05, scheme="euler", repair="none")
    for _ in range(40):
        gap_before = np.diff(qs.u, axis=1).min()
        traj = run(qs, pm, cfg)
        qs = traj.final_state
        gap_after = np.diff(qs.u, axis=1).min()
        assert gap_after >= factor * gap_before - 1e-15
        assert traj.monotonicity_violations == 0


def test_energy_monotone_along_rk4(two_species_attractive):
    pm, params = two_species_attractive
    z = cell_midpoints(32)
    u = np.vstack([-1.0 + z, z])
    qs = mg.QuantileState(u, mg.SystemParams(m=[1, 1], p=[1, 1],
                                             E=[float(u.mean(axis=1).sum())]))
    dt = 1e-2
    traj = run(qs, pm, SolverConfig(dt=dt, t_end=2.0, record_every=1))
    energies = np.array([r.energy for r in traj.records])
    slack = 100.0 * dt ** 4 * (1.0 + abs(energies[0]))
    assert np.all(np.diff(energies) <= slack)


def test_stable_dt_bounds():
    pm, params = single_quadratic()
    qs = mg.QuantileState(np.array([[-1.0, 1.0]]), params)
    dt = stable_dt(qs, pm, cfl_safety=0.2)
    assert 0.0 < dt <= 1.0
    pm_zero = mg.matrix_from_entries([[mg.Zero()]], kappa=[[0.0]])
    assert stable_dt(qs, pm_zero) == 1.0


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(dt=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(scheme="verlet")
    with pytest.raises(ValueError):
        SolverConfig(repair="clip")
    with pytest.raises(ValueError):
        SolverConfig(cfl_safety=0.0)


@pytest.mark.parametrize("fields", [{"dt": True}, {"t_end": True}, {"cfl_safety": True},
                                    {"dt": "0.1"}, {"t_end": "1"}, {"cfl_safety": None}])
def test_solver_numbers_reject_bools_and_strings(fields):
    # True would otherwise run as 1 and be written to the manifest as true.
    with pytest.raises(ValueError, match=f"{next(iter(fields))} must be a number"):
        SolverConfig(**fields)


def test_solver_numbers_take_numpy_scalars():
    cfg = SolverConfig(dt=np.float64(0.1), t_end=np.int64(2), cfl_safety=np.float32(0.5))
    assert cfg.t_end == 2
