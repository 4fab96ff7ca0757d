"""Acceptance battery: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the PASS lines
while running).
"""

import json
import time

import numpy as np
import pytest

import multiagg as mg
from multiagg import cli
from multiagg.convexity import confining_check, lambda0
from multiagg.diagnostics import energy, fit_decay_rate, ground_state
from multiagg.measures import cell_midpoints, compound_distance, winf_distance
from multiagg.quantile_solver import SolverConfig, run, stable_dt, velocity


def attractive_pair(M, lo, hi):
    """kappa = [[2,1],[1,2]], m = p = (1,1) quadratic system with uniform data."""
    pm = mg.matrix_from_entries(
        [[mg.Quadratic(2.0), mg.Quadratic(1.0)], [None, mg.Quadratic(2.0)]],
        kappa=[[2.0, 1.0], [1.0, 2.0]])
    z = cell_midpoints(M)
    u = np.vstack([l + (h - l) * z for l, h in zip(lo, hi)])
    E = float(u.mean(axis=1).sum())
    params = mg.SystemParams(m=[1.0, 1.0], p=[1.0, 1.0], E=[E])
    return pm, mg.QuantileState(u, params)


def test_criterion_1_lambda0_worked_examples(tmp_path, capsys):
    cases = [
        ([[2.0, 1.0], [1.0, 2.0]], 2.0),
        ([[-1.0, 2.0], [2.0, -1.0]], 1.0),
        ([[2.0, -1.0], [-1.0, 2.0]], -2.0),
    ]
    for kappa, expected in cases:
        raw = {
            "params": {"m": [1.0, 1.0], "p": [1.0, 1.0]},
            "potential": {
                "entries": [[{"kind": "quadratic", "a": kappa[0][0]},
                             {"kind": "quadratic", "a": kappa[0][1]}],
                            [{"kind": "quadratic", "a": kappa[1][0]},
                             {"kind": "quadratic", "a": kappa[1][1]}]],
                "kappa": kappa},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["analyze", "--config", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["lambda0"] == expected

    params = mg.SystemParams(m=[1.0, 1.0], p=[1.0, 1.0], E=[0.0])
    mats = [np.array(k) for k, _ in cases]
    t0 = time.perf_counter()
    for _ in range(100):
        for mat in mats:
            lambda0(mat, params)
    per_call = (time.perf_counter() - t0) / 300.0
    assert per_call < 1e-3
    print(f"\nACCEPTANCE 1 (lambda0 worked examples, {per_call * 1e6:.0f} us/call): PASS")


def test_criterion_2_contraction():
    t0 = time.perf_counter()
    M = 256
    pm, qs_a = attractive_pair(M, lo=[-1.0, 0.0], hi=[0.0, 1.0])
    # second datum in the same constrained space: Diracs with the same
    # masses and the same weighted center (E = 0)
    u_b = np.vstack([np.full(M, 0.5), np.full(M, -0.5)])
    qs_b = mg.QuantileState(u_b, qs_a.params)
    cfg = SolverConfig(dt=1e-3, t_end=3.0, scheme="rk4", record_every=50)
    traj_a = run(qs_a, pm, cfg)
    traj_b = run(qs_b, pm, cfg)
    d0 = compound_distance(qs_a, qs_b)
    assert d0 > 0.5
    worst = 0.0
    for t, a, b in zip(traj_a.times, traj_a.states, traj_b.states):
        ratio = compound_distance(a, b) / (np.exp(-2.0 * t) * d0 * 1.05)
        worst = max(worst, ratio)
    elapsed = time.perf_counter() - t0
    assert worst <= 1.0
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 2 (contraction at rate 2, worst ratio {worst:.4f}, "
          f"{elapsed:.1f}s): PASS")


def test_criterion_3_ground_state_convergence():
    M = 128
    pm, qs = attractive_pair(M, lo=[-1.0, 0.5], hi=[0.0, 1.5])
    cfg = SolverConfig(dt=5e-3, t_end=10.0, scheme="rk4", record_every=20)
    traj = run(qs, pm, cfg)
    gs = ground_state(qs.params, M)
    x_inf = gs.u[0, 0]
    assert x_inf == pytest.approx(0.25)
    winf = max(winf_distance(traj.final_state, gs, i) for i in range(2))
    assert winf < 1e-3
    times, w2 = traj.series("w2_to_ground")
    fit = fit_decay_rate(times, w2, window=(1.5, 5.0), predicted_rate=2.0,
                         quantity="w2_to_ground")
    assert fit.rel_err <= 0.05
    print(f"\nACCEPTANCE 3 (ground state: winf={winf:.2e}, "
          f"w2 rate {fit.fitted_rate:.4f} vs 2): PASS")


def test_criterion_4_delta_separation():
    M = 64
    pm = mg.matrix_from_entries([[mg.Quadratic(1.0)]], kappa=[[1.0]])
    z = cell_midpoints(M)
    u = (-1.0 + 2.0 * z)[None, :]
    params = mg.SystemParams(m=[1.0], p=[2.0], E=[float(2.0 * u.mean())])
    qs = mg.QuantileState(u, params)
    rate = 2.0  # m * (kappa p) = 1 * 2
    cfg = SolverConfig(dt=1e-3, t_end=2.0, scheme="rk4", record_every=10)
    traj = run(qs, pm, cfg)
    times = np.array([r.t for r in traj.records])
    diam = np.array([r.diam[0] for r in traj.records])
    fit = fit_decay_rate(times, diam, window=(0.0, 1.5), predicted_rate=rate)
    assert fit.rel_err <= 0.02
    bound = np.exp(-rate * times) * diam[0] * 1.01
    assert np.all(diam <= bound)
    print(f"\nACCEPTANCE 4 (delta separation: fitted rate {fit.fitted_rate:.4f} "
          f"vs {rate}): PASS")


def test_criterion_5_center_conservation_random_systems():
    rng = np.random.default_rng(2024)

    def random_potential(diagonal):
        kind = rng.integers(0, 4)
        if kind == 0:
            return mg.Quadratic(float(rng.uniform(-1.0, 2.0)))
        if kind == 1:
            return mg.GaussianAR(*rng.uniform(0.2, 2.0, size=4))
        if kind == 2:
            return mg.DoubleWell(float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.1, 1.0)))
        if not diagonal and rng.random() < 0.3:
            return mg.Zero()
        return mg.Morse(*rng.uniform(0.3, 1.5, size=4), eps=0.3)

    worst = 0.0
    for trial in range(10):
        n = [1, 2, 3][trial % 3]
        entries = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                entries[i][j] = random_potential(i == j)
        pm = mg.matrix_from_entries(entries, kappa=np.zeros((n, n)))
        m = rng.uniform(0.5, 2.0, size=n)
        p = rng.uniform(0.5, 2.0, size=n)
        u = np.sort(rng.uniform(-1.0, 1.0, size=(n, 32)), axis=1)
        E = float(np.sum(p / m * u.mean(axis=1)))
        qs = mg.QuantileState(u, mg.SystemParams(m=m, p=p, E=[E]))
        dt = min(0.5 * stable_dt(qs, pm), 2e-3)
        traj = run(qs, pm, SolverConfig(dt=dt, t_end=1000 * dt, scheme="rk4",
                                        record_every=100))
        centers = np.array([r.E_invariant for r in traj.records])
        scale = max(1.0, float(np.sum(p / m * np.abs(u).max(axis=1))))
        worst = max(worst, np.abs(centers - centers[0]).max() / scale)
    assert worst <= 1e-12
    print(f"\nACCEPTANCE 5 (center conservation, worst drift {worst:.2e}): PASS")


def test_criterion_6_dissipation_identity():
    M = 64
    dt = 2e-4
    pm, qs = attractive_pair(M, lo=[-1.0, 0.0], hi=[0.0, 1.0])
    traj = run(qs, pm, SolverConfig(dt=dt, t_end=1.2, scheme="rk4", record_every=1))
    recs = traj.records
    tol = max(1e-6, 5.0 * dt * dt)
    idx = np.linspace(500, len(recs) - 2, 50).astype(int)
    worst = 0.0
    for k in idx:
        fd = (recs[k + 1].energy - recs[k - 1].energy) / (2.0 * dt)
        worst = max(worst, abs(fd - recs[k].dissipation) / abs(recs[k].dissipation))
    assert worst <= tol
    print(f"\nACCEPTANCE 6 (dissipation identity, worst rel err {worst:.2e} "
          f"<= {tol:.1e}): PASS")


def test_criterion_7_gradient_flow_consistency():
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(20):
        d = 1 + trial % 2
        pm = mg.matrix_from_entries(
            [[mg.GaussianAR(*rng.uniform(0.3, 1.5, size=4)),
              mg.Quadratic(float(rng.uniform(0.2, 1.5)))],
             [None, mg.GaussianAR(*rng.uniform(0.3, 1.5, size=4))]],
            kappa=np.zeros((2, 2)))
        xs = [rng.normal(size=(4, d)), rng.normal(size=(4, d))]
        ws = [rng.uniform(0.1, 0.6, size=4) for _ in range(2)]
        p = [float(w.sum()) for w in ws]
        m = rng.uniform(0.5, 2.0, size=2)
        center = sum((w[:, None] * x).sum(0) / mi for x, w, mi in zip(xs, ws, m))
        ps = mg.ParticleState(xs, ws, mg.SystemParams(m=m, p=p, E=center, d=d))
        vel = velocity(ps, pm)
        scale = max(1.0, max(np.abs(v).max() for v in vel))
        h = 1e-6
        for i in range(2):
            for k in range(4):
                for axis in range(d):
                    plus, minus = ps.copy(), ps.copy()
                    plus.positions[i][k, axis] += h
                    minus.positions[i][k, axis] -= h
                    fd = (energy(plus, pm) - energy(minus, pm)) / (2 * h)
                    want = -m[i] / ws[i][k] * fd
                    worst = max(worst, abs(vel[i][k, axis] - want) / scale)
    assert worst <= 1e-5
    print(f"\nACCEPTANCE 7 (gradient consistency, worst rel err {worst:.2e}): PASS")


def test_criterion_8_cross_solver_equivalence():
    M = 64
    rng = np.random.default_rng(8)
    pm = mg.matrix_from_entries(
        [[mg.Quadratic(2.0), mg.GaussianAR(1.0, 1.0, 0.5, 2.0)],
         [None, mg.Quadratic(2.0)]],
        kappa=[[2.0, 0.0], [0.0, 2.0]])
    u0 = np.sort(rng.uniform(-1.0, 1.0, size=(2, M)), axis=1)
    E = float(u0.mean(axis=1).sum())
    params = mg.SystemParams(m=[1.0, 1.0], p=[1.0, 1.0], E=[E])
    qs = mg.QuantileState(u0, params)
    ps = mg.particles_from_quantile(qs)
    cfg = SolverConfig(dt=1e-3, t_end=1.0, scheme="rk4", repair="none",
                       record_every=100)
    qt = run(qs, pm, cfg)
    pt = run(ps, pm, cfg)
    assert qt.times == pt.times
    worst = max(np.abs(a.u[i] - b.positions[i].ravel()).max()
                for a, b in zip(qt.states, pt.states) for i in range(2))
    assert worst <= 1e-10
    print(f"\nACCEPTANCE 8 (cross-solver equivalence, max discrepancy {worst:.2e}): PASS")


def test_criterion_9_confinement_and_finite_propagation():
    # non-uniformly convex (lambda0 = -1) but confining double-well +
    # quadratic pair: support must settle to a horizon-independent band
    M = 64
    pm = mg.matrix_from_entries(
        [[mg.DoubleWell(1.0, 1.0), mg.Quadratic(1.0)], [None, mg.Quadratic(1.0)]],
        kappa=[[-2.0, 1.0], [1.0, 1.0]],
        confining=mg.ConfiningSpec(1.0, [[10.0, 1.0], [1.0, 1.0]]))
    params = mg.SystemParams(m=[1.0, 1.0], p=[1.0, 1.0], E=[0.0])
    assert lambda0(pm.kappa, params).lambda0 == -1.0
    report = confining_check(pm, params)
    assert report.verdict and report.lambda0_tilde == 2.0

    z = cell_midpoints(M)
    u = np.vstack([-1.2 + 2.4 * z, -0.5 + 1.0 * z])
    qs = mg.QuantileState(u, params)
    traj = run(qs, pm, SolverConfig(dt=2e-3, t_end=50.0, scheme="rk4",
                                    record_every=250))
    sup = max(max(abs(float(r.supp_lo.min())), abs(float(r.supp_hi.max())))
              for r in traj.records)
    assert np.isfinite(sup) and sup < 5.0
    rec25 = min(traj.records, key=lambda r: abs(r.t - 25.0))
    rec50 = traj.records[-1]
    drift = max(float(np.abs(rec50.supp_lo - rec25.supp_lo).max()),
                float(np.abs(rec50.supp_hi - rec25.supp_hi).max()))
    assert drift < 1e-3

    # purely repulsive single species: support grows but stays finite on [0, 5]
    pm_rep = mg.matrix_from_entries([[mg.Quadratic(-0.5)]], kappa=[[-0.5]])
    u1 = (-1.0 + 2.0 * z)[None, :]
    qs1 = mg.QuantileState(u1, mg.SystemParams(m=[1.0], p=[1.0], E=[float(u1.mean())]))
    traj1 = run(qs1, pm_rep, SolverConfig(dt=1e-3, t_end=5.0, scheme="rk4",
                                          record_every=500))
    diams = np.array([r.diam[0] for r in traj1.records])
    assert np.all(np.isfinite(diams))
    assert diams[-1] > diams[0]
    assert diams[-1] == pytest.approx(diams[0] * np.exp(0.5 * 5.0), rel=1e-3)
    print(f"\nACCEPTANCE 9 (confinement: sup {sup:.3f}, settled drift {drift:.2e}; "
          f"repulsive growth finite): PASS")


def test_criterion_10_blowup_exclusion():
    # Lipschitz attraction (|W''| <= 2), strictly increasing data: the
    # smallest cell gap can shrink no faster than exp(-m L p t)
    M = 64
    pot = mg.GaussianAR(1.0, 1.0, 0.0, 1.0)
    pm = mg.matrix_from_entries([[pot]], kappa=[[-2.0]])
    rate = 2.0  # m * L * p with L = max |W''| = 2
    z = cell_midpoints(M)
    u = (-1.0 + 2.0 * z)[None, :]
    qs = mg.QuantileState(u, mg.SystemParams(m=[1.0], p=[1.0], E=[float(u.mean())]))
    gap0 = float(np.diff(u[0]).min())
    traj = run(qs, pm, SolverConfig(dt=1e-3, t_end=2.0, scheme="rk4",
                                    repair="none", record_every=100))
    assert traj.monotonicity_violations == 0
    assert traj.repair_events == 0
    worst = 1.0
    for t, state in zip(traj.times, traj.states):
        gap = float(np.diff(state.u[0]).min())
        worst = min(worst, gap / (np.exp(-rate * t) * gap0))
    assert worst >= 0.9
    print(f"\nACCEPTANCE 10 (no blow-up: min gap ratio {worst:.3f} >= 0.9): PASS")
