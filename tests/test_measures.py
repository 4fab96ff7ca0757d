import numpy as np
import pytest

import multiagg as mg
from multiagg.measures import (cell_midpoints, compound_distance, particles_from_quantile,
                               quantile_from_particles, read_quantile_csv,
                               weighted_center_of_mass, winf_distance, write_quantile_csv)


def sp(m, p, E=0.0, d=1):
    return mg.SystemParams(m=m, p=p, E=[E] * d, d=d)


def brute_quantile(positions, masses, total, z):
    """Direct cumulative-mass bookkeeping: first atom whose cumulative mass exceeds z."""
    order = np.argsort(positions, kind="stable")
    x = positions[order]
    w = masses[order] / total
    out = np.empty_like(z)
    for a, zz in enumerate(z):
        acc = 0.0
        for xk, wk in zip(x, w):
            acc += wk
            if acc > zz:
                out[a] = xk
                break
        else:
            out[a] = x[-1]
    return out


def test_quantile_from_particles_worked_examples():
    ps = mg.ParticleState([np.array([3.0])], [np.array([2.0])], sp([1.0], [2.0], E=6.0))
    assert quantile_from_particles(ps, 4).u.tolist() == [[3.0, 3.0, 3.0, 3.0]]

    ps2 = mg.ParticleState([np.array([-1.0, 1.0])], [np.array([1.0, 1.0])],
                           sp([1.0], [2.0]))
    assert quantile_from_particles(ps2, 4).u.tolist() == [[-1.0, -1.0, 1.0, 1.0]]

    ps3 = mg.ParticleState([np.array([0.0, 1.0, 2.0])], [np.array([1.0, 1.0, 2.0])],
                           sp([1.0], [4.0], E=5.0))
    assert quantile_from_particles(ps3, 8).u.tolist() == [[0, 0, 1, 1, 2, 2, 2, 2]]


def test_quantile_from_particles_matches_bookkeeping_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        N = int(rng.integers(1, 12))
        x = rng.normal(size=N)
        w = rng.uniform(0.1, 2.0, size=N)
        params = sp([1.0], [float(w.sum())], E=float(x @ w))
        ps = mg.ParticleState([x], [w], params)
        M = int(rng.integers(2, 33))
        got = quantile_from_particles(ps, M).u[0]
        want = brute_quantile(x, w, w.sum(), cell_midpoints(M))
        assert np.array_equal(got, want)


def test_quantile_from_particles_monotone():
    rng = np.random.default_rng(6)
    for _ in range(50):
        N = int(rng.integers(1, 20))
        x = rng.normal(size=N)
        w = rng.uniform(0.01, 1.0, size=N)
        ps = mg.ParticleState([x], [w], sp([1.0], [float(w.sum())], E=float(x @ w)))
        qs = quantile_from_particles(ps, 16)
        assert (np.diff(qs.u, axis=1) >= 0.0).all()


def test_quantile_requires_d1():
    params = sp([1.0], [1.0], d=2)
    ps = mg.ParticleState([np.zeros((3, 2))], [np.full(3, 1 / 3)], params)
    with pytest.raises(ValueError):
        quantile_from_particles(ps, 4)


def test_empty_quantile_grid_is_rejected():
    with pytest.raises(ValueError, match="quantile grid"):
        mg.QuantileState(np.zeros((2, 0)), sp([1.0, 1.0], [1.0, 1.0]))


def test_particles_from_quantile_examples():
    qs = mg.QuantileState([[3.0, 3.0, 3.0, 3.0]], sp([1.0], [1.0], E=3.0))
    ps = particles_from_quantile(qs)
    assert ps.positions[0].ravel().tolist() == [3.0] * 4
    assert ps.masses[0].tolist() == [0.25] * 4

    qs2 = mg.QuantileState([[-1.0, -1.0, 1.0, 1.0]], sp([1.0], [2.0]))
    ps2 = particles_from_quantile(qs2)
    assert ps2.masses[0].tolist() == [0.5] * 4
    assert ps2.positions[0].ravel().tolist() == [-1.0, -1.0, 1.0, 1.0]


def test_round_trip_quantile_particles():
    rng = np.random.default_rng(11)
    params = sp([1.0, 2.0], [1.0, 3.0])
    u = np.sort(rng.normal(size=(2, 16)), axis=1)
    qs = mg.QuantileState(u, params)
    back = quantile_from_particles(particles_from_quantile(qs), 16)
    assert np.array_equal(back.u, qs.u)


def test_particle_mass_consistency_enforced():
    with pytest.raises(ValueError):
        mg.ParticleState([np.array([0.0, 1.0])], [np.array([0.3, 0.3])], sp([1.0], [1.0]))


def test_compound_distance_worked_examples():
    params = sp([1.0], [1.0])
    a = mg.QuantileState(np.zeros((1, 4)), params)
    assert compound_distance(a, a) == 0.0
    b = mg.QuantileState(np.full((1, 4), 2.0), params)
    assert compound_distance(a, b) == 2.0

    params2 = sp([1.0, 2.0], [1.0, 3.0])
    a2 = mg.QuantileState(np.zeros((2, 4)), params2)
    b2 = mg.QuantileState(np.ones((2, 4)), params2)
    assert compound_distance(a2, b2) == pytest.approx(np.sqrt(2.5), rel=1e-15)


def test_compound_distance_shape_mismatch():
    a = mg.QuantileState(np.zeros((1, 4)), sp([1.0], [1.0]))
    b = mg.QuantileState(np.zeros((1, 8)), sp([1.0], [1.0]))
    with pytest.raises(ValueError):
        compound_distance(a, b)


def test_metric_axioms_on_random_triples():
    rng = np.random.default_rng(17)
    params = sp([1.0, 0.5], [2.0, 1.0])
    for _ in range(200):
        us = [np.sort(rng.normal(size=(2, 8)), axis=1) for _ in range(3)]
        a, b, c = (mg.QuantileState(u, params) for u in us)
        dab, dba = compound_distance(a, b), compound_distance(b, a)
        assert dab == dba
        assert compound_distance(a, a) == 0.0
        assert dab <= compound_distance(a, c) + compound_distance(c, b) + 1e-12


def test_winf_worked_examples():
    params = sp([1.0], [1.0])
    a = mg.QuantileState(np.zeros((1, 4)), params)
    assert winf_distance(a, a, 0) == 0.0
    b = mg.QuantileState(np.full((1, 4), 2.0), params)
    assert winf_distance(a, b, 0) == 2.0
    c = mg.QuantileState(np.array([[0.0, 0.0, 0.0, 1.0]]), params)
    assert winf_distance(a, c, 0) == 1.0


def test_distance_order_relations():
    rng = np.random.default_rng(23)
    params = sp([1.5, 0.7], [2.0, 0.5])
    for _ in range(100):
        a = mg.QuantileState(np.sort(rng.normal(size=(2, 8)), axis=1), params)
        b = mg.QuantileState(np.sort(rng.normal(size=(2, 8)), axis=1), params)
        for i in range(2):
            p_i = params.p[i]
            winf = winf_distance(a, b, i)
            # mass-weighted sup bound dominates each species' squared cost
            term = (p_i / a.M) * np.sum((a.u[i] - b.u[i]) ** 2) / params.m[i]
            assert p_i * winf ** 2 >= params.m[i] * term - 1e-12


def test_centers_worked_examples():
    params = sp([1.0], [1.0], E=5.0)
    qs = mg.QuantileState(np.full((1, 8), 5.0), params)
    assert weighted_center_of_mass(qs) == 5.0

    params2 = sp([1.0, 2.0], [2.0, 2.0], E=5.0)
    qs2 = mg.QuantileState(np.vstack([np.full(8, 1.0), np.full(8, 3.0)]), params2)
    assert weighted_center_of_mass(qs2) == 5.0

    sym = mg.QuantileState(np.array([[-2.0, -1.0, 1.0, 2.0]]), sp([1.0], [1.0]))
    assert weighted_center_of_mass(sym) == 0.0


def test_quantile_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    params = sp([1.0, 2.0], [1.0, 1.0])
    states = [mg.QuantileState(np.sort(rng.normal(size=(2, 6)), axis=1), params)
              for _ in range(3)]
    times = [0.0, 0.5, 1.0]
    path = tmp_path / "traj.csv"
    write_quantile_csv(path, times, states)
    times2, states2 = read_quantile_csv(path, params)
    assert times2 == times
    for s, s2 in zip(states, states2):
        assert np.array_equal(s.u, s2.u)
