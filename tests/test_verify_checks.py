"""The verify battery: one battery over whichever state a config gives, in every d.

Centre, contraction, dissipation identity, ground state and gradient checks
run on quantile and particle trajectories alike; the support checks are
one-dimensional and skip in d > 1.  On 1-d atomic data without crossings
the quantile and the equal-mass particle run give the same check values,
bit for bit.
"""

import dataclasses
import json

import numpy as np

from multiagg import cli, quantile_solver, verify
from multiagg.config import config_from_dict
from multiagg.convexity import lambda0


def mixed_config():
    knots = [0.0, 0.5, 1.0, 2.0, 3.0]
    tab = {"kind": "tabulated", "knots": knots,
           "values": [0.5 * k * k + 0.25 * np.exp(-k * k) for k in knots],
           "derivs": [k - 0.5 * k * np.exp(-k * k) for k in knots]}
    morse = {"kind": "morse", "ca": 1.0, "la": 1.0, "cr": 0.5, "lr": 0.25, "eps": 0.1}
    power = {"kind": "power", "q": 3.0, "a": 0.5}
    quad = {"kind": "quadratic", "a": 1.0}
    gauss = {"kind": "gaussian_ar", "ca": 1.0, "la": 1.0, "cr": 0.6, "lr": 0.2}
    zero = {"kind": "zero"}
    return {
        "params": {"m": [1.0, 0.5, 1.5], "p": [1.0, 0.8, 1.2]},
        "potential": {"entries": [[morse, power, quad], [power, gauss, zero], [quad, zero, tab]],
                      "kappa": [[-5.0, 0.0, 1.0], [0.0, -4.5, 0.0], [1.0, 0.0, 0.0]]},
        "initial": {"type": "preset", "name": "gauss_pair",
                    "args": {"centers": [-1.0, 1.0], "sigma": 0.2}},
        "solver": {"t_end": 0.4, "record_every": 5},
        "M": 32,
        "seed": 7,
    }


def test_dissipation_identity_passes_and_catches_a_scaled_dissipation():
    cfg = config_from_dict(mixed_config())
    traj = quantile_solver.run(cfg.initial_quantile, cfg.potential, cfg.solver)
    check = verify._dissipation_identity(traj)
    assert check.status == "pass"
    assert check.details["samples"] >= 3
    traj.records = [dataclasses.replace(r, dissipation=1.1 * r.dissipation)
                    for r in traj.records]
    assert verify._dissipation_identity(traj).status == "fail"


def test_gradient_consistency_passes_and_catches_scaled_velocities(monkeypatch):
    cfg = config_from_dict(mixed_config())
    check = verify._gradient_consistency(cfg)
    assert check.status == "pass" and check.details["max_relative_error"] < 1e-5
    # Velocities 0.1% off the energy gradient.
    velocity = quantile_solver.velocity
    monkeypatch.setattr(verify.quantile_solver, "velocity",
                        lambda state, pm: [(1.0 + 1e-3) * v for v in velocity(state, pm)])
    assert verify._gradient_consistency(cfg).status == "fail"


def test_gradient_consistency_skips_a_species_of_one_particle_on_itself(tmp_path):
    # CI's planar system with a Morse self kernel on a species of one particle: moved,
    # that particle meets no other of its species, and the empty cloud is left out.
    config = tmp_path / "lone.json"
    config.write_text(json.dumps({
        "params": {"m": [1.0, 0.5], "p": [1.0, 0.8], "d": 2},
        "potential": {"entries": [
            [{"kind": "morse", "ca": 1.0, "la": 1.0, "cr": 0.5, "lr": 0.25, "eps": 0.1},
             {"kind": "quadratic", "a": 0.5}],
            [{"kind": "quadratic", "a": 0.5}, {"kind": "power", "q": 4.0, "a": 0.1}]],
            "kappa": [[-5.0, 0.5], [0.5, 0.0]]},
        "initial": {"type": "particles", "species": [
            {"x": [[0.0, 0.0]], "mass": [1.0]},
            {"x": [[0.3, -0.2], [-1.0, 0.4]], "mass": [0.4, 0.4]}]},
        "solver": {"dt": 0.01, "t_end": 0.5, "record_every": 5}}))
    out = tmp_path / "verify.json"
    assert cli.main(["verify", "--config", str(config), "--out", str(out)]) == 0
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["gradient_consistency"]["status"] == "pass"


def test_contraction_companion_takes_the_main_runs_step():
    # Without a configured dt each run would derive its own step from its own
    # datum (here 0.037 against 0.076), and the check would compare states
    # recorded at different times.
    quad = [[{"kind": "quadratic", "a": a} for a in row] for row in ([1.0, 0.5], [0.5, 1.0])]
    cfg = config_from_dict({
        "params": {"m": [1.0, 0.5], "p": [1.0, 1.0]},
        "potential": {"entries": quad, "kappa": [[1.0, 0.5], [0.5, 1.0]]},
        "initial": {"type": "preset", "name": "gauss_pair", "args": {"sigma": 0.3}},
        "solver": {"t_end": 2.0, "record_every": 5},
        "M": 64,
    })
    assert cfg.solver.dt is None
    check = next(c for c in verify.run_verification(cfg).checks if c.name == "contraction")
    assert check.status == "pass"
    assert check.details["worst_ratio_to_bound"] < 1.0


def particles_config(entries, kappa, m, p, counts, solver, seed=0):
    rng = np.random.default_rng(seed)
    xs = [rng.normal(0.0, 1.0, (counts[0], 2)), rng.normal(0.5, 0.7, (counts[1], 2))]
    return config_from_dict({
        "params": {"m": m, "p": p, "d": 2},
        "potential": {"entries": entries, "kappa": kappa},
        "initial": {"type": "particles", "species": [
            {"x": x.tolist(), "mass": [w / len(x)] * len(x)} for x, w in zip(xs, p)]},
        "solver": solver,
    })


def test_plane_battery_on_a_nonconvex_system():
    # The benchmark's planar workload, scaled down: lambda0 < 0.
    cross = {"kind": "quadratic", "a": 0.5}
    cfg = particles_config(
        [[{"kind": "morse", "ca": 1.0, "la": 1.0, "cr": 0.6, "lr": 0.3, "eps": 0.05}, cross],
         [cross, {"kind": "gaussian_ar", "ca": 1.0, "la": 1.0, "cr": 0.6, "lr": 0.2}]],
        [[-15.0, 0.5], [0.5, -4.5]], [1.0, 0.8], [1.0, 0.5], (60, 40),
        {"dt": 0.01, "t_end": 0.04, "record_every": 2})
    report = verify.run_verification(cfg)
    checks = {c.name: c for c in report.checks}
    assert report.all_passed and report.dt == 0.01
    for name in ("center_conservation", "dissipation_identity", "gradient_consistency"):
        assert checks[name].status == "pass", name
    assert checks["dissipation_identity"].details["samples"] == 1
    for name in ("contraction", "ground_state"):
        assert checks[name].status == "skipped" and "lambda0 <= 0" in checks[name].reason
    for name in ("confinement", "delta_separation", "finite_propagation"):
        assert (checks[name].status, checks[name].reason) == ("skipped",
                                                               verify.ONE_DIMENSIONAL)


def convex_plane_config():
    # lambda0 = 1: kernels four times those of the lambda0 = 0.25 system
    # Quadratic(1), Quadratic(0.5), Power(4, 0.1), so lambda0 t_end >= 10 at t_end = 10.5.
    quad = [{"kind": "quadratic", "a": a} for a in (4.0, 2.0)]
    return particles_config([[quad[0], quad[1]], [quad[1], {"kind": "power", "q": 4.0, "a": 0.4}]],
                            [[4.0, 2.0], [2.0, 0.0]], [1.0, 0.5], [1.0, 0.8], (40, 30),
                            {"dt": 0.01, "t_end": 10.5, "record_every": 50})


def test_plane_contraction_and_ground_state_pass_and_catch_a_doctored_trajectory():
    cfg = convex_plane_config()
    rate = lambda0(cfg.potential.kappa, cfg.params).lambda0
    assert rate == 1.0
    traj = quantile_solver.run(cfg.initial_particles, cfg.potential, cfg.solver)
    contraction = verify._contraction(cfg, traj, rate)
    ground = verify._ground_state(cfg, traj, rate)
    assert contraction.status == "pass" and contraction.details["worst_ratio_to_bound"] < 1.0
    assert ground.status == "pass" and ground.details["winf_to_ground"] < 1e-3
    # A run that never moves does not contract towards its companion.
    still = dataclasses.replace(traj, states=[traj.states[0]] * len(traj.states))
    assert verify._contraction(cfg, still, rate).status == "fail"
    # A final state 2e-3 off the concentrated one.
    final = traj.final_state
    off = final.with_clouds([x + 2e-3 * (i == 0) for i, x in enumerate(final.positions)])
    moved = dataclasses.replace(traj, states=traj.states[:-1] + [off])
    assert verify._ground_state(cfg, moved, rate).status == "fail"


def test_quantile_and_particle_batteries_agree_bit_for_bit():
    quad = [[{"kind": "quadratic", "a": a} for a in row] for row in ([2.0, 1.0], [1.0, 2.0])]
    cfg = config_from_dict({
        "params": {"m": [1.0, 0.5], "p": [1.0, 1.5]},
        "potential": {"entries": quad, "kappa": [[2.0, 1.0], [1.0, 2.0]],
                      "confining": {"R": 1.0, "C": [[10.0, 1.0], [1.0, 1.0]]}},
        "initial": {"type": "preset", "name": "gauss_pair", "args": {"sigma": 0.3}},
        "solver": {"dt": 0.02, "t_end": 10.0, "record_every": 5},
        "M": 24,
        "seed": 3,
    })
    assert quantile_solver.run(cfg.initial_quantile, cfg.potential, cfg.solver).repair_events == 0
    grid = verify.run_verification(cfg)
    atoms = verify.run_verification(dataclasses.replace(cfg, initial_quantile=None))
    assert all(c.status == "pass" for c in grid.checks)
    assert [(c.name, c.status, c.reason) for c in grid.checks] == \
        [(c.name, c.status, c.reason) for c in atoms.checks]
    for a, b in zip(grid.checks, atoms.checks):
        assert a.details == b.details, a.name
    assert grid.dt == atoms.dt


def test_dissipation_identity_skips_records_too_far_apart_to_resolve_it():
    # Records 0.5 apart give a tolerance 5 h^2 = 1.25, which the 46% error of
    # this run's Simpson sums would pass; its first records show the same error.
    cfg = convex_plane_config()
    solver = dataclasses.replace(cfg.solver, t_end=1.5)
    check = verify._dissipation_identity(
        quantile_solver.run(cfg.initial_particles, cfg.potential, solver))
    assert check.status == "skipped"
    assert check.reason == "records 0.5 apart: the tolerance 5 h^2 = 1.25 is not below 0.1"
