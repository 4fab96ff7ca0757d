"""The verify battery's dissipation identity on a mixed-kernel system."""

import dataclasses

import numpy as np

from multiagg import quantile_solver, verify
from multiagg.config import config_from_dict


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
