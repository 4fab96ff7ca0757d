"""Config-driven verification battery.

Integrates the config's initial datum, its quantile state when it has one,
else its particle state, through the one ``quantile_solver.run``, and runs
one battery on the trajectory, reporting one pass/fail/skipped entry per
check.  The paper's convexity results hold on R^d, so
``center_conservation``, ``contraction``, ``dissipation_identity``,
``ground_state`` and ``gradient_consistency`` run in every dimension; its
support results are one-dimensional, so ``finite_propagation``,
``delta_separation`` and ``confinement`` skip in d > 1.  Inapplicable checks
are skipped with a reason, never failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import diagnostics, measures, particle_solver, quantile_solver
from .config import ExperimentConfig
from .convexity import confining_check, modulus
from .errors import NumericsError


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    reason: str = ""
    details: dict = field(default_factory=dict)


@dataclass
class VerificationReport:
    checks: list
    dt: float | None = None  # step of the run, None when it failed without one

    @property
    def all_passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)


ONE_DIMENSIONAL = "the paper's support results are one-dimensional (d = 1)"


def _perturbed_initial(state):
    """A second admissible datum: shrink each cloud towards its weighted mean, shift the
    means with zero net.

    Keeps every quantile species monotone and leaves the weighted center
    unchanged, so both data live in the same constrained state space.
    """
    xs, ws = state.clouds()
    params = state.params
    shifts = [0.0] * params.n
    if params.n >= 2:
        shifts[:2] = 0.1 * params.m[0] / params.p[0], -0.1 * params.m[1] / params.p[1]
    means = [(w[:, None] * x).sum(axis=0) / w.sum() for x, w in zip(xs, ws)]
    return state.with_clouds([c + 0.5 * (x - c) + s for x, c, s in zip(xs, means, shifts)])


def run_verification(cfg: ExperimentConfig) -> VerificationReport:
    state0 = cfg.initial_quantile if cfg.initial_quantile is not None else cfg.initial_particles
    try:
        traj = quantile_solver.run(state0, cfg.potential, cfg.solver)
    except NumericsError as err:
        failed = CheckResult("center_conservation", "fail",
                             f"integration failed: {err} (witness {err.witness})")
        return VerificationReport([failed], err.partial.dt if err.partial is not None else None)

    rate = modulus(cfg.potential.kappa, cfg.params)
    checks = [_center_conservation(cfg, traj), _contraction(cfg, traj, rate),
              _dissipation_identity(traj), _ground_state(cfg, traj, rate),
              _gradient_consistency(cfg)]
    for name, check in (("confinement", _confinement), ("delta_separation", _delta_separation),
                        ("finite_propagation", _finite_propagation)):
        one_d = cfg.params.d == 1
        checks.append(check(cfg, traj) if one_d else CheckResult(name, "skipped", ONE_DIMENSIONAL))
    checks.sort(key=lambda c: c.name)
    return VerificationReport(checks, traj.dt)


def _center_conservation(cfg, traj) -> CheckResult:
    times, centers = traj.series("E_invariant")
    reach = max(float(np.abs(x).max()) for x in traj.states[0].clouds()[0])
    scale = max(1.0, reach * float(np.sum(cfg.params.p / cfg.params.m)))
    drift = float(np.abs(centers - centers[0]).max()) / scale
    status = "pass" if drift <= 1e-10 else "fail"
    return CheckResult("center_conservation", status,
                       details={"relative_drift": drift, "tolerance": 1e-10})


def _finite_propagation(cfg, traj) -> CheckResult:
    hi = max(float(np.abs(r.supp_lo).max()) for r in traj.records)
    hi = max(hi, max(float(np.abs(r.supp_hi).max()) for r in traj.records))
    finite = np.isfinite(hi)
    return CheckResult("finite_propagation", "pass" if finite else "fail",
                       details={"max_abs_support_bound": hi})


def _contraction(cfg, traj, modulus) -> CheckResult:
    if modulus <= 0.0:
        return CheckResult("contraction", "skipped",
                           "lambda0 <= 0: the contraction bound is not informative")
    other0 = _perturbed_initial(traj.states[0])
    try:
        # The companion takes the main run's step, so both record the same times.
        other = quantile_solver.run(other0, cfg.potential, replace(cfg.solver, dt=traj.dt))
    except NumericsError as err:
        return CheckResult("contraction", "fail", f"companion run failed: {err}")
    d0 = measures.compound_distance(traj.states[0], other0)
    worst = 0.0
    for t, a, b in zip(traj.times, traj.states, other.states):
        bound = np.exp(-modulus * t) * d0 * 1.05 + 1e-14
        worst = max(worst, measures.compound_distance(a, b) / bound)
    status = "pass" if worst <= 1.0 else "fail"
    return CheckResult("contraction", status,
                       details={"lambda0": modulus, "initial_distance": d0,
                                "worst_ratio_to_bound": worst})


def _delta_separation(cfg, traj) -> CheckResult:
    params = cfg.params
    s = cfg.potential.kappa @ params.p
    applicable = [i for i in range(params.n) if s[i] > 0.0]
    if not applicable:
        return CheckResult("delta_separation", "skipped",
                           "no species has positive total convexity sum")
    dt = traj.dt
    worst = 0.0
    rates = {}
    for i in applicable:
        rate = params.m[i] * s[i]
        rates[f"species_{i}"] = float(rate)
        d0 = traj.records[0].diam[i]
        tol = 1.0 + 10.0 * dt * rate
        for rec in traj.records:
            bound = np.exp(-rate * rec.t) * d0 * tol + 1e-12 * max(1.0, d0)
            worst = max(worst, rec.diam[i] / bound)
    status = "pass" if worst <= 1.0 else "fail"
    return CheckResult("delta_separation", status,
                       details={"decay_rates": rates, "worst_ratio_to_bound": worst})


def _dissipation_identity(traj) -> CheckResult:
    recs = traj.records
    if len(recs) < 3:
        return CheckResult("dissipation_identity", "skipped",
                           "need at least 3 recorded snapshots")
    h = recs[1].t - recs[0].t
    tol = max(1e-6, 5.0 * h * h)
    if tol >= 0.1:
        # Such a tolerance would pass a dissipation off by 10% or more.
        return CheckResult("dissipation_identity", "skipped",
                           f"records {h:g} apart: the tolerance 5 h^2 = {tol:g} is "
                           "not below 0.1")
    usable = 0
    worst = 0.0
    for k in range(1, len(recs) - 1):
        h1 = recs[k].t - recs[k - 1].t
        h2 = recs[k + 1].t - recs[k].t
        if abs(h1 - h2) > 1e-9 * max(h1, h2):
            continue
        dis = recs[k].dissipation
        if abs(dis) <= 1e-6 * (1.0 + abs(recs[k].energy)):
            continue
        # Energy change over [t_{k-1}, t_{k+1}] against Simpson's rule for the
        # integral of D: O(h^5) error, where a central difference's O(h^3)
        # outgrows the h^2 tolerance on fast flows.
        rise = recs[k + 1].energy - recs[k - 1].energy
        simpson = h1 / 3.0 * (recs[k - 1].dissipation + 4.0 * dis + recs[k + 1].dissipation)
        usable += 1
        worst = max(worst, abs(rise - simpson) / abs(simpson))
    if usable == 0:
        return CheckResult("dissipation_identity", "skipped",
                           "dissipation below resolution at all interior snapshots")
    status = "pass" if worst <= tol else "fail"
    return CheckResult("dissipation_identity", status,
                       details={"max_relative_error": worst, "tolerance": tol,
                                "samples": usable})


def _confinement(cfg, traj) -> CheckResult:
    if cfg.potential.confining is None:
        return CheckResult("confinement", "skipped", "no confining declaration in config")
    report = confining_check(cfg.potential, cfg.params)
    if not report.verdict:
        return CheckResult("confinement", "skipped",
                           "declared tail convexity is not confining")
    if cfg.solver.t_end < 10.0:
        return CheckResult("confinement", "skipped",
                           "horizon too short to test settled support (need t_end >= 10)")
    t_mid = cfg.solver.t_end / 2.0
    mid = min(range(len(traj.records)), key=lambda k: abs(traj.records[k].t - t_mid))
    last = traj.records[-1]
    drift = max(float(np.abs(last.supp_lo - traj.records[mid].supp_lo).max()),
                float(np.abs(last.supp_hi - traj.records[mid].supp_hi).max()))
    status = "pass" if drift < 1e-3 else "fail"
    return CheckResult("confinement", status,
                       details={"lambda0_tilde": report.lambda0_tilde,
                                "support_drift_mid_to_end": drift, "tolerance": 1e-3})


def _ground_state(cfg, traj, modulus) -> CheckResult:
    if modulus <= 0.0:
        return CheckResult("ground_state", "skipped", "lambda0 <= 0: no unique ground state")
    if modulus * cfg.solver.t_end < 10.0:
        return CheckResult("ground_state", "skipped",
                           "horizon too short (need lambda0 * t_end >= 10)")
    final = traj.final_state
    ground = diagnostics.concentrated(final)
    winf = max(measures.winf_distance(final, ground, i) for i in range(cfg.params.n))
    status = "pass" if winf <= 1e-3 else "fail"
    return CheckResult("ground_state", status,
                       details={"winf_to_ground": winf, "tolerance": 1e-3})


def _gradient_consistency(cfg) -> CheckResult:
    """The engine's field against central differences of the energy in the moved
    particle's interactions: the ``cloud_fields`` energy of {x_k +- h e_a} against each
    species, without particle k."""
    ps = cfg.initial_particles
    if ps is None:
        return CheckResult("gradient_consistency", "skipped", "no particle representation")
    vel = particle_solver.particle_rhs(ps, cfg.potential)
    h = 1e-6
    worst = 0.0
    scale = max(float(np.abs(v).max()) for v in vel) or 1.0
    for i in range(ps.n):
        x, w = ps.positions[i], ps.masses[i]
        for k in range(min(len(x), 4)):
            others = [(np.delete(y, k, axis=0), np.delete(wy, k)) if j == i else (y, wy)
                      for j, (y, wy) in enumerate(zip(ps.positions, ps.masses))]
            pairs = [(pot, y, wy) for pot, (y, wy) in zip(cfg.potential.entries[i], others)
                     if len(y) and not pot.is_identically_zero()]
            for axis in range(ps.params.d):
                plus, minus = x[k:k + 1].copy(), x[k:k + 1].copy()
                plus[0, axis] += h
                minus[0, axis] -= h
                rise = sum(pot.cloud_fields(plus, w[k:k + 1], y, wy, energy=True)[2]
                           - pot.cloud_fields(minus, w[k:k + 1], y, wy, energy=True)[2]
                           for pot, y, wy in pairs)
                expected = -ps.params.m[i] / w[k] * (rise / (2.0 * h))
                worst = max(worst, abs(vel[i][k, axis] - expected) / scale)
    status = "pass" if worst <= 1e-5 else "fail"
    return CheckResult("gradient_consistency", status,
                       details={"max_relative_error": worst, "tolerance": 1e-5})
