"""Exact atomic dynamics in arbitrary spatial dimension.

Each particle moves with velocity

    dx_i^k/dt = -m_i sum_j sum_l p_j^l grad W_ij(x_i^k - x_j^l),

where the kernel gradient is the radial profile W'(|z|) z / |z| (zero at the
origin, the only continuous extension for an even C1 kernel), in d=1 W' of
the signed displacement.  Forces and energies come from the engine
``potentials.pair_fields`` / ``pair_energy`` (each pair once, row tiles of
bounded size).  On 1-d equal-mass atomic data that is the quantile solver's
call, so both agree bit-exactly; steps use its schedule, driver and stable_dt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .measures import ParticleState
from .potentials import PotentialMatrix, pair_energy, pair_fields
from .quantile_solver import SolverConfig, _explicit_step, _step_schedule, stable_dt


@dataclass
class ParticleTrajectory:
    times: list
    states: list
    energies: list
    dt: float

    @property
    def final_state(self) -> ParticleState:
        return self.states[-1]


def _velocities(positions, masses, pm: PotentialMatrix, m: np.ndarray):
    return [-m[i] * f for i, f in enumerate(pair_fields(pm, positions, masses))]


def particle_rhs(ps: ParticleState, pm: PotentialMatrix):
    """Per-particle velocities; list of (N_i, d) arrays.

    Equals -m_i / p_i^k times the partial derivative of the discrete energy
    with respect to x_i^k (the gradient-flow relation in the mass-weighted
    metric).
    """
    if pm.n != ps.n:
        raise ValueError(f"matrix is {pm.n}x{pm.n} but state has n={ps.n} species")
    vel = _velocities(ps.positions, ps.masses, pm, ps.params.m)
    for i, v in enumerate(vel):
        if not np.all(np.isfinite(v)):
            k = int(np.argwhere(~np.isfinite(v))[0][0])
            raise NumericsError("non-finite particle velocity",
                                witness={"i": i, "k": k})
    return vel


def discrete_energy(ps: ParticleState, pm: PotentialMatrix) -> float:
    """(1/2) sum_ij sum_kl p_i^k p_j^l W_ij(|x_i^k - x_j^l|)."""
    return pair_energy(pm, *ps.clouds())


def discrete_metric(a: ParticleState, b: ParticleState) -> float:
    """Mass-weighted Euclidean distance between labelled configurations.

    sqrt( sum_i (1/m_i) sum_k p_i^k |x_i^k - y_i^k|^2 ).  This couples
    particles by label, not by optimal transport: swapping two identical
    particles gives a positive distance although the measures coincide.
    """
    if a.counts != b.counts:
        raise ValueError(f"particle counts differ: {a.counts} vs {b.counts}")
    for i in range(a.n):
        if not np.array_equal(a.masses[i], b.masses[i]):
            raise ValueError(f"species {i}: particle masses differ")
    total = 0.0
    for i in range(a.n):
        sq = ((a.positions[i] - b.positions[i]) ** 2).sum(axis=1)
        total += float((a.masses[i] * sq).sum()) / a.params.m[i]
    return float(np.sqrt(total))


def run_particles(ps0: ParticleState, pm: PotentialMatrix, cfg: SolverConfig) -> ParticleTrajectory:
    """Integrate the atomic dynamics; records states and discrete energies."""
    dt = cfg.dt if cfg.dt is not None else stable_dt(ps0, pm, cfg.cfl_safety)
    traj = ParticleTrajectory(times=[0.0], states=[ps0],
                              energies=[discrete_energy(ps0, pm)], dt=dt)
    positions = ps0.positions
    for this_dt, t, due in _step_schedule(cfg, dt):
        positions = _explicit_step(lambda xs: _velocities(xs, ps0.masses, pm, ps0.params.m),
                                   positions, this_dt, cfg.scheme)
        for i, x in enumerate(positions):
            if not np.all(np.isfinite(x)):
                kk = int(np.argwhere(~np.isfinite(x))[0][0])
                err = NumericsError(f"non-finite particle position at t={t}",
                                    witness={"i": i, "k": kk})
                err.partial = traj
                raise err
        if due:
            state = ps0.with_positions([x.copy() for x in positions])
            traj.times.append(t)
            traj.states.append(state)
            traj.energies.append(discrete_energy(state, pm))
    return traj
