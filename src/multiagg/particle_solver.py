"""Exact atomic dynamics in arbitrary spatial dimension.

Each particle moves with velocity

    dx_i^k/dt = -m_i sum_j sum_l p_j^l grad W_ij(x_i^k - x_j^l),

where the kernel gradient is the radial profile W'(|z|) z / |z| (zero at the
origin, the only continuous extension for an even C1 kernel), in d=1 W' of
the signed displacement.  Forces and energies come from the engine
``potentials.pair_fields`` (each pair once, row tiles of bounded size).  On
1-d equal-mass atomic data that is the quantile solver's call, so both agree
bit-exactly.  ``run_particles`` is the quantile solver's
time loop, whose projection leaves a particle state unchanged.  As there, a
recorded state's field and energy come from one engine pass and the field is
the next step's first stage, so an RK4 run of S steps makes 4S + 1 passes.
``discrete_energy`` is ``diagnostics.energy``, bit for bit a recorded energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import energy as discrete_energy
from .measures import ParticleState
from .potentials import PotentialMatrix, pair_fields
from .quantile_solver import (_QUIET, SolverConfig, _check_records, _integrate, _resolve_dt,
                              _velocity)


@dataclass
class ParticleTrajectory:
    times: list
    states: list
    energies: list
    dt: float

    @property
    def final_state(self) -> ParticleState:
        return self.states[-1]


def particle_rhs(ps: ParticleState, pm: PotentialMatrix):
    """Per-particle velocities; list of (N_i, d) arrays.

    Equals -m_i / p_i^k times the partial derivative of the discrete energy
    with respect to x_i^k (the gradient-flow relation in the mass-weighted
    metric).
    """
    return _velocity(ps.positions, ps.masses, pm, ps.params.m)


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
    traj = ParticleTrajectory(times=[], states=[], energies=[], dt=_resolve_dt(ps0, pm, cfg))

    def record(ps, t):
        traj.times.append(t)
        traj.states.append(ps)
        with np.errstate(**_QUIET):
            field, energy = pair_fields(pm, *ps.clouds(), True)
        traj.energies.append(energy)
        return field

    _integrate(ps0, pm, cfg, traj, record)
    _check_records(traj, pm, [{"energy": e} for e in traj.energies])
    return traj
