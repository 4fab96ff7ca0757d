"""Exact atomic dynamics in arbitrary spatial dimension.

Each particle moves with velocity

    dx_i^k/dt = -m_i sum_j sum_l p_j^l grad W_ij(x_i^k - x_j^l),

where the kernel gradient is the radial profile W'(|z|) z / |z| (zero at the
origin, the only continuous extension for an even C1 kernel), in d=1 W' of
the signed displacement.  A particle state is a list of weighted clouds, as
a quantile state is, so this module only names the shared code: the engine
``potentials.pair_fields`` gives forces and energies, ``run_particles`` is
``quantile_solver.run`` (its sort repair leaves a particle state unchanged),
``ParticleTrajectory`` its ``Trajectory``, ``discrete_energy`` is
``diagnostics.energy`` and ``discrete_metric`` is ``measures.compound_distance``,
the labelled metric on particle states.  On 1-d equal-mass atomic data both
solvers agree bit-exactly.
"""

from __future__ import annotations

from .diagnostics import energy as discrete_energy
from .measures import ParticleState, compound_distance as discrete_metric
from .potentials import PotentialMatrix
from .quantile_solver import Trajectory as ParticleTrajectory, _velocity
from .quantile_solver import run as run_particles


def particle_rhs(ps: ParticleState, pm: PotentialMatrix):
    """Per-particle velocities; list of (N_i, d) arrays.

    Equals -m_i / p_i^k times the partial derivative of the discrete energy
    with respect to x_i^k (the gradient-flow relation in the mass-weighted
    metric).
    """
    return _velocity(ps.positions, ps.masses, pm, ps.params.m)
