"""Exact atomic dynamics in arbitrary spatial dimension.

Each particle moves with velocity

    dx_i^k/dt = -m_i sum_j sum_l p_j^l grad W_ij(x_i^k - x_j^l),

where the kernel gradient is the radial profile W'(|z|) z / |z| (zero at the
origin, the only continuous extension for an even C1 kernel).  For
one-dimensional atomic data with equal cell masses this is the same finite
ODE the quantile solver integrates.  Forces and energies of quadratic
entries are evaluated in closed form from species masses and moments,
O(N_i + N_j) per pair; every other entry is summed directly, O(N_i N_j).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .measures import ParticleState
from .potentials import PotentialMatrix, Quadratic
from .quantile_solver import SolverConfig


@dataclass
class ParticleTrajectory:
    times: list
    states: list
    energies: list

    @property
    def final_state(self) -> ParticleState:
        return self.states[-1]


def _radial_grad(pot, diff: np.ndarray) -> np.ndarray:
    """grad W applied to a (N, L, d) array of displacement vectors."""
    r = np.sqrt((diff * diff).sum(axis=-1))
    g = np.asarray(pot.deriv(r))
    coef = np.divide(g, r, out=np.zeros_like(g), where=r > 0.0)
    return coef[..., None] * diff


def _velocities(positions, masses, pm: PotentialMatrix, m: np.ndarray):
    # Quadratic blocks are summed in closed form by moments.  Other
    # off-diagonal blocks are computed once; the reverse forces are the
    # negated transpose of the same array.
    n = len(positions)
    acc = [np.zeros_like(x) for x in positions]
    for i in range(n):
        for j in range(i, n):
            pot = pm.entries[i][j]
            if pot.is_identically_zero():
                continue
            if isinstance(pot, Quadratic):
                fi, fj = pot.cloud_fields(positions[i], masses[i], positions[j], masses[j])
                acc[i] += fi
                if j != i:
                    acc[j] += fj
                continue
            diff = positions[i][:, None, :] - positions[j][None, :, :]
            forces = _radial_grad(pot, diff)
            acc[i] += (masses[j][None, :, None] * forces).sum(axis=1)
            if j != i:
                acc[j] -= (masses[i][:, None, None] * forces).sum(axis=0)
    return [-m[i] * a for i, a in enumerate(acc)]


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
    total = 0.0
    for i in range(ps.n):
        for j in range(ps.n):
            pot = pm.entries[i][j]
            if isinstance(pot, Quadratic):
                total += pot.cloud_energy(ps.positions[i], ps.masses[i],
                                          ps.positions[j], ps.masses[j])
                continue
            diff = ps.positions[i][:, None, :] - ps.positions[j][None, :, :]
            r = np.sqrt((diff * diff).sum(axis=-1))
            total += float(ps.masses[i] @ np.asarray(pot.value(r)) @ ps.masses[j])
    return 0.5 * total


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


def _advance(positions, masses, pm, params, dt: float, scheme: str):
    m = params.m

    def f(xs):
        return _velocities(xs, masses, pm, m)

    if scheme == "euler":
        v = f(positions)
        return [x + dt * vi for x, vi in zip(positions, v)]
    k1 = f(positions)
    k2 = f([x + 0.5 * dt * v for x, v in zip(positions, k1)])
    k3 = f([x + 0.5 * dt * v for x, v in zip(positions, k2)])
    k4 = f([x + dt * v for x, v in zip(positions, k3)])
    return [x + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
            for x, a, b, c, d in zip(positions, k1, k2, k3, k4)]


def stable_dt_particles(ps: ParticleState, pm: PotentialMatrix,
                        cfl_safety: float = 0.2, cap: float = 1.0) -> float:
    """Same step bound as the quantile solver, over the particle hull."""
    from .potentials import estimate_growth_bound

    lo = min(float(x.min()) for x in ps.positions)
    hi = max(float(x.max()) for x in ps.positions)
    diam = np.sqrt(ps.params.d) * (hi - lo)
    span = max(diam, 1e-9)
    rate = 0.0
    for i in range(ps.n):
        total = 0.0
        for j in range(ps.n):
            c = estimate_growth_bound(pm.entries[i][j], (-span, span), 513)
            total += c * ps.params.p[j]
        rate = max(rate, ps.params.m[i] * total * (1.0 + diam))
    if rate <= 0.0:
        return cap
    return min(cfl_safety / rate, cap)


def run_particles(ps0: ParticleState, pm: PotentialMatrix, cfg: SolverConfig) -> ParticleTrajectory:
    """Integrate the atomic dynamics; records states and discrete energies."""
    dt = cfg.dt if cfg.dt is not None else stable_dt_particles(ps0, pm, cfg.cfl_safety)
    traj = ParticleTrajectory(times=[0.0], states=[ps0],
                              energies=[discrete_energy(ps0, pm)])
    n_full = int(np.floor(cfg.t_end / dt + 1e-9))
    remainder = cfg.t_end - n_full * dt
    if remainder < 1e-12 * max(dt, 1.0):
        remainder = 0.0
    positions = ps0.positions
    total_steps = n_full + (1 if remainder else 0)
    for k in range(1, total_steps + 1):
        this_dt = dt if k <= n_full else remainder
        t = k * dt if k <= n_full else cfg.t_end
        positions = _advance(positions, ps0.masses, pm, ps0.params, this_dt, cfg.scheme)
        for i, x in enumerate(positions):
            if not np.all(np.isfinite(x)):
                kk = int(np.argwhere(~np.isfinite(x))[0][0])
                err = NumericsError(f"non-finite particle position at t={t}",
                                    witness={"i": i, "k": kk})
                err.partial = traj
                raise err
        if k % cfg.record_every == 0 or k == total_steps:
            state = ps0.with_positions([x.copy() for x in positions])
            traj.times.append(t)
            traj.states.append(state)
            traj.energies.append(discrete_energy(state, pm))
    return traj
