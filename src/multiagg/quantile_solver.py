"""Explicit time integration of the n-species quantile dynamics.

The state advances by

    du_i[k]/dt = m_i sum_j p_j (1/M) sum_l W'_ij(u_j[l] - u_i[k]),

the midpoint-quadrature discretization of the nonlocal velocity field; the
quadrature is exact for atomic (equal-mass-cell) data, so such states evolve
as exact particle solutions.  The velocity comes from the engine
``potentials.pair_fields`` on the grid as clouds of M points of weight p_i / M,
the call the particle solver makes, so both agree bit-exactly on such data.

Explicit schemes only (forward Euler and classical RK4): the velocity field
is bounded and Lipschitz on bounded states, so a step-size bound derived from
the gradient growth estimate keeps integration stable.  The step schedule,
Euler/RK4 driver and ``stable_dt`` serve both solvers.  Monotonicity of the
quantile vectors is preserved by the continuous flow but can be crossed by a
discrete step; per-species sorting is the metric projection back onto the
monotone cone and is a no-op when nothing crossed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import diagnostics
from .convexity import modulus
from .errors import NumericsError
from .measures import QuantileState, grid_clouds
from .potentials import _TILE, PotentialMatrix, estimate_growth_bound, pair_fields

SCHEMES = ("euler", "rk4")
REPAIRS = ("none", "sort")


@dataclass
class SolverConfig:
    """Time-stepping parameters shared by the quantile and particle solvers.

    ``dt=None`` means: derive the step from the stability bound at the
    initial state.  ``record_every`` counts steps between stored snapshots.
    """

    dt: Optional[float] = None
    t_end: float = 1.0
    scheme: str = "rk4"
    repair: str = "sort"
    cfl_safety: float = 0.2
    record_every: int = 1

    def __post_init__(self):
        if self.dt is not None and not 0.0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not 0.0 <= self.t_end < np.inf:
            raise ValueError(f"t_end must be finite and >= 0, got {self.t_end}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.repair not in REPAIRS:
            raise ValueError(f"repair must be one of {REPAIRS}, got {self.repair!r}")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError(f"cfl_safety must be in (0, 1], got {self.cfl_safety}")
        every = self.record_every
        if isinstance(every, bool) or not isinstance(every, int) or every < 1:
            raise ValueError(f"record_every must be an integer >= 1, got {every!r}")


@dataclass
class StepInfo:
    monotonicity_violated: bool
    repair_applied: bool


@dataclass
class Trajectory:
    times: list
    states: list
    records: list
    dt: float
    monotonicity_violations: int = 0
    repair_events: int = 0

    @property
    def final_state(self) -> QuantileState:
        return self.states[-1]

    def series(self, attr: str):
        """(times, values) arrays for a scalar DiagnosticsRecord attribute."""
        vals = [getattr(r, attr) for r in self.records]
        return np.array([r.t for r in self.records]), np.array(vals)


def _velocity(u: np.ndarray, pm: PotentialMatrix, m: np.ndarray, p: np.ndarray) -> np.ndarray:
    fields = pair_fields(pm, *grid_clouds(u, p))
    return -m[:, None] * np.stack(fields)[:, :, 0]


def _nonfinite_witness(u: np.ndarray, pm: PotentialMatrix) -> dict:
    """First (i, j, k, l) in row-major order with non-finite W'_ij(u_j[l] - u_i[k]), in row tiles."""
    n, M = u.shape
    rows = max(1, _TILE // M)
    for i in range(n):
        for j in range(n):
            for k0 in range(0, M, rows):
                g = pm.entries[i][j].deriv(u[j][None, :] - u[i][k0:k0 + rows, None])
                bad = np.argwhere(~np.isfinite(g))
                if bad.size:
                    k, l = map(int, bad[0])
                    return {"i": i, "j": j, "k": k0 + k, "l": l}
    bad = np.argwhere(~np.isfinite(u))
    if bad.size:
        i, k = map(int, bad[0])
        return {"i": i, "k": k}
    return {}


def rhs(qs: QuantileState, pm: PotentialMatrix) -> np.ndarray:
    """Velocity grid v_i[k] = m_i sum_j p_j (1/M) sum_l W'_ij(u_j[l] - u_i[k])."""
    if pm.n != qs.n:
        raise ValueError(f"matrix is {pm.n}x{pm.n} but state has n={qs.n} species")
    v = _velocity(qs.u, pm, qs.params.m, qs.params.p)
    if not np.all(np.isfinite(v)):
        raise NumericsError("non-finite velocity in quantile dynamics",
                            witness=_nonfinite_witness(qs.u, pm))
    return v


def stable_dt(state, pm: PotentialMatrix, cfl_safety: float = 0.2, cap: float = 1.0) -> float:
    """Step bound cfl / max_i( m_i sum_j C_ij p_j (1 + diam) ), quantile or particle state.

    diam, sqrt(d) times the coordinate range, bounds the support diameter.
    C_ij estimates the gradient growth constant over it, so the rate bounds
    the velocity contrast that could invert a cell in one step.
    """
    xs, _ = state.clouds()
    lo = min(float(x.min()) for x in xs)
    hi = max(float(x.max()) for x in xs)
    diam = np.sqrt(state.params.d) * (hi - lo)
    span = max(diam, 1e-9)
    rate = 0.0
    for i in range(state.n):
        total = 0.0
        for j in range(state.n):
            c = estimate_growth_bound(pm.entries[i][j], (-span, span), 513)
            total += c * state.params.p[j]
        rate = max(rate, state.params.m[i] * total * (1.0 + diam))
    if rate <= 0.0:
        return cap
    return min(cfl_safety / rate, cap)


def _explicit_step(f, xs: list, dt: float, scheme: str) -> list:
    """One forward Euler or classical RK4 step of x' = f(x) on a list of arrays."""
    k1 = f(xs)
    if scheme == "euler":
        return [x + dt * a for x, a in zip(xs, k1)]
    k2 = f([x + 0.5 * dt * a for x, a in zip(xs, k1)])
    k3 = f([x + 0.5 * dt * a for x, a in zip(xs, k2)])
    k4 = f([x + dt * a for x, a in zip(xs, k3)])
    return [x + dt / 6.0 * (a + 2.0 * b + 2.0 * c + e)
            for x, a, b, c, e in zip(xs, k1, k2, k3, k4)]


def _step_schedule(cfg: SolverConfig, dt: float):
    """(step length, time after it, snapshot due?) for each step: steps of dt,
    then one onto t_end unless the remainder is roundoff."""
    n_full = int(np.floor(cfg.t_end / dt + 1e-9))
    remainder = cfg.t_end - n_full * dt
    if remainder < 1e-12 * max(dt, 1.0):
        remainder = 0.0
    total_steps = n_full + (1 if remainder else 0)
    for k in range(1, total_steps + 1):
        h, t = (dt, k * dt) if k <= n_full else (remainder, cfg.t_end)
        yield h, t, k % cfg.record_every == 0 or k == total_steps


def step(qs: QuantileState, pm: PotentialMatrix, cfg: SolverConfig,
         dt: Optional[float] = None):
    """One explicit step; returns (new state, StepInfo).

    With repair="sort" each species is re-sorted ascending afterwards (a
    no-op unless the step crossed cells); with repair="none" a crossing is
    reported in the StepInfo, not fatal.
    """
    if dt is None:
        dt = cfg.dt if cfg.dt is not None else stable_dt(qs, pm, cfg.cfl_safety)
    [u1] = _explicit_step(lambda xs: [_velocity(xs[0], pm, qs.params.m, qs.params.p)],
                          [qs.u], dt, cfg.scheme)
    if not np.all(np.isfinite(u1)):
        raise NumericsError(f"non-finite state after step of dt={dt}",
                            witness=_nonfinite_witness(qs.u, pm))
    violated = bool(np.any(np.diff(u1, axis=1) < 0.0))
    repaired = violated and cfg.repair == "sort"
    if repaired:
        u1 = np.sort(u1, axis=1)
    return qs.with_u(u1), StepInfo(violated, repaired)


def run(qs0: QuantileState, pm: PotentialMatrix, cfg: SolverConfig) -> Trajectory:
    """Integrate to t_end, recording states and diagnostics along the way.

    On a numeric failure the partial trajectory is attached to the raised
    NumericsError.  The recorded diagnostics include the compound distance to
    the concentrated ground state whenever the convexity modulus is positive.
    """
    dt = cfg.dt if cfg.dt is not None else stable_dt(qs0, pm, cfg.cfl_safety)
    positive = modulus(pm.kappa, qs0.params) > 0.0
    ground = diagnostics.ground_state(qs0.params, qs0.M) if positive else None

    traj = Trajectory(times=[0.0], states=[qs0],
                      records=[diagnostics.record(qs0, pm, 0.0, ground)], dt=dt)
    qs = qs0
    for this_dt, t, due in _step_schedule(cfg, dt):
        try:
            qs, info = step(qs, pm, cfg, dt=this_dt)
        except NumericsError as err:
            err.partial = traj
            raise
        traj.monotonicity_violations += info.monotonicity_violated
        traj.repair_events += info.repair_applied
        if due:
            traj.times.append(t)
            traj.states.append(qs)
            traj.records.append(diagnostics.record(qs, pm, t, ground))
    return traj
