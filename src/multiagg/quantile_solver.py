"""Explicit time integration of the n-species quantile dynamics.

The state advances by

    du_i[k]/dt = m_i sum_j p_j (1/M) sum_l W'_ij(u_j[l] - u_i[k]),

the midpoint-quadrature discretization of the nonlocal velocity field; the
quadrature is exact for atomic (equal-mass-cell) data, so such states evolve
as exact particle solutions.  The velocity comes from the engine on the grid
as clouds of M points of weight p_i / M, the pass a particle state makes, so
both agree bit-exactly on such data.

Explicit schemes only (forward Euler and classical RK4): the velocity field
is bounded and Lipschitz on bounded states, so a step-size bound derived from
the gradient growth estimate keeps integration stable.  Monotonicity of the
quantile vectors is preserved by the continuous flow but can be crossed by a
discrete step; per-species sorting is the metric projection back onto the
monotone cone and is a no-op when nothing crossed.

Both solvers are one ``run``: it builds one ``engine.InteractionPlan`` for
the state's layout and steps one stacked (sum N_i, d) array of all species'
points, so each RK stage, the finiteness check, the crossing check and the
sort repair is one numpy call for all species.  It builds a state object
only for a record, records a ``diagnostics.record`` from that state's
single engine pass, and returns one ``Trajectory``.  The sort repair applies
to quantile states only.  One step is a run to ``t_end = dt``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import diagnostics
from .convexity import lambda0
from .errors import NumericsError
from .measures import QuantileState
from .engine import (_TILE, InteractionPlan, _grad_block, _tile_cols, _tile_rows,
                     _value_block)
from .potentials import PotentialMatrix, estimate_growth_bound

SCHEMES = ("euler", "rk4")
REPAIRS = ("none", "sort")
# Engine passes whose result is checked run quietly: a non-finite value there
# raises NumericsError with a witness, so numpy's warning would only repeat it.
_QUIET = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}
_DT_CAP = 1.0  # the derived step when nothing moves, and its upper bound otherwise


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
        for name in ("dt", "t_end", "cfl_safety"):
            value = getattr(self, name)
            if value is None and name == "dt":
                continue
            # A bool is an int to Python, but not a number to a config (see record_every).
            if isinstance(value, bool) or not isinstance(value, (int, float, np.integer,
                                                                 np.floating)):
                raise ValueError(f"{name} must be a number, got {value!r}")
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
class Trajectory:
    times: list
    states: list
    records: list
    dt: float
    monotonicity_violations: int = 0
    repair_events: int = 0

    @property
    def final_state(self):
        return self.states[-1]

    @property
    def energies(self) -> list:
        return [r.energy for r in self.records]

    def series(self, attr: str):
        """(times, values) arrays for a DiagnosticsRecord attribute (a 1-d E_invariant is a
        scalar, a d > 1 one a row per record)."""
        vals = [getattr(r, attr) for r in self.records]
        return np.array([r.t for r in self.records]), np.array(vals)


def _velocity(plan: InteractionPlan, X, F):
    """Velocities -m_i F_i of the stacked points X from their stacked field F.

    A non-finite velocity raises NumericsError with the witness of X.
    """
    V = F * plan.rate
    if not np.isfinite(V).all():
        raise NumericsError("non-finite velocity", witness=_nonfinite_witness(plan.split(X),
                                                                               plan.pm))
    return V


def _nonfinite_witness(xs, pm: PotentialMatrix, block=_grad_block) -> dict:
    """First (i, j, k, l) in row-major order with non-finite grad W_ij(xs[i][k] - xs[j][l]),
    or W_ij with ``block=_value_block``, scanned in row tiles; else the first
    non-finite point (i, k); else {}."""
    for i, j in np.ndindex(pm.n, pm.n):
        rows = max(1, _TILE // len(xs[j]))
        A, B = _tile_rows(xs[i]), _tile_cols(xs[j])
        for k0 in range(0, len(xs[i]), rows):
            with np.errstate(**_QUIET):
                g = block(pm.entries[i][j], A[:, k0:k0 + rows], B)
            bad = np.argwhere(~np.isfinite(g.reshape(len(g), -1, len(xs[j]))).all(axis=1))
            if bad.size:
                k, l = map(int, bad[0])
                return {"i": i, "j": j, "k": k0 + k, "l": l}
    for i, x in enumerate(xs):
        bad = np.argwhere(~np.isfinite(x).all(axis=1))
        if bad.size:
            return {"i": i, "k": int(bad[0][0])}
    return {}


def _check_records(traj, pm: PotentialMatrix, values: list):
    """Raise NumericsError at the first record of a finished run with a non-finite value.

    ``values[k]`` maps the names of record k's values to them.  The witness
    names t, the quantity and, for a per-species one, the species ``i``, for a
    d > 1 centre the ``axis``; for the energy it adds the first pair whose
    kernel value is not finite (see ``_nonfinite_witness``).  The partial
    trajectory ends before that record.
    """
    for k, (t, named) in enumerate(zip(traj.times, values)):
        for name, value in named.items():
            bad = np.flatnonzero(~np.isfinite(np.ravel(value)))
            if not bad.size:
                continue
            witness = {"t": t, "quantity": name}
            if np.ndim(value):
                witness["axis" if name == "E_invariant" else "i"] = int(bad[0])
            if name == "energy":
                witness.update(_nonfinite_witness(traj.states[k].clouds()[0], pm, _value_block))
            partial = replace(traj, **{f: v[:k] for f, v in vars(traj).items()
                                       if isinstance(v, list)})
            raise NumericsError(f"non-finite {name} recorded at t={t!r}", witness=witness,
                                partial=partial)


def velocity(state, pm: PotentialMatrix) -> list:
    """Velocities -m_i sum_j sum_l w_j^l grad W_ij(x_i^k - x_j^l) of a quantile or particle
    state, per species an (N_i, d) array: -m_i / w_i^k times the energy gradient at x_i^k.

    A non-finite velocity raises NumericsError with a witness.
    """
    xs, ws = state.clouds()
    plan = InteractionPlan(pm, ws, state.params.d, state.params.m)
    X = np.concatenate(xs)
    with np.errstate(**_QUIET):
        return plan.split(_velocity(plan, X, plan.fields(X)))


def stable_dt(state, pm: PotentialMatrix, cfl_safety: float = 0.2) -> float:
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
        return _DT_CAP
    return min(cfl_safety / rate, _DT_CAP)


def _step_schedule(cfg: SolverConfig, dt: float):
    """(t, snapshot due?, step to the next state or None) for each state of a run: steps
    of dt, then one onto t_end unless the remainder is roundoff."""
    n_full = int(np.floor(cfg.t_end / dt + 1e-9))
    remainder = cfg.t_end - n_full * dt
    if remainder < 1e-12 * max(dt, 1.0):
        remainder = 0.0
    total_steps = n_full + (1 if remainder else 0)
    for k in range(total_steps + 1):
        t = k * dt if k <= n_full else cfg.t_end
        h = dt if k < n_full else remainder if k < total_steps else None
        yield t, k % cfg.record_every == 0 or k == total_steps, h


def run(state0, pm: PotentialMatrix, cfg: SolverConfig) -> Trajectory:
    """Integrate a quantile or particle state to t_end, recording states and diagnostics.

    The loop steps the stacked points of the state's weighted clouds with one
    interaction plan, and builds a state object only for a record.  Each
    state's first stage is one engine pass, which for a
    recorded state also gives its energy and the field of its dissipation;
    that pass is checked like every RK stage.  After a step a crossing of a
    quantile state's cells is counted and, with repair="sort", sorted away.
    On a numeric failure the partial trajectory is attached to the raised
    NumericsError.  The recorded diagnostics include the compound distance to
    the concentrated state whenever the convexity modulus is positive.
    """
    dt = cfg.dt if cfg.dt is not None else stable_dt(state0, pm, cfg.cfl_safety)
    traj = Trajectory(times=[], states=[], records=[], dt=dt)
    positive = lambda0(pm.kappa, state0.params).lambda0 > 0.0
    ground = diagnostics.concentrated(state0) if positive else None
    xs, ws = state0.clouds()
    plan = InteractionPlan(pm, ws, state0.params.d, state0.params.m)
    X = np.concatenate(xs)
    quantile = isinstance(state0, QuantileState)

    def f(Y):
        return _velocity(plan, Y, plan.fields(Y))

    try:
        # The field is checked in _velocity; the other recorded values once the run ends.
        with np.errstate(**_QUIET):
            for t, due, h in _step_schedule(cfg, traj.dt):
                sums = plan.fields(X, due)
                if due:
                    state = state0.with_clouds(plan.split(X)) if traj.states else state0
                    traj.records.append(diagnostics.record(state, pm, t, ground,
                                                           (plan.split(sums[0]), sums[1])))
                    traj.times.append(t)
                    traj.states.append(state)
                k1 = _velocity(plan, X, sums[0] if due else sums)
                if h is None:
                    break
                if cfg.scheme == "euler":
                    X = X + h * k1
                else:
                    k2 = f(X + 0.5 * h * k1)
                    k3 = f(X + 0.5 * h * k2)
                    k4 = f(X + h * k3)
                    X = X + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                # Free this step's stages before the next engine pass allocates its tiles.
                sums = k1 = k2 = k3 = k4 = None
                if not np.isfinite(X).all():
                    raise NumericsError(f"non-finite state after step of dt={h}",
                                        witness=_nonfinite_witness(plan.split(X), pm))
                # A quantile state's cells cross in a row of its (n, M) grid.
                if quantile and (np.diff(X.reshape(state0.n, -1)) < 0.0).any():
                    traj.monotonicity_violations += 1
                    if cfg.repair == "sort":
                        X = np.sort(X.reshape(state0.n, -1)).reshape(X.shape)
                        traj.repair_events += 1
    except NumericsError as err:
        err.partial = traj
        raise
    _check_records(traj, pm, [{name: v for name, v in vars(r).items()
                               if name != "t" and v is not None} for r in traj.records])
    return traj
