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
the gradient growth estimate keeps integration stable.  Monotonicity of the
quantile vectors is preserved by the continuous flow but can be crossed by a
discrete step; per-species sorting is the metric projection back onto the
monotone cone and is a no-op when nothing crossed.

Both solvers are one ``run``: one time loop steps a quantile or a particle
state's weighted clouds, builds a state object only for a record, records a
``diagnostics.record`` from that state's single engine pass, and returns one
``Trajectory``.  The sort repair applies to quantile states only, and
``particle_solver`` only names this code.  ``step`` is a run of one step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import diagnostics
from .convexity import modulus
from .errors import NumericsError
from .measures import QuantileState
from .potentials import (_TILE, PotentialMatrix, _grad_block, _tile_cols, _tile_rows,
                         _value_block, estimate_growth_bound, pair_fields)

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


def _velocity(xs, ws, pm: PotentialMatrix, m: np.ndarray, field=None) -> list:
    """Velocities -m_i F_i of weighted clouds, F from ``pair_fields`` unless given.

    A non-finite velocity raises NumericsError with the witness of ``xs``.
    """
    if pm.n != len(xs):
        raise ValueError(f"matrix is {pm.n}x{pm.n} but state has n={len(xs)} species")
    with np.errstate(**_QUIET):
        v = [-m[i] * f for i, f in enumerate(pair_fields(pm, xs, ws) if field is None else field)]
    if not all(np.all(np.isfinite(a)) for a in v):
        raise NumericsError("non-finite velocity", witness=_nonfinite_witness(xs, pm))
    return v


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
    names t, the quantity and, for a per-species one, the species; for the
    energy it adds the first pair whose kernel value is not finite (see
    ``_nonfinite_witness``).  The partial trajectory ends before that record.
    """
    for k, (t, named) in enumerate(zip(traj.times, values)):
        for name, value in named.items():
            bad = np.flatnonzero(~np.isfinite(np.ravel(value)))
            if not bad.size:
                continue
            witness = {"t": t, "quantity": name}
            if np.ndim(value):
                witness["i"] = int(bad[0])
            if name == "energy":
                witness.update(_nonfinite_witness(traj.states[k].clouds()[0], pm, _value_block))
            partial = replace(traj, **{f: v[:k] for f, v in vars(traj).items()
                                       if isinstance(v, list)})
            raise NumericsError(f"non-finite {name} recorded at t={t!r}", witness=witness,
                                partial=partial)


def rhs(qs: QuantileState, pm: PotentialMatrix) -> np.ndarray:
    """Velocity grid v_i[k] = m_i sum_j p_j (1/M) sum_l W'_ij(u_j[l] - u_i[k])."""
    return np.stack(_velocity(*qs.clouds(), pm, qs.params.m))[:, :, 0]


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


def _resolve_dt(state, pm: PotentialMatrix, cfg: SolverConfig) -> float:
    return cfg.dt if cfg.dt is not None else stable_dt(state, pm, cfg.cfl_safety)


def step(state, pm: PotentialMatrix, cfg: SolverConfig, dt: Optional[float] = None):
    """One explicit step of a quantile or particle state: a ``run`` of that one step.

    Returns the new state and a StepInfo: whether a quantile state's cells
    crossed and, with repair="sort", were sorted back.  A particle state has
    no cell order and never reports a crossing.  As in a run, both states'
    recorded values are checked and a NumericsError carries the partial
    trajectory.
    """
    if dt is None:
        dt = _resolve_dt(state, pm, cfg)
    traj = run(state, pm, replace(cfg, dt=dt, t_end=dt, record_every=1))
    return traj.final_state, StepInfo(traj.monotonicity_violations > 0,
                                      traj.repair_events > 0)


def run(state0, pm: PotentialMatrix, cfg: SolverConfig) -> Trajectory:
    """Integrate a quantile or particle state to t_end, recording states and diagnostics.

    Also named ``run_particles``.  The loop steps the state's weighted clouds
    and builds a state object only for a record.  Each state's first stage is
    one engine pass, which for a recorded state also gives its energy and the
    field of its dissipation; that pass is checked like every RK stage.  After
    a step a crossing of a quantile state's cells is counted and, with
    repair="sort", sorted away.  On a numeric failure the partial trajectory
    is attached to the raised NumericsError.  The recorded diagnostics include
    the compound distance to the concentrated state whenever the convexity
    modulus is positive.
    """
    traj = Trajectory(times=[], states=[], records=[], dt=_resolve_dt(state0, pm, cfg))
    positive = modulus(pm.kappa, state0.params) > 0.0
    ground = diagnostics.concentrated(state0) if positive else None
    xs, ws = state0.clouds()
    xs, m = list(xs), state0.params.m
    quantile = isinstance(state0, QuantileState)

    def f(ys):
        return _velocity(ys, ws, pm, m)

    try:
        for t, due, h in _step_schedule(cfg, traj.dt):
            # The field is checked below; the other recorded values once the run ends.
            with np.errstate(**_QUIET):
                sums = pair_fields(pm, xs, ws, due)
                if due:
                    state = state0.with_clouds(xs) if traj.states else state0
                    traj.records.append(diagnostics.record(state, pm, t, ground, sums))
                    traj.times.append(t)
                    traj.states.append(state)
            k1 = _velocity(xs, ws, pm, m, sums[0] if due else sums)
            if h is None:
                break
            with np.errstate(**_QUIET):
                if cfg.scheme == "euler":
                    xs = [x + h * a for x, a in zip(xs, k1)]
                else:
                    k2 = f([x + 0.5 * h * a for x, a in zip(xs, k1)])
                    k3 = f([x + 0.5 * h * a for x, a in zip(xs, k2)])
                    k4 = f([x + h * a for x, a in zip(xs, k3)])
                    xs = [x + h / 6.0 * (a + 2.0 * b + 2.0 * c + e)
                          for x, a, b, c, e in zip(xs, k1, k2, k3, k4)]
            # Free this step's stages before the next engine pass allocates its tiles.
            sums = k1 = k2 = k3 = k4 = None
            if not all(np.all(np.isfinite(x)) for x in xs):
                raise NumericsError(f"non-finite state after step of dt={h}",
                                    witness=_nonfinite_witness(xs, pm))
            if quantile and any(np.any(np.diff(x[:, 0]) < 0.0) for x in xs):
                traj.monotonicity_violations += 1
                if cfg.repair == "sort":
                    xs = [np.sort(x, axis=0) for x in xs]
                    traj.repair_events += 1
    except NumericsError as err:
        err.partial = traj
        raise
    _check_records(traj, pm, [{name: v for name, v in vars(r).items()
                               if name != "t" and v is not None} for r in traj.records])
    return traj
