"""State representations and transport distances in one dimension.

A species measure on the line is represented by its quantile (pseudo-inverse
distribution) function sampled at the midpoints z_k = (k + 1/2) / M of M
equal-mass cells.  Under this representation the per-species quadratic
transport cost is a plain weighted L2 difference of quantile vectors, the
monotone pairing being optimal in one dimension for all the costs used here.

Atomic (particle) states in arbitrary dimension carry explicit positions and
per-particle masses.  Conversions between the two views are exact for atomic
data up to cell resolution.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .convexity import SystemParams


@dataclass
class QuantileState:
    """Per-species monotone quantile vectors on a shared grid of [0, 1)."""

    u: np.ndarray
    params: SystemParams

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        if self.u.ndim != 2 or self.u.shape[0] != self.params.n:
            raise ValueError(
                f"u must have shape (n, M) with n={self.params.n}, got {self.u.shape}")
        if not np.all(np.isfinite(self.u)):
            raise ValueError("quantile values must be finite")
        if self.params.d != 1:
            raise ValueError("quantile states represent one-dimensional measures only")

    @property
    def n(self) -> int:
        return self.u.shape[0]

    @property
    def M(self) -> int:
        return self.u.shape[1]

    def is_monotone(self) -> bool:
        return bool(np.all(np.diff(self.u, axis=1) >= 0.0))

    def clouds(self):
        """The grid as clouds (n, M, 1) of M points of weight p_i / M each."""
        return self.u[:, :, None], np.repeat((self.params.p / self.M)[:, None], self.M, axis=1)

    def with_clouds(self, xs) -> "QuantileState":
        return self.with_u(np.stack(xs)[:, :, 0])

    def with_u(self, u: np.ndarray) -> "QuantileState":
        return QuantileState(u, self.params)

    def copy(self) -> "QuantileState":
        return QuantileState(self.u.copy(), self.params)


@dataclass
class ParticleState:
    """Atomic state: per species, particle positions in R^d and masses > 0."""

    positions: list
    masses: list
    params: SystemParams

    def __post_init__(self):
        if len(self.positions) != self.params.n or len(self.masses) != self.params.n:
            raise ValueError(f"need positions and masses for each of n={self.params.n} species")
        positions, masses = [], []
        for i, (x, w) in enumerate(zip(self.positions, self.masses)):
            x = np.asarray(x, dtype=float)
            if x.ndim == 1:
                x = x[:, None]
            w = np.asarray(w, dtype=float)
            if x.ndim != 2 or x.shape[1] != self.params.d:
                raise ValueError(
                    f"species {i}: positions must have shape (N, d={self.params.d}), got {x.shape}")
            if w.shape != (x.shape[0],):
                raise ValueError(f"species {i}: need one mass per particle")
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(w))):
                raise ValueError(f"species {i}: positions and masses must be finite")
            if np.any(w <= 0.0):
                raise ValueError(f"species {i}: particle masses must be positive")
            total = float(w.sum())
            target = float(self.params.p[i])
            if abs(total - target) > 1e-12 * target:
                raise ValueError(
                    f"species {i}: particle masses sum to {total!r}, expected p={target!r}")
            positions.append(x)
            masses.append(w)
        self.positions = positions
        self.masses = masses

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def counts(self) -> list:
        return [x.shape[0] for x in self.positions]

    def clouds(self):
        """Per-species (positions, masses) as weighted point clouds."""
        return self.positions, self.masses

    def with_clouds(self, positions) -> "ParticleState":
        return ParticleState(positions, self.masses, self.params)

    def copy(self) -> "ParticleState":
        return ParticleState([x.copy() for x in self.positions],
                             [w.copy() for w in self.masses], self.params)


def equal_mass_particles(positions: Sequence, params: SystemParams) -> ParticleState:
    """Atomic state with N_i equal masses p_i / N_i per species."""
    masses = []
    for i, x in enumerate(positions):
        count = np.asarray(x, dtype=float).shape[0] if np.ndim(x) > 0 else 1
        masses.append(np.full(count, params.p[i] / count))
    return ParticleState(list(positions), masses, params)


def cell_midpoints(M: int) -> np.ndarray:
    """Mass coordinates of the M cell midpoints, (k + 1/2) / M."""
    return (np.arange(M) + 0.5) / M


def quantile_from_particles(ps: ParticleState, M: int) -> QuantileState:
    """Sample the pseudo-inverse distribution of an atomic 1-d state.

    u_i[k] is the position of the particle whose cumulative (normalized) mass
    interval contains the midpoint z_k; jumps take the right-continuous value
    inf{x : F(x) > z}.  Ties in positions are kept in stable order.
    """
    if ps.params.d != 1:
        raise ValueError("quantile sampling requires spatial dimension d=1")
    z = cell_midpoints(M)
    rows = []
    for i in range(ps.n):
        x = ps.positions[i][:, 0]
        order = np.argsort(x, kind="stable")
        x_sorted = x[order]
        cum = np.cumsum(ps.masses[i][order]) / ps.params.p[i]
        idx = np.searchsorted(cum, z, side="right")
        rows.append(x_sorted[np.minimum(idx, len(x_sorted) - 1)])
    return QuantileState(np.vstack(rows), ps.params)


def particles_from_quantile(qs: QuantileState) -> ParticleState:
    """One particle of mass p_i / M per cell, at the cell's quantile value."""
    positions = [qs.u[i][:, None].copy() for i in range(qs.n)]
    masses = [np.full(qs.M, qs.params.p[i] / qs.M) for i in range(qs.n)]
    return ParticleState(positions, masses, qs.params)


def _check_compatible(a: QuantileState, b: QuantileState):
    if a.u.shape != b.u.shape:
        raise ValueError(f"state shapes differ: {a.u.shape} vs {b.u.shape}")
    if not (np.array_equal(a.params.m, b.params.m) and np.array_equal(a.params.p, b.params.p)):
        raise ValueError("states carry different mobilities or masses")


def compound_distance(a: QuantileState, b: QuantileState) -> float:
    """Mobility-weighted compound quadratic transport distance.

    sqrt( sum_j (1/m_j) p_j/M sum_k (u_j^a[k] - u_j^b[k])^2 ); the monotone
    quantile pairing realizes the optimal plan per species.
    """
    _check_compatible(a, b)
    diff = a.u - b.u
    per_species = (a.params.p / a.params.m) * (diff * diff).sum(axis=1) / a.M
    return float(np.sqrt(per_species.sum()))


def w1_distance(a: QuantileState, b: QuantileState, i: int) -> float:
    """First-order transport distance of species i: (p_i/M) sum_k |du[k]|."""
    _check_compatible(a, b)
    return float(a.params.p[i] / a.M * np.abs(a.u[i] - b.u[i]).sum())


def winf_distance(a: QuantileState, b: QuantileState, i: int) -> float:
    """Infinity-order transport distance of species i: max_k |du[k]|."""
    _check_compatible(a, b)
    return float(np.abs(a.u[i] - b.u[i]).max())


def weighted_center_of_mass(qs: QuantileState) -> float:
    """The conserved invariant sum_j (p_j / m_j) * mean(u_j)."""
    means = qs.u.mean(axis=1)
    return float(np.sum(qs.params.p / qs.params.m * means))


def particle_center_of_mass(ps: ParticleState) -> np.ndarray:
    """sum_i (1/m_i) sum_k p_i^k x_i^k as a length-d vector."""
    acc = np.zeros(ps.params.d)
    for i in range(ps.n):
        acc += (ps.masses[i][:, None] * ps.positions[i]).sum(axis=0) / ps.params.m[i]
    return acc


def second_moments(qs: QuantileState) -> np.ndarray:
    """Per-species second moments (p_i/M) sum_k u_i[k]^2."""
    return qs.params.p / qs.M * (qs.u * qs.u).sum(axis=1)


# --- CSV snapshot formats -------------------------------------------------

_QUANTILE_COLUMNS = ("t", "species", "cell", "u")


def write_quantile_csv(path, times: Sequence[float], states: Sequence[QuantileState]):
    """Long-format trajectory snapshots: columns t, species, cell, u."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_QUANTILE_COLUMNS)
        for t, qs in zip(times, states):
            for i in range(qs.n):
                for k in range(qs.M):
                    writer.writerow([repr(float(t)), i, k, repr(float(qs.u[i, k]))])


def read_quantile_csv(path, params: SystemParams):
    """Inverse of write_quantile_csv; returns (times, states).

    Raises ValueError unless the header names the columns t, species, cell,
    u, every row fills them, and every snapshot is a full (params.n, M) grid,
    M fixed.
    """
    by_time: dict = {}
    order: list = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in _QUANTILE_COLUMNS if c not in header]
        if missing:
            raise ValueError(f"the header lacks column(s) {', '.join(missing)}")
        it, ii, ik, iu = (header.index(c) for c in _QUANTILE_COLUMNS)
        width = 1 + max(it, ii, ik, iu)
        for row in reader:
            if not row:
                continue
            if len(row) < width:
                raise ValueError(f"line {reader.line_num} has fewer fields than the header")
            t = float(row[it])
            if t not in by_time:
                by_time[t] = {}
                order.append(t)
            by_time[t][(int(row[ii]), int(row[ik]))] = float(row[iu])
    if not order:
        raise ValueError("the trajectory holds no snapshot")
    times, states = [], []
    for t in order:
        cells = by_time[t]
        n = 1 + max(i for i, _ in cells)
        M = 1 + max(k for _, k in cells)
        if len(cells) != n * M or min(min(key) for key in cells) < 0:
            raise ValueError(f"snapshot t={t!r} is incomplete: {len(cells)} of {n}x{M} values")
        M0 = states[0].M if states else M
        if (n, M) != (params.n, M0):
            raise ValueError(f"snapshot t={t!r} is a {n}x{M} grid, expected {params.n}x{M0}")
        u = np.empty((n, M))
        for (i, k), val in cells.items():
            u[i, k] = val
        times.append(t)
        states.append(QuantileState(u, params))
    return times, states


def write_particle_csv(path, times: Sequence[float], states: Sequence[ParticleState]):
    """Atomic snapshots: columns t, species, k, mass, x_1..x_d."""
    d = states[0].params.d
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "species", "k", "mass"] + [f"x_{a + 1}" for a in range(d)])
        for t, ps in zip(times, states):
            for i in range(ps.n):
                for k in range(ps.positions[i].shape[0]):
                    writer.writerow([repr(float(t)), i, k, repr(float(ps.masses[i][k]))]
                                    + [repr(float(v)) for v in ps.positions[i][k]])
