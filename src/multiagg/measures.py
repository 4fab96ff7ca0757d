"""State representations, their distances and centre, CSV snapshots.

A species measure on the line is represented by its quantile (pseudo-inverse
distribution) function sampled at the midpoints z_k = (k + 1/2) / M of M
equal-mass cells.  Atomic (particle) states in arbitrary dimension carry
explicit positions and per-particle masses.  Both are weighted clouds
(``clouds()``), and the compound distance and the weighted centre are written
once over them; on quantile clouds the distance is the transport distance,
the monotone pairing being optimal in one dimension.  Conversions between
the two views are exact for atomic data up to cell resolution.

Trajectories are CSV snapshots, written one whole snapshot per join.  The
reader parses the body in chunks of _CHUNK rows and scatters each into
per-snapshot blocks as it is parsed, so it holds about 12 bytes per row at
its peak, the 8-byte result included, on rows grouped by snapshot as the
writer leaves them, and at most about 24 in any other order.
"""

from __future__ import annotations

import csv
import warnings
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
        if self.u.shape[1] < 1:
            raise ValueError("the quantile grid needs at least one cell per species (M >= 1)")
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

    def clouds(self):
        """The grid as clouds (n, M, 1) of M points of weight p_i / M each."""
        return self.u[:, :, None], np.repeat((self.params.p / self.M)[:, None], self.M, axis=1)

    def with_clouds(self, xs) -> "QuantileState":
        return QuantileState(np.stack(xs)[:, :, 0], self.params)


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


def _check_compatible(a, b):
    """The clouds of two states with the same layout, weights and mobilities: (xa, wa, xb)."""
    (xa, wa), (xb, wb) = a.clouds(), b.clouds()
    shapes = [[x.shape for x in xs] for xs in (xa, xb)]
    if shapes[0] != shapes[1]:
        raise ValueError(f"state layouts differ: {shapes[0]} vs {shapes[1]}")
    if not (np.array_equal(a.params.m, b.params.m)
            and all(np.array_equal(u, v) for u, v in zip(wa, wb))):
        raise ValueError("states carry different mobilities or weights")
    return xa, wa, xb


def compound_distance(a, b) -> float:
    """sqrt( sum_i (1/m_i) sum_k w_i^k |x_i^k - y_i^k|^2 ) over labelled clouds: the compound
    transport distance of quantile states (the monotone pairing is optimal), the labelled
    metric of particle states (swapping two identical particles counts)."""
    xa, wa, xb = _check_compatible(a, b)
    total = 0.0
    for x, w, y, m in zip(xa, wa, xb, a.params.m):
        total += float((w * ((x - y) ** 2).sum(axis=1)).sum()) / m
    return float(np.sqrt(total))


def winf_distance(a, b, i: int) -> float:
    """Infinity-order distance of species i under the labelled pairing: max_k |x^k - y^k|."""
    xa, _, xb = _check_compatible(a, b)
    return float(np.sqrt(((xa[i] - xb[i]) ** 2).sum(axis=1)).max())


def weighted_center_of_mass(state) -> np.ndarray:
    """The conserved invariant sum_i (1/m_i) sum_k w_i^k x_i^k as a length-d vector."""
    acc = np.zeros(state.params.d)
    for x, w, m in zip(*state.clouds(), state.params.m):
        acc += (w[:, None] * x).sum(axis=0) / m
    return acc


# --- CSV snapshot formats -------------------------------------------------
#
# Comma-separated with "\r\n" line ends, the csv module's default dialect.
# Floats are written as repr, the shortest text that reads back to the same
# float, integers in decimal; no such field ever needs quoting, so rows are
# formatted by joining text, one snapshot at a time.

_QUANTILE_COLUMNS = ("t", "species", "cell", "u")
_QUANTILE_ROW = np.dtype([("t", float), ("species", np.int64), ("cell", np.int64),
                          ("u", float)])
_CHUNK = 8192  # rows per numpy.loadtxt call of read_quantile_csv


def float_fields(values) -> list:
    """repr of each value as a Python float: the CSV text of a column of floats."""
    return list(map(repr, np.asarray(values, dtype=float).ravel().tolist()))


def write_csv(path, header: Sequence[str], blocks):
    """Write a header row, then per block one row per index of its columns.

    A block is a list of equal-length columns of field text; each block is
    written with one join.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for columns in blocks:
            fh.write("".join([",".join(row) + "\r\n" for row in zip(*columns)]))


def _snapshot_blocks(times, snapshots):
    """One block per snapshot: t, "species,index" keys, then the snapshot's columns.

    ``snapshots`` yields (points per species, value arrays); the keys of a
    species layout are made once and reused by every snapshot with it.
    """
    keys: dict = {}
    for t, (counts, values) in zip(times, snapshots):
        if counts not in keys:
            keys[counts] = [f"{i},{k}" for i, N in enumerate(counts) for k in range(N)]
        cells = keys[counts]
        yield [[repr(float(t))] * len(cells), cells] + [float_fields(v) for v in values]


def write_quantile_csv(path, times: Sequence[float], states: Sequence[QuantileState]):
    """Long-format trajectory snapshots: columns t, species, cell, u."""
    write_csv(path, _QUANTILE_COLUMNS,
              _snapshot_blocks(times, (((qs.M,) * qs.n, [qs.u]) for qs in states)))


def read_quantile_csv(path, params: SystemParams):
    """Inverse of write_quantile_csv; returns (times, states).

    Raises ValueError unless the header names the columns t, species, cell,
    u, every row fills them, times are finite, and every snapshot is a full
    (params.n, M) grid, M fixed, that gives no cell twice.  Snapshots are
    the distinct times in order of first appearance; rows may come in any
    order.  The body is parsed _CHUNK rows at a time and each chunk is
    scattered into its snapshots' blocks at once, so a valid trajectory
    peaks at about 12 bytes per row, the 8-byte result included, when its
    rows come grouped by snapshot as write_quantile_csv writes them, and at
    most about 24 in any other order; see _snapshots.
    """
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), [])
        missing = [c for c in _QUANTILE_COLUMNS if c not in header]
        if missing:
            raise ValueError(f"the header lacks column(s) {', '.join(missing)}")
        cols = tuple(header.index(c) for c in _QUANTILE_COLUMNS)
        return _snapshots(fh, cols, params)


def _load(fh, cols, max_rows=None):
    """Parse the rows that follow in ``fh``, at most ``max_rows`` of them."""
    with warnings.catch_warnings():
        # Older numpy reads "1.5" in an integer column as 1 and only warns.
        warnings.simplefilter("error")
        # numpy >= 1.23 warns that max_rows does not count a blank line, and that a
        # read found no row.
        warnings.filterwarnings("ignore", ".*contained no data", UserWarning)
        return np.loadtxt(fh, dtype=_QUANTILE_ROW, delimiter=",", comments=None,
                          quotechar='"', usecols=cols, ndmin=1, max_rows=max_rows)


def _rewind(fh):
    """Put ``fh`` back at the first row after the header."""
    fh.seek(0)
    next(csv.reader(fh))


def _chunks(fh, cols):
    """The body that follows the header in ``fh``, parsed _CHUNK rows at a time."""
    while True:
        try:
            rows = _load(fh, cols, _CHUNK)
        except (ValueError, Warning) as err:
            _raise_row_error(fh, cols, err)
        if rows.size:
            yield rows
        if rows.size < _CHUNK:
            return


def _raise_row_error(fh, cols, err):
    """Name the first row that fails the parse ``err`` reports, as a row-by-row parse would."""
    fh.seek(0)
    reader = csv.reader(fh)
    next(reader)
    it, ii, ik, iu = cols
    width = 1 + max(cols)
    for row in reader:
        if not row:
            continue
        if len(row) < width:
            raise ValueError(f"line {reader.line_num} has fewer fields than the header")
        # The array parse's conversions, in the order a row-by-row reader made them.
        float(row[it]), float(row[iu]), int(row[ii]), int(row[ik])
    # Only numpy refuses a row: take its reason from one pass over the whole body, so
    # that the row it names is counted from the first.
    _rewind(fh)
    try:
        _load(fh, cols)
    except (ValueError, Warning) as whole:
        err = whole
    raise ValueError(f"unreadable trajectory: {err}")


class _Blocks:
    """Per snapshot, its row count, least and greatest (species, cell), and its block: u
    and a mask of filled slots, flat (n, cap).

    A block that a chunk's cells overrun grows to twice its cells, or past
    the greatest cell if that is more, but its cells per species never
    exceed twice the rows its snapshot has had, so no index read from the
    file sizes an allocation.  A row that does not fit yet (a cell past the
    block, a species outside [0, n), a negative index) is kept in ``late``
    as compact columns: snapshot ids (int32), (species, cell) and u.
    """

    def __init__(self, n: int):
        self.n = n
        self.ids: dict = {}  # time -> snapshot id
        self.count = np.zeros(0, np.int64)
        self.cap = np.zeros(0, np.int64)
        self.lo = np.zeros((0, 2), np.int64)
        self.hi = np.zeros((0, 2), np.int64)
        self.u, self.filled, self.late = [], [], []

    def add(self, rows):
        """Number, count and scatter one parsed chunk, with Python-level work per distinct
        snapshot in it."""
        t = rows["t"]
        # The chunk's snapshots, numbered in order of first row: runs of one time, then
        # their distinct times.
        start = np.flatnonzero(np.concatenate(([True], t[1:] != t[:-1])))
        _, first, run = np.unique(t[start], return_index=True, return_inverse=True)
        order = np.argsort(first)
        ids = self.ids
        snap = np.array([ids.setdefault(x, len(ids)) for x in t[start[first[order]]].tolist()],
                        np.int64)
        local = np.empty_like(order)
        local[order] = np.arange(order.size)
        local = np.repeat(local[run], np.diff(np.append(start, t.size)))
        sp, cell, u = rows["species"], rows["cell"], rows["u"]
        if np.any(local[1:] < local[:-1]):
            by = np.argsort(local)
            local, sp, cell, u = local[by], sp[by], cell[by], u[by]

        new = len(ids) - self.count.size
        self.count = np.concatenate([self.count, np.zeros(new, np.int64)])
        self.cap = np.concatenate([self.cap, np.zeros(new, np.int64)])
        self.lo = np.concatenate([self.lo, np.full((new, 2), np.iinfo(np.int64).max, np.int64)])
        self.hi = np.concatenate([self.hi, np.full((new, 2), np.iinfo(np.int64).min, np.int64)])
        self.u += [np.zeros(0)] * new
        self.filled += [np.zeros(0, bool)] * new
        bounds = np.searchsorted(local, np.arange(snap.size + 1))
        self.count[snap] += np.diff(bounds)
        for j, column in enumerate((sp, cell)):
            self.lo[snap, j] = np.minimum(self.lo[snap, j],
                                          np.minimum.reduceat(column, bounds[:-1]))
            self.hi[snap, j] = np.maximum(self.hi[snap, j],
                                          np.maximum.reduceat(column, bounds[:-1]))

        old, most = self.cap[snap], self.hi[snap, 1]
        cap = np.where(most < old, old,
                       np.minimum(np.maximum(most, 2 * old - 1), 2 * self.count[snap] - 1) + 1)
        for s, a, z in zip(*(x[cap > old].tolist() for x in (snap, old, cap))):
            self.widen(s, a, z)
        width = cap[local]
        # Where every snapshot's extremes lie in its block, so does every row.
        if not np.all((self.lo[snap] >= 0).all(axis=1) & (self.hi[snap, 0] < self.n)
                      & (most < cap)):
            fit = (sp >= 0) & (sp < self.n) & (cell >= 0) & (cell < width)
            out = ~fit
            self.late.append((snap[local[out]].astype(np.int32),
                              np.stack([sp[out], cell[out]], axis=1), u[out]))
            local, sp, cell, u, width = local[fit], sp[fit], cell[fit], u[fit], width[fit]
            bounds = np.searchsorted(local, np.arange(snap.size + 1))
        self.fill(snap, bounds, sp * width + cell, u)

    def widen(self, s, old, new):
        """Give block ``s`` new >= old cells per species, the first old of them kept."""
        for arrays in (self.u, self.filled):
            wide = np.zeros(self.n * new, arrays[s].dtype)
            if old:
                wide.reshape(self.n, new)[:, :old] = arrays[s].reshape(self.n, old)
            arrays[s] = wide
        self.cap[s] = new

    def fill(self, snap, bounds, at, u):
        """Set the slots at[bounds[g]:bounds[g + 1]] of block snap[g] to the same rows of u."""
        for s, a, z in zip(snap.tolist(), bounds[:-1].tolist(), bounds[1:].tolist()):
            self.u[s][at[a:z]] = u[a:z]
            self.filled[s][at[a:z]] = True

    def place_late(self, good):
        """Every late row of the snapshots before ``good`` in its block.

        Each of them is a full (n, M) grid, and its last chunk took its count
        to n M >= M, so its block has at least the M cells its rows need.
        """
        while self.late:
            snap, ik, u = self.late.pop()
            keep = snap < good
            if keep.any():
                snap, ik, u = snap[keep], ik[keep], u[keep]
                start = np.flatnonzero(np.concatenate(([True], snap[1:] != snap[:-1])))
                self.fill(snap[start], np.append(start, snap.size),
                          ik[:, 0] * self.cap[snap] + ik[:, 1], u)


def _snapshots(fh, cols, params: SystemParams):
    """Read the body that follows in ``fh`` into snapshots and check each grid; see
    read_quantile_csv.

    Each parsed chunk is grouped by snapshot and scattered into its blocks at
    once (see _Blocks); the rows that did not fit are placed after the last.
    The shape checks run on the per-snapshot counts and extremes.  In the
    snapshots before the first that fails them, a slot left unfilled marks a
    repeat.  A block keeps one row per slot, so the body is parsed again for
    the first bad snapshot's rows alone, to name its fault.
    """
    n = params.n
    blocks = _Blocks(n)
    chunks = _chunks(fh, cols)
    for rows in chunks:
        t = rows["t"]
        if not np.all(np.isfinite(t)):
            for _ in chunks:  # a parse error further on comes first
                pass
            raise ValueError(f"snapshot t={float(t[~np.isfinite(t)][0])!r}: times must be finite")
        blocks.add(rows)
    if not blocks.ids:
        raise ValueError("the trajectory holds no snapshot")

    times, count = list(blocks.ids), blocks.count
    n_of, M = (blocks.hi + 1).T
    incomplete = (count != n_of * M) | np.any(blocks.lo < 0, axis=1)
    misshapen = (n_of != n) | (M != M[0])
    flawed = np.flatnonzero(incomplete | misshapen)
    good = int(flawed[0]) if flawed.size else len(times)  # snapshots before the first flaw
    M0 = int(M[0])
    blocks.place_late(good)

    states = []
    b = good  # the first bad snapshot
    for s in range(good):
        w = int(blocks.cap[s])
        if not blocks.filled[s].reshape(n, w)[:, :M0].all():
            b = s
            break
        u = blocks.u[s].reshape(n, w)[:, :M0]
        finite = np.isfinite(u)
        if not finite.all():
            # A non-finite u before the first bad snapshot is reported before its fault.
            i, k = np.unravel_index(np.argmin(finite), u.shape)
            raise ValueError(f"snapshot t={times[s]!r}: species {i} cell {k} is not finite")
        states.append(QuantileState(np.ascontiguousarray(u), params))
        blocks.u[s] = blocks.filled[s] = None
    if b < len(times):
        del blocks
        t_b, n_b, M_b = times[b], int(n_of[b]), int(M[b])
        _rewind(fh)
        pairs, repeats = np.unique(
            np.concatenate([np.stack([rows["species"], rows["cell"]], axis=1)[rows["t"] == t_b]
                            for rows in _chunks(fh, cols)]),
            axis=0, return_counts=True)
        if np.any(repeats > 1):
            i, k = pairs[np.argmax(repeats > 1)]
            raise ValueError(f"snapshot t={t_b!r} repeats species {int(i)} cell {int(k)}")
        if incomplete[b]:
            raise ValueError(
                f"snapshot t={t_b!r} is incomplete: {int(count[b])} of {n_b}x{M_b} values")
        raise ValueError(f"snapshot t={t_b!r} is a {n_b}x{M_b} grid, "
                         f"expected {n}x{M0}")
    return times, states


def write_particle_csv(path, times: Sequence[float], states: Sequence[ParticleState]):
    """Atomic snapshots: columns t, species, k, mass, x_1..x_d."""
    if not states:
        raise ValueError("an empty particle trajectory has no dimension for the header")
    d = states[0].params.d
    snapshots = ((tuple(ps.counts), [np.concatenate(ps.masses)]
                  + list(np.concatenate(ps.positions).T)) for ps in states)
    write_csv(path, ["t", "species", "k", "mass"] + [f"x_{a + 1}" for a in range(d)],
              _snapshot_blocks(times, snapshots))
