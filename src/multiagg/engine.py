"""The pairwise-interaction engine of both solvers and the diagnostics.

An ``InteractionPlan`` binds each live species pair of a ``PotentialMatrix``
(i <= j, zero kernels dropped) to its sum method once per state layout:
species sizes, weights and d.  A pass (``fields``) sums every pair over one
stacked array of all species' points.  A pair i < j is evaluated once and
feeds both species; a pair (i, i) takes the self path; with ``energy`` the
pass also returns E from the same kernel evaluations.  ``run`` builds one
plan per call, and ``pair_fields`` is the one-off pass of a throwaway plan;
a plan is the only way into the kernels' sums.  The sum methods (each
kernel's ``_bind``):

* ``Quadratic``, in any d: closed form from each cloud's mass, mean and
  variance; the masses are taken at bind.
* In d = 1, ``Tabulated``, ``DoubleWell`` and ``Power`` with integer q <= 4,
  whose profiles are polynomial pieces in |z| (``_Profile``, the one table
  that also gives ``Tabulated``'s pointwise values and its zero and tail
  verdicts): exactly, from moments of the source cloud about one of its
  points.  Even polynomials in z (``DoubleWell``, q = 2 and 4) take
  whole-cloud moments; the others sort the source once and take prefix
  moments over the windows that each target's knots cut out, found by
  ``searchsorted``.  W' and W are read off one moment table.  A pass builds
  the prefix sums of all its sources of one size in one ``_prefix_sums``
  call; the sums run along each source, so that changes no value.
* Every other kind or d: directly in bounded row tiles, each one matrix of
  W'(x - y) in d = 1 or of W'(r)/r in d > 1 (``_tile``) times the sources
  of both fields.  The self path sweeps the upper triangle: row tile
  [k0, k1) is evaluated against the points k0: only, so the pairs within
  its own rows are evaluated in both orders and every other pair once, and
  its columns past its rows feed the later points.  That is
  sum (k1 - k0)(N - k0) evaluations: 44,153 for the 32,896 pairs of
  N = 256, diagonal included.  The tile bounds are taken at bind.

A tile takes each coordinate difference x_a - y_a as a row [x_a, 1] times a
column [1; -y_a], one BLAS product per axis from factors built once per call
(``_tile_rows``, ``_tile_cols``).  Both products are exact and their sum is
rounded once, so the differences equal numpy's broadcast bit for bit, but
for the sign of a zero or a nan difference.  A direct tile with ``energy`` is
one kernel evaluation of W' and W (``_line`` from z in d = 1, ``_radial`` from
r^2 in d > 1).  The energy alone is the same pass, so a recorded energy and
``diagnostics.energy`` agree bit for bit.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .potentials import PotentialMatrix, ScalarPotential

_TILE = 16384  # kernel evaluations per row tile of a directly summed block

# A (T, L) tile temporary is 128 KiB, glibc's default mmap threshold, and a
# tile's kernel evaluation holds several at once, so glibc would map and unmap
# them (and the OS refault every page) on each tile.  Freeing one 4 MiB block
# raises glibc's dynamic mmap and trim thresholds above that, and they never
# fall again in this process.  Other allocators ignore it.
np.empty(32 * _TILE)


def _triangle_tiles(N: int):
    """Row tiles [k0, k1) of an N-point self block, each about _TILE evaluations against x[k0:]."""
    k0 = 0
    while k0 < N:
        k1 = min(N, k0 + max(1, _TILE // (N - k0)))
        yield k0, k1
        k0 = k1


def _sources(x: np.ndarray, w: np.ndarray, c: np.ndarray):
    """Coordinates X of a cloud and the (forward, reverse) columns that a tile K multiplies.

    In d = 1, K holds W'(x_k - y_l), X = x and the fields are K w and, as W'
    is odd, -w K.  In d > 1, K holds C = W'(r)/r, X = x - c and
    sum_l w_l grad W(x_k - y_l) = X_k (C w)_k - (C (w Y))_k: one product with
    [w, w X] both ways, as C is even (see _field).  Taking c, a point of the
    source cloud, keeps X_k - Y_l as accurate as x_k - y_l.  Energies are
    summed over the same coordinates.
    """
    if x.shape[1] == 1:
        return x, w[:, None], -w[:, None]
    X = x - c
    b = np.column_stack([w, w[:, None] * X])
    return X, b, b


def _field(X: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The field at X from its summed tile products s (see _sources)."""
    return s if X.shape[1] == 1 else X * s[:, :1] - s[:, 1:]


def _tile_rows(X: np.ndarray) -> np.ndarray:
    """The rows [X_a, 1] (d, N, 2) of the tiles of targets X (N, d), one matrix per axis a."""
    A = np.ones((X.shape[1], len(X), 2))
    A[:, :, 0] = X.T
    return A


def _tile_cols(Y: np.ndarray) -> np.ndarray:
    """The columns [1; -Y_a] (d, 2, L) of the tiles of sources Y (L, d), one matrix per axis a.

    A row of ``_tile_rows`` times a column is x_a - y_a (see the module
    docstring).  Neither factor holds a zero, which would turn an infinite
    coordinate into nan.
    """
    B = np.ones((Y.shape[1], 2, len(Y)))
    np.negative(Y.T, out=B[:, 1])
    return B


def _sq_dist(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """|x_k - y_l|^2 (T, L) from tile rows A (d, T, 2) and columns B (d, 2, L), accumulated
    axis by axis."""
    r2 = A[0] @ B[0]
    r2 *= r2
    for a, b in zip(A[1:], B[1:]):
        diff = a @ b
        diff *= diff
        r2 += diff
    return r2


def _tile(pot: ScalarPotential, A: np.ndarray, B: np.ndarray, value=False):
    """(K, V) of tile rows A (d, T, 2) against columns B (d, 2, L) from one kernel
    evaluation, both (T, L): the tile K (see _sources) and, if ``value``,
    V = W(x_k - y_l), else None."""
    if len(B) == 1:
        return pot._line(A[0] @ B[0], value)
    return pot._radial(_sq_dist(A, B), value)


def _direct_self(pot: ScalarPotential, w, d: int):
    """The direct self triangle of ``pot`` over a cloud of weights w in d, its row tiles
    taken once: fn(x, x, energy, tables) -> (f, None, E or None).

    Row tile [k0, k1) is evaluated against x[k0:] only: the whole block feeds
    rows k0:k1, whose own pairs it holds in both orders, and its columns past
    k1 feed points k1:.  E sums the diagonal tiles plus twice the rest.  In
    d > 1 each point's pair with itself is zeroed in the tile: its term
    C_kk w_k (X_k - X_k) is 0, but in the product form it is two terms of size
    |C_kk w_k X_k| that cancel in floating point.
    """
    tiles = list(_triangle_tiles(len(w)))

    def triangle(x, y, energy, tables):
        X, fwd, rev = _sources(x, w, x[0])
        A, B = _tile_rows(X), _tile_cols(X)
        s = np.zeros_like(fwd)
        total = 0.0
        for k0, k1 in tiles:
            K, V = _tile(pot, A[:, k0:k1], B[:, :, k0:], value=energy)
            if d > 1:
                np.fill_diagonal(K, 0.0)
            s[k0:k1] += K @ fwd[k0:]
            if k1 < len(w):  # the last tile has no columns past its rows
                s[k1:] += (rev[k0:k1].T @ K)[:, k1 - k0:].T
            if energy:
                row = w[k0:k1] @ V
                total += row[:k1 - k0] @ w[k0:k1] + 2.0 * (row[k1 - k0:] @ w[k1:])
        return _field(X, s), None, (float(total) if energy else None)
    return triangle


def _direct_cross(pot: ScalarPotential, wx, wy):
    """The direct cross tiles of ``pot`` between clouds of weights wx and wy, in row tiles
    of x: fn(x, y, energy, tables) -> (fx, fy, E or None).  In d = 1 the field on y
    negates the same blocks, bit-exactly as W' is odd."""
    rows = max(1, _TILE // len(wy))

    def tiles(x, y, energy, tables):
        X, _, rev = _sources(x, wx, y[0])
        Y, fwd, _ = _sources(y, wy, y[0])
        A, B = _tile_rows(X), _tile_cols(Y)
        sx, sy = np.empty((len(x), fwd.shape[1])), np.zeros((rev.shape[1], len(y)))
        total = 0.0
        for k0 in range(0, len(x), rows):
            K, V = _tile(pot, A[:, k0:k0 + rows], B, value=energy)
            sx[k0:k0 + rows] = K @ fwd
            sy += rev[k0:k0 + rows].T @ K
            if energy:
                total += wx[k0:k0 + rows] @ V @ wy
        return _field(X, sx), _field(Y, sy.T), (float(total) if energy else None)
    return tiles


def _grad_block(pot: ScalarPotential, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """grad W(x_k - y_l) for tile rows A (d, T, 2) against columns B (d, 2, L), laid out
    (T, d, L): the pointwise test of a non-finite field."""
    K = _tile(pot, A, B)[0][:, None, :]
    return K if len(B) == 1 else K * (A @ B).transpose(1, 0, 2)


def _value_block(pot: ScalarPotential, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """W(x_k - y_l) for tile rows A (d, T, 2) against columns B (d, 2, L), as (T, L)."""
    return _tile(pot, A, B, True)[1]


def _powers(Y, w, out):
    """The moment rows w Y^r of sources Y with weights w, written into ``out`` (D, L)."""
    out[0] = w
    for r in range(1, len(out)):
        np.multiply(out[r - 1], Y, out=out[r])
    return out


def _horner_rows(E, X):
    """sum_k E[k] X^k for E (D,) or (D, N), D >= 2, against X (N,)."""
    out = E[-1] * X
    for e in E[-2:0:-1]:
        out += e
        out *= X
    out += E[0]
    return out


def _prefix_sums(v: np.ndarray) -> np.ndarray:
    """Prefix sums (D, L + 1) of the rows of v (D, L), from 0, in blocks of about sqrt(L).

    A running sum's rounding error grows like L eps; summing within blocks and
    then across block totals keeps it near 2 sqrt(L) eps.
    """
    D, L = v.shape
    B = max(1, math.isqrt(L))
    nb = -(-L // B)
    S = np.zeros((D, nb * B + 1))
    S[:, 1:L + 1] = v
    blocks = S[:, 1:].reshape(D, nb, B)  # a view: only the unit-stride axis is split
    np.cumsum(blocks, axis=2, out=blocks)
    blocks[:, 1:] += blocks[:, :-1, -1:].cumsum(axis=1)
    return S[:, :L + 1]


class InteractionPlan:
    """The engine bound to one state layout: each live pair of ``pm`` with its sum method,
    for clouds of weights ``ws`` in d (see the module docstring).

    A pass takes the points of all species stacked in one (sum N_i, d) array
    and returns their fields stacked the same way.  Given the mobilities
    ``m``, ``rate`` holds each point's velocity factor -m_i.
    """

    def __init__(self, pm: PotentialMatrix, ws, d: int, m=None):
        if pm.n != len(ws):
            raise ValueError(f"matrix is {pm.n}x{pm.n} but state has n={len(ws)} species")
        self.pm, self.ws = pm, ws
        ends = np.cumsum([len(w) for w in ws]).tolist()
        self.bounds = list(zip([0] + ends[:-1], ends))
        self.rate = (None if m is None else
                     np.repeat(-np.asarray(m, dtype=float), np.diff([0] + ends))[:, None])
        self.pairs = []  # (i, j, sum method, slots of its prefix tables), in row-major order
        groups = {}  # source size -> [(slot, profile, species, W's rows with energy?)]
        self._slots = 0
        for i in range(pm.n):
            for j in range(i, pm.n):
                pot = pm.entries[i][j]
                if pot.is_identically_zero():
                    continue
                fn, sources = pot._bind(ws[i], None if i == j else ws[j], d)
                slots = list(range(self._slots, self._slots + len(sources)))
                self._slots += len(sources)
                for slot, (k, value) in zip(slots, sources):
                    src = (i, j)[k]
                    groups.setdefault(len(ws[src]), []).append((slot, pot._profile, src, value))
                self.pairs.append((i, j, fn, slots))
        # Without and with the energy: per source size, each table's rows [a, b) in one stack.
        self._stacks = {}
        for energy in (False, True):
            self._stacks[energy] = stacks = []
            for L, group in groups.items():
                rows, members = 0, []
                for slot, profile, src, value in group:
                    a, rows = rows, rows + profile._rows(value and energy)
                    members.append((slot, profile, src, a, rows))
                stacks.append((L, rows, members))

    def split(self, X) -> list:
        """The per-species views of a stacked array."""
        return [X[a:b] for a, b in self.bounds]

    def fields(self, X, energy=False):
        """The stacked fields F_i[k] = sum_j sum_l ws[j][l] grad W_ij(x_i[k] - x_j[l]) of the
        stacked points X; with ``energy``, (F, E) as ``pair_fields`` gives them."""
        xs = self.split(X)
        tables = self._tables(xs, energy)
        F = np.zeros_like(X)
        fs = self.split(F)
        total = 0.0
        for i, j, fn, slots in self.pairs:
            fi, fj, e = fn(xs[i], xs[j], energy, [tables[s] for s in slots])
            fs[i] += fi
            if fj is not None:
                fs[j] += fj
            if energy:
                total += e if fj is None else 2.0 * e
        return (F, float(0.5 * total)) if energy else F

    def _tables(self, xs, energy) -> list:
        """Each slot's prefix table (Y, c, S), what ``_Profile._read`` takes: its sources Y
        about c (``_Profile._source``) and S (D, L + 1) the prefix sums of their moment
        rows, W's rows too with the energy; one ``_prefix_sums`` call per source size."""
        tables = [None] * self._slots
        for L, rows, members in self._stacks[energy]:
            powers = np.empty((rows, L))
            heads = []
            for slot, profile, src, a, b in members:
                Y, c, w = profile._source(xs[src], self.ws[src])
                _powers(Y, w, powers[a:b])
                heads.append((slot, Y, c, a, b))
            S = _prefix_sums(powers)
            for slot, Y, c, a, b in heads:
                tables[slot] = Y, c, S[a:b]
        return tables


def pair_fields(pm: PotentialMatrix, xs, ws, energy=False):
    """Interaction fields F_i[k] = sum_j sum_l ws[j][l] grad W_ij(xs[i][k] - xs[j][l]).

    ``xs[i]`` (N_i, d) holds the points of species i and ``ws[i]`` (N_i,)
    their weights; returns one (N_i, d) array per species.  Each pair i < j
    is evaluated once and feeds both species; each pair i == j takes the
    kernel's self path; zero kernels are skipped.  With ``energy``, returns
    (fields, E), E = (1/2) sum_ij sum_kl ws[i][k] ws[j][l] W_ij(xs[i][k] - xs[j][l])
    from the same kernel evaluations.  A one-off pass of a throwaway
    ``InteractionPlan``.
    """
    plan = InteractionPlan(pm, ws, xs[0].shape[1])
    out = plan.fields(np.concatenate(xs), energy)
    return (plan.split(out[0]), out[1]) if energy else plan.split(out)
