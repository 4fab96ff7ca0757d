"""Scalar interaction potentials and the matrix of pairwise kernels.

Every potential is an even, continuously differentiable function of a scalar
displacement ``z`` with derivative vanishing at the origin.  Evenness is
bit-exact because all evaluations go through ``z*z`` or ``abs(z)``, so
``value(z) == value(-z)`` holds for every float ``z``.  The derivative is
consequently bit-exact odd.

A :class:`PotentialMatrix` collects the n-by-n grid of kernels together with
declared semiconvexity moduli (``kappa``), optional quadratic-growth
constants, and an optional tail-convexity declaration used by the confinement
analysis.

``pair_fields`` is the one pairwise-interaction engine of both solvers and
the diagnostics: each species pair once, zero entries skipped.  A diagonal
pair (i, i) takes the kernel's ``self_fields``, an off-diagonal pair
``cloud_fields``; with ``energy=True`` each also returns its share of E from
the same pass.  Three ways to sum a pair:

* ``Quadratic``, in any d: closed form from each cloud's mass, mean and
  variance.
* In d = 1, ``Tabulated``, ``DoubleWell`` and ``Power`` with integer q <= 4,
  whose profiles are polynomial pieces in |z| (``_Profile``, the one table
  that also gives ``Tabulated``'s pointwise values and its zero and tail
  verdicts): exactly, from moments of the source cloud about one of its
  points.  Even polynomials in z (``DoubleWell``, q = 2 and 4) take
  whole-cloud moments; the others sort the source once and take prefix
  moments over the windows that each target's knots cut out, found by
  ``searchsorted``.  W' and W are read off one moment table.
* Every other kind or d: directly in bounded row tiles, each one matrix of
  W'(x - y) in d = 1 or of W'(r)/r in d > 1 (``_tile``) times the sources
  of both fields.  The self path sweeps the upper triangle: row tile
  [k0, k1) is evaluated against the points k0: only, so the pairs within
  its own rows are evaluated in both orders and every other pair once, and
  its columns past its rows feed the later points.  That is
  sum (k1 - k0)(N - k0) evaluations: 44,153 for the 32,896 pairs of
  N = 256, diagonal included.

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
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

_TILE = 16384  # kernel evaluations per row tile of a directly summed block

# A (T, L) tile temporary is 128 KiB, glibc's default mmap threshold, and a
# tile's kernel evaluation holds several at once, so glibc would map and unmap
# them (and the OS refault every page) on each tile.  Freeing one 4 MiB block
# raises glibc's dynamic mmap and trim thresholds above that, and they never
# fall again in this process.  Other allocators ignore it.
np.empty(32 * _TILE)


def _pointwise(f, z):
    """f on z as a float array; a 0-d z goes in as one element (kernels write in place
    to arrays they make) and comes out a float."""
    za = np.asarray(z, dtype=float)
    return float(f(za.reshape(1))[0]) if za.ndim == 0 else f(za)


class ScalarPotential:
    """Base class: an even C1 kernel of a scalar displacement.

    Subclasses implement ``_value`` and ``_deriv`` on float arrays; both are
    vectorized.  ``deriv`` must be odd with ``deriv(0) == 0``.  A kind may
    override the tile evaluations ``_line`` / ``_radial`` to share work.
    """

    def value(self, z):
        """Evaluate the potential at displacement(s) z."""
        return _pointwise(self._value, z)

    def deriv(self, z):
        """Evaluate the derivative at displacement(s) z (odd function)."""
        return _pointwise(self._deriv, z)

    def _value(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _deriv(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _line(self, z, value: bool):
        """(W'(z), W(z) if ``value`` else None) on a d = 1 tile of displacements z."""
        return self._deriv(z), (self._value(z) if value else None)

    def _radial(self, r2, value: bool):
        """(W'(r)/r, 0 at r = 0, the radial field coefficient; W(r) if ``value`` else None)
        on a d > 1 tile of r2 = r^2, which is overwritten."""
        r = np.sqrt(r2, out=r2)
        v = self._value(r) if value else None
        return np.divide(self._deriv(r), r, out=r, where=r > 0.0), v

    def is_identically_zero(self) -> bool:
        """Structural test: does the kernel vanish everywhere?"""
        return False

    def nonzero_on_tail(self, radius: float) -> bool:
        """Does the derivative take nonzero values somewhere on (radius, inf)?

        Decided structurally: from the parameters of analytic kinds, from
        the polynomial pieces of tabulated ones.
        """
        return not self.is_identically_zero()

    def cloud_fields(self, x, wx, y, wy, energy=False):
        """Pair fields between weighted point clouds, summed directly.

        ``x`` (N, d) with weights ``wx`` (N,), ``y`` (L, d) with ``wy`` (L,).
        Returns (sum_l wy_l grad W(x_k - y_l), sum_k wx_k grad W(y_l - x_k));
        in d = 1 the second negates the same blocks, bit-exactly as W' is odd.
        With ``energy``, E = sum_kl wx_k wy_l W(x_k - y_l) from the same tiles
        follows: (fx, fy, E).
        """
        X, _, rev = _sources(x, wx, y[0])
        Y, fwd, _ = _sources(y, wy, y[0])
        A, B = _tile_rows(X), _tile_cols(Y)
        sx, sy = np.empty((len(x), fwd.shape[1])), np.zeros((rev.shape[1], len(y)))
        total = 0.0
        rows = max(1, _TILE // len(y))
        for k0 in range(0, len(x), rows):
            K, V = _tile(self, A[:, k0:k0 + rows], B, value=energy)
            sx[k0:k0 + rows] = K @ fwd
            sy += rev[k0:k0 + rows].T @ K
            if energy:
                total += wx[k0:k0 + rows] @ V @ wy
        f = _field(X, sx), _field(Y, sy.T)
        return f + (float(total),) if energy else f

    def self_fields(self, x, w, energy=False):
        """Field of a cloud on itself, sum_l w_l grad W(x_k - x_l), over the upper triangle;
        with ``energy``, E = sum_kl w_k w_l W(x_k - x_l) from the same tiles follows: (f, E).

        Row tile [k0, k1) is evaluated against x[k0:] only: the whole block
        feeds rows k0:k1, whose own pairs it holds in both orders, and its
        columns past k1 feed points k1:.  E sums the diagonal tiles plus twice
        the rest.  In d > 1 each point's pair with itself is zeroed in the
        tile: its term C_kk w_k (X_k - X_k) is 0, but in the product form it
        is two terms of size |C_kk w_k X_k| that cancel in floating point.
        """
        X, fwd, rev = _sources(x, w, x[0])
        A, B = _tile_rows(X), _tile_cols(X)
        s = np.zeros_like(fwd)
        total = 0.0
        for k0, k1 in _triangle_tiles(len(x)):
            K, V = _tile(self, A[:, k0:k1], B[:, :, k0:], value=energy)
            if len(A) > 1:
                np.fill_diagonal(K, 0.0)
            s[k0:k1] += K @ fwd[k0:]
            s[k1:] += (rev[k0:k1].T @ K)[:, k1 - k0:].T
            if energy:
                row = w[k0:k1] @ V
                total += row[:k1 - k0] @ w[k0:k1] + 2.0 * (row[k1 - k0:] @ w[k1:])
        return (_field(X, s), float(total)) if energy else _field(X, s)


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


def _grad_block(pot: ScalarPotential, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """grad W(x_k - y_l) for tile rows A (d, T, 2) against columns B (d, 2, L), laid out
    (T, d, L): the pointwise test of a non-finite field."""
    K = _tile(pot, A, B)[0][:, None, :]
    return K if len(B) == 1 else K * (A @ B).transpose(1, 0, 2)


def _value_block(pot: ScalarPotential, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """W(x_k - y_l) for tile rows A (d, T, 2) against columns B (d, 2, L), as (T, L)."""
    return _tile(pot, A, B, True)[1]


@dataclass(frozen=True)
class Zero(ScalarPotential):
    """The identically vanishing kernel (no interaction)."""

    def _value(self, z):
        return np.zeros_like(z)

    def _deriv(self, z):
        return np.zeros_like(z)

    def is_identically_zero(self):
        return True


@dataclass(frozen=True)
class Quadratic(ScalarPotential):
    """W(z) = (a/2) z^2.  Attractive for a > 0, repulsive for a < 0."""

    a: float

    def _value(self, z):
        return 0.5 * self.a * (z * z)

    def _deriv(self, z):
        return self.a * z

    def is_identically_zero(self):
        return self.a == 0.0

    def cloud_fields(self, x, wx, y, wy, energy=False):
        """Exact pair fields between weighted point clouds, by moments.

        As ``ScalarPotential.cloud_fields``; for this kernel the fields are
        a W_y (x - mean_y) and a W_x (y - mean_x), O(N + L) instead of O(N L),
        and E = (a/2) W_x W_y (|mean_x - mean_y|^2 + var_x + var_y).
        """
        Wx, cx = _weighted_mean(x, wx)
        Wy, cy = _weighted_mean(y, wy)
        f = self.a * Wy * (x - cy), self.a * Wx * (y - cx)
        if not energy:
            return f
        dc = cx - cy
        spread = float(dc @ dc) + _weighted_var(x, wx, Wx, cx) + _weighted_var(y, wy, Wy, cy)
        return f + (float(0.5 * self.a * Wx * Wy * spread),)

    def self_fields(self, x, w, energy=False):
        """Exact self field a W (x - mean) and energy a W^2 var, as ``cloud_fields(x, w, x, w)``."""
        W, c = _weighted_mean(x, w)
        f = self.a * W * (x - c)
        return (f, float(self.a * W * W * _weighted_var(x, w, W, c))) if energy else f


def _weighted_mean(x: np.ndarray, w: np.ndarray):
    # Offsets from the first point keep the mean exact for coincident points
    # and accurate for clouds far from the origin.
    total = float(w.sum())
    ref = x[0]
    return total, ref + w @ (x - ref) / total


def _weighted_var(x, w, total, center) -> float:
    dev = x - center
    return float(w @ (dev * dev).sum(axis=1)) / total


class _Profile:
    """A kernel profile as polynomial pieces: evaluated pointwise, and summed
    exactly over a cloud in d = 1.

    Piece j covers s = |z| in [starts[j], starts[j+1]), closed on the left; the
    last piece is unbounded.  It is a polynomial in t = s - starts[j] with
    coefficients (low to high) ``pieces[j]`` for W; the radial W' pieces are
    their derivatives.  A profile of one piece from 0 without odd-degree terms
    is ``even``: one polynomial in z itself (value and derivative), which needs
    no split.  Every verdict on the kernel is read off the pieces: a nonzero
    polynomial vanishes at finitely many points only.

    A sum over sources y_l takes their moments M_s = sum_l w_l Y_l^s in
    Y = y - c, c a point of the cloud, over windows: the sources of one piece on
    one side of the target, or the whole cloud for an even profile.  Windows
    run over the left side's pieces from last to first, then the right side's
    from first to last.
    """

    def __init__(self, starts, pieces):
        self.starts = np.asarray(starts, dtype=float)
        pieces = np.atleast_2d(np.asarray(pieces, dtype=float))
        dpieces = pieces[:, 1:] * np.arange(1, pieces.shape[1])
        self.even = (len(self.starts) == 1 and self.starts[0] == 0.0
                     and not pieces[:, 1::2].any())
        self.zero = not pieces.any()
        # One 1-D array per coefficient for ``at``: gathering each with ``take``
        # is a few times faster than gathering the columns of one table.
        self.value_coef, self.deriv_coef = tuple(pieces.T.copy()), tuple(dpieces.T.copy())
        self.value = self._expansion(pieces, odd=False)
        self.deriv = self._expansion(dpieces, odd=True)
        self._left = -self.starts[::-1, None]  # x - b_j, last piece first
        self._right = self.starts[1:, None]

    def at(self, coef, s):
        """The pieces ``coef`` (``value_coef`` or ``deriv_coef``) at finite s >= 0;
        s = inf gives nan."""
        j = self.starts[1:].searchsorted(s, side="right")
        t = s - self.starts.take(j)
        out = np.asarray(coef[-1].take(j))  # a 0-d index takes a numpy scalar
        for c in coef[-2::-1]:
            out *= t
            out += c.take(j)
        return out

    def nonzero_past(self, radius) -> bool:
        """Does W' take nonzero values somewhere on (radius, inf)?"""
        j = self.starts[1:].searchsorted(radius, side="right")
        return any(c[j:].any() for c in self.deriv_coef)

    def _expansion(self, coef, odd):
        """H (D, D, windows) with sum_l w_l P(x - y_l) = sum_k X^k sum_sj H[k, s, j] M_sj,
        X = x - c, for moments M_sj of window j.

        In a window on side sigma (+1 for y <= x, -1 right of it) with start b,
        t = sigma (X - Y) - b; the right side feeds the odd W' negated (rho).
        Expanding t^r multinomially, H[k, s] = rho sigma^k (-sigma)^s
        sum_m (k + s + m)! / (k! s! m!) P_{k+s+m} (-b)^m.
        """
        D = coef.shape[1]
        if self.even:
            sigma, b, rho = np.ones(1), np.zeros(1), np.ones(1)
        else:
            coef = np.concatenate([coef[::-1], coef])
            sigma = np.repeat([1.0, -1.0], len(self.starts))
            b = np.concatenate([self.starts[::-1], self.starts])
            rho = np.where(sigma < 0.0, -1.0, 1.0) if odd else np.ones_like(sigma)
        H = np.zeros((D, D, len(b)))
        for k in range(D):
            for s in range(D - k):
                for m in range(D - k - s):
                    multinomial = math.factorial(k + s + m) // (
                        math.factorial(k) * math.factorial(s) * math.factorial(m))
                    H[k, s] += multinomial * coef[:, k + s + m] * (-b) ** m
                H[k, s] *= rho * sigma ** k * (-sigma) ** s
        return H

    def sums(self, x, y, w, value=False):
        """(sum_l w_l W'(x_k - y_l), sum_l w_l W(x_k - y_l) if ``value`` else None) for each x_k.

        ``x`` (N, 1) are the targets, ``y`` (L, 1) the sources with weights ``w``;
        each sum is (N,).  Both are read off one moment table: W' (``self.deriv``)
        takes its leading rows, W (``self.value``) all of them.  Coincident
        points give an exactly zero field, as c is a point of y.  The (windows,
        targets) tables are built in tiles of at most ``_TILE`` entries.
        """
        Hs = (self.deriv, self.value) if value else (self.deriv,)
        D = len(Hs[-1])
        y0, w0 = y[:, 0], w
        if not self.even and np.any(y0[1:] < y0[:-1]):  # quantile clouds arrive sorted
            order = y0.argsort()
            y0, w0 = y0[order], w0[order]
        c = y0[len(y0) // 2]
        Y = y0 - c
        X = x[:, 0] - c
        powers = np.empty((D, len(Y)))
        powers[0] = w0
        for r in range(1, D):
            np.multiply(powers[r - 1], Y, out=powers[r])
        if self.even:
            moments = powers.sum(axis=1)
            out = [_horner_rows(H[:, :, 0] @ moments[:len(H)], X) for H in Hs]
            return out[0], (out[1] if value else None)
        S = _prefix_sums(powers)
        # A piece that starts beyond the largest target-source distance holds
        # no pair.  Dropping such pieces leaves the last one kept unbounded,
        # which changes no window.
        span = max(X.max(), Y[-1]) - min(X.min(), Y[0])
        K = int(self.starts.searchsorted(span, side="right"))
        K0 = len(self.starts) - K
        Hs = [H[:, :, K0:K0 + 2 * K].reshape(len(H), -1) for H in Hs]
        left, right = self._left[K0:], self._right[:K - 1]
        out = [np.empty(len(X)) for _ in Hs]
        cols = max(1, _TILE // (2 * K + 1))
        for k0 in range(0, len(X), cols):
            Xt = X[k0:k0 + cols]
            # Window edges as indices into Y: y <= x - b_j (s >= b_j on the left),
            # then y >= x + b_j (right; y > x for the first piece).
            edges = np.empty((2 * K + 1, len(Xt)), dtype=np.intp)
            edges[0] = 0
            edges[1:K + 1] = Y.searchsorted(Xt + left, side="right")
            edges[K + 1:-1] = Y.searchsorted(Xt + right, side="left")
            edges[-1] = len(Y)
            at = S.take(edges, axis=1)
            windows = at[:, 1:] - at[:, :-1]
            for H, o in zip(Hs, out):
                o[k0:k0 + cols] = _horner_rows(H @ windows[:len(H)].reshape(-1, len(Xt)), Xt)
        return out[0], (out[1] if value else None)


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


class _PiecewisePolynomial(ScalarPotential):
    """A kind whose instances may carry a ``_Profile``: in d = 1 those are summed
    exactly by moments, in O((N + L) K log L) for K pieces; others directly."""

    _profile = None

    def _by_moments(self, x) -> bool:
        return self._profile is not None and x.shape[1] == 1

    def is_identically_zero(self):
        return self._profile.zero

    def cloud_fields(self, x, wx, y, wy, energy=False):
        if not self._by_moments(x):
            return super().cloud_fields(x, wx, y, wy, energy)
        fx, vx = self._profile.sums(x, y, wy, energy)
        f = fx[:, None], self._profile.sums(y, x, wx)[0][:, None]
        return f + (float(wx @ vx),) if energy else f

    def self_fields(self, x, w, energy=False):
        if not self._by_moments(x):
            return super().self_fields(x, w, energy)
        f, v = self._profile.sums(x, x, w, energy)
        return (f[:, None], float(w @ v)) if energy else f[:, None]


@dataclass(frozen=True)
class Power(_PiecewisePolynomial):
    """W(z) = a |z|^q with q > 1 (q > 1 keeps the kernel C1 at the origin).

    Integer q <= 4 is a polynomial in |z|, even in z for q = 2 and 4.
    """

    q: float
    a: float

    def __post_init__(self):
        if not self.q > 1.0:
            raise ValueError(f"Power exponent must exceed 1 for C1 regularity, got q={self.q}")
        if self.q in (2.0, 3.0, 4.0):
            q = int(self.q)
            value = np.zeros(q + 1)
            value[q] = self.a
            object.__setattr__(self, "_profile", _Profile([0.0], value))

    def _value(self, z):
        return self.a * np.abs(z) ** self.q

    def _deriv(self, z):
        return self.a * self.q * np.abs(z) ** (self.q - 1.0) * np.sign(z)

    def is_identically_zero(self):
        return self.a == 0.0


@dataclass(frozen=True)
class _TwoExponentials(ScalarPotential):
    """W = -ca e^{-q/la} + cr e^{-q/lr} in a q of the radius: a tile evaluates both
    exponentials once, for W and W' together.

    The derivative coefficients ``_order`` ca/la and ``_order`` cr/lr (``_order``
    is 2 where q is the squared radius) and the exponent scales -1/la and -1/lr
    are taken once, and must be finite: an infinite one would make W'(0) or W(0)
    nan.
    """

    ca: float
    la: float
    cr: float
    lr: float

    _order = 1.0

    def __post_init__(self):
        name = type(self).__name__
        if self.la <= 0.0 or self.lr <= 0.0:
            raise ValueError(f"{name} length scales la, lr must be positive")
        n = self._order
        slopes = n * self.ca / self.la, n * self.cr / self.lr
        rates = -1.0 / self.la, -1.0 / self.lr
        for label, v in zip((f"{n:g} ca/la", f"{n:g} cr/lr", "1/la", "1/lr"), slopes + rates):
            if not math.isfinite(v):
                raise ValueError(f"{name}: {label} is not finite for {self}")
        object.__setattr__(self, "_slopes", slopes)
        object.__setattr__(self, "_rates", rates)

    def _value(self, z):
        with np.errstate(invalid="ignore"):  # the unused W' is nan at |z| = inf
            return self._line(z, True)[1]

    def _deriv(self, z):
        return self._line(z, False)[0]

    def _terms(self, q, value):
        """(a e^{-q/la} - b e^{-q/lr} with (a, b) the derivative coefficients, W if ``value``
        else None); each in-place step rounds as the written-out expression does."""
        (a, b), (ra, rr) = self._slopes, self._rates
        ea, er = np.multiply(q, ra), np.multiply(q, rr)
        np.exp(ea, out=ea)
        np.exp(er, out=er)
        v = None
        if value:
            v = -self.ca * ea
            v += self.cr * er
        ea *= a
        er *= b
        ea -= er
        return ea, v

    def is_identically_zero(self):
        return self.ca == 0.0 and self.cr == 0.0


@dataclass(frozen=True)
class Morse(_TwoExponentials):
    """Smoothed attractive-repulsive kernel -ca e^{-s/la} + cr e^{-s/lr}.

    The classical version uses s = |z|, which has a kink at the origin; this
    implementation requires a smoothing length eps > 0 and evaluates at
    s = sqrt(z^2 + eps^2) so the kernel is C1 everywhere.
    """

    eps: float = 0.0

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError(
                "Morse kernel has a derivative jump at the origin; "
                "pass a smoothing length eps > 0"
            )
        if not self.eps * self.eps > 0.0:  # s = sqrt(z^2 + eps^2) would be 0 at z = 0
            raise ValueError(f"Morse: eps * eps underflows to 0 for eps={self.eps!r}")
        super().__post_init__()

    def _smoothed(self, z2, value):
        """(dW/ds, W if ``value``) at s = sqrt(z2 + eps^2), computed in z2, and s."""
        z2 += self.eps * self.eps
        s = np.sqrt(z2, out=z2)
        return self._terms(s, value), s

    def _line(self, z, value):
        (dW, v), s = self._smoothed(z * z, value)
        dW *= np.divide(z, s, out=s)
        return dW, v

    def _radial(self, r2, value):
        (dW, v), s = self._smoothed(r2, value)
        dW /= s
        return dW, v


@dataclass(frozen=True)
class GaussianAR(_TwoExponentials):
    """Gaussian attractive-repulsive kernel -ca e^{-z^2/la} + cr e^{-z^2/lr}."""

    _order = 2.0

    def _line(self, z, value):
        g, v = self._radial(z * z, value)
        g *= z
        return g, v

    def _radial(self, r2, value):
        return self._terms(r2, value)


@dataclass(frozen=True)
class DoubleWell(_PiecewisePolynomial):
    """W(z) = a z^4 - b z^2: repulsive near the origin, attractive far out."""

    a: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "_profile", _Profile([0.0], [0.0, 0.0, -self.b, 0.0, self.a]))

    def _value(self, z):
        z2 = z * z
        return self.a * z2 * z2 - self.b * z2

    def _deriv(self, z):
        z2 = z * z
        return z * (4.0 * self.a * z2 - 2.0 * self.b)


@dataclass(frozen=True)
class Tabulated(_PiecewisePolynomial):
    """Cubic-Hermite kernel from (knot, value, derivative) samples at z >= 0.

    Only the nonnegative half-line is stored; negative displacements are
    evaluated by reflection, which makes evenness exact by construction.
    Beyond the last knot the kernel continues linearly with the last
    derivative, so the growth stays at most quadratic.
    """

    knots: tuple
    values: tuple
    derivs: tuple

    def __post_init__(self):
        knots = tuple(float(k) for k in self.knots)
        values = tuple(float(v) for v in self.values)
        derivs = tuple(float(d) for d in self.derivs)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "derivs", derivs)
        if len(knots) < 2 or not (len(knots) == len(values) == len(derivs)):
            raise ValueError("Tabulated needs >= 2 knots with matching values and derivs")
        if any(b <= a for a, b in zip(knots, knots[1:])):
            raise ValueError("Tabulated knots must be strictly increasing")
        if knots[0] != 0.0:
            raise ValueError("Tabulated knots must start at 0")
        if derivs[0] != 0.0:
            raise ValueError("Tabulated derivative at the origin must be 0 (C1 even kernel)")
        k, v, d = np.array(knots), np.array(values), np.array(derivs)
        h = np.diff(k)
        pieces = np.zeros((len(k), 4))  # the cubics, then the linear tail
        pieces[:, 0], pieces[:, 1] = v, d
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            slope = np.diff(v) / h
            pieces[:-1, 2] = (3.0 * slope - 2.0 * d[:-1] - d[1:]) / h
            pieces[:-1, 3] = (d[:-1] + d[1:] - 2.0 * slope) / (h * h)
            # The W pieces and the W' pieces that _Profile derives from them.
            finite = np.isfinite(np.c_[pieces, pieces[:, 1:] * [1.0, 2.0, 3.0]]).all(axis=1)
        bad = np.flatnonzero(~finite)
        if bad.size:
            j = int(bad[0])
            end = repr(knots[j + 1]) + "]" if j + 1 < len(knots) else "inf)"
            raise ValueError(f"Tabulated: a coefficient of the piece on [{knots[j]!r}, {end} "
                             "is not finite")
        object.__setattr__(self, "_profile", _Profile(k, pieces))

    def _value(self, z):
        return self._profile.at(self._profile.value_coef, np.abs(z))

    def _deriv(self, z):
        out = self._profile.at(self._profile.deriv_coef, np.abs(z))
        out *= np.sign(z)
        return out

    def nonzero_on_tail(self, radius):
        return self._profile.nonzero_past(radius)


@dataclass(frozen=True)
class ConfiningSpec:
    """Tail-convexity declaration: each kernel is tail_kappa-convex beyond radius."""

    radius: float
    tail_kappa: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tail_kappa", np.asarray(self.tail_kappa, dtype=float))
        if not self.radius > 0.0:
            raise ValueError("confining radius must be positive")
        c = self.tail_kappa
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError("tail convexity matrix must be square")
        if not np.array_equal(c, c.T):
            raise ValueError("tail convexity matrix must be symmetric")


@dataclass(eq=False)
class PotentialMatrix:
    """n-by-n grid of interaction kernels with declared convexity data.

    ``kappa[i, j]`` is a declared semiconvexity modulus of entry (i, j): the
    map z -> W_ij(z) - kappa_ij z^2 / 2 is convex.  A modulus smaller than
    the true one is still valid; ``validate`` cross-checks declarations
    numerically.  ``growth`` optionally declares constants g_ij with
    |W_ij(z)| <= g_ij (1 + z^2).

    Entry symmetry (W_ij == W_ji, compared with ``==``) and ``kappa``
    symmetry are rejected outright: the pair sums read the upper triangle only,
    while the step bound and the checks read both.
    Instances are immutable in practice and safe for concurrent reads.
    """

    entries: tuple
    kappa: np.ndarray
    growth: Optional[np.ndarray] = None
    confining: Optional[ConfiningSpec] = None

    def __post_init__(self):
        entries = tuple(tuple(row) for row in self.entries)
        self.entries = entries
        n = len(entries)
        if n == 0 or any(len(row) != n for row in entries):
            raise ValueError("entries must form a square grid")
        for row in entries:
            for pot in row:
                if not isinstance(pot, ScalarPotential):
                    raise TypeError(f"matrix entries must be ScalarPotential, got {type(pot)!r}")
        for i in range(n):
            for j in range(i + 1, n):
                if entries[i][j] != entries[j][i]:
                    raise ValueError(f"entries[{i}][{j}] != entries[{j}][{i}] "
                                     "(interaction kernels must be symmetric)")
        self.kappa = np.asarray(self.kappa, dtype=float)
        if self.kappa.shape != (n, n):
            raise ValueError(f"kappa must be {n}x{n}, got shape {self.kappa.shape}")
        if not np.array_equal(self.kappa, self.kappa.T):
            raise ValueError("kappa must be symmetric")
        if self.growth is not None:
            self.growth = np.asarray(self.growth, dtype=float)
            if self.growth.shape != (n, n):
                raise ValueError(f"growth must be {n}x{n}, got shape {self.growth.shape}")
        if self.confining is not None and self.confining.tail_kappa.shape != (n, n):
            raise ValueError("confining tail matrix shape does not match entry grid")

    @property
    def n(self) -> int:
        return len(self.entries)

    def _check_indices(self, i: int, j: int):
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"species indices ({i}, {j}) out of range for n={self.n}")

    def eval(self, i: int, j: int, z):
        """Pointwise kernel value W_ij(z); z may be an array."""
        self._check_indices(i, j)
        if not np.all(np.isfinite(z)):
            raise ValueError(f"potential evaluated at non-finite displacement z={z!r}")
        return self.entries[i][j].value(z)

    def grad(self, i: int, j: int, z):
        """Kernel derivative W'_ij(z); odd in z with grad(0) = 0."""
        self._check_indices(i, j)
        if not np.all(np.isfinite(z)):
            raise ValueError(f"potential gradient at non-finite displacement z={z!r}")
        return self.entries[i][j].deriv(z)


def matrix_from_entries(entries: Sequence[Sequence[ScalarPotential]], kappa,
                        growth=None, confining: Optional[ConfiningSpec] = None) -> PotentialMatrix:
    """Build a PotentialMatrix, mirroring the upper triangle onto the lower."""
    n = len(entries)
    grid = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            grid[i][j] = entries[i][j]
            grid[j][i] = entries[i][j]
    return PotentialMatrix(tuple(tuple(row) for row in grid), kappa, growth, confining)


def pair_fields(pm: PotentialMatrix, xs, ws, energy=False):
    """Interaction fields F_i[k] = sum_j sum_l ws[j][l] grad W_ij(xs[i][k] - xs[j][l]).

    ``xs[i]`` (N_i, d) holds the points of species i and ``ws[i]`` (N_i,)
    their weights; returns one (N_i, d) array per species.  Each pair i < j
    is evaluated once and feeds both species; each pair i == j takes the
    kernel's self path; zero kernels are skipped.  With ``energy``, returns
    (fields, E), E = (1/2) sum_ij sum_kl ws[i][k] ws[j][l] W_ij(xs[i][k] - xs[j][l])
    from the same kernel evaluations.
    """
    out = [np.zeros_like(x) for x in xs]
    total = 0.0
    for i in range(pm.n):
        for j in range(i, pm.n):
            pot = pm.entries[i][j]
            if pot.is_identically_zero():
                continue
            if j == i:
                sums = pot.self_fields(xs[i], ws[i], energy=energy)
                out[i] += sums[0] if energy else sums
                total += sums[1] if energy else 0.0
            else:
                sums = pot.cloud_fields(xs[i], ws[i], xs[j], ws[j], energy=energy)
                out[i] += sums[0]
                out[j] += sums[1]
                total += 2.0 * sums[2] if energy else 0.0
    return (out, float(0.5 * total)) if energy else out


def _sample_grid(interval, samples: int) -> tuple[np.ndarray, float]:
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError(f"interval must satisfy lo < hi, got ({lo}, {hi})")
    if samples < 3:
        raise ValueError(f"need at least 3 samples, got {samples}")
    z = np.linspace(lo, hi, int(samples))
    return z, z[1] - z[0]


def estimate_growth_bound(pot: ScalarPotential, interval, samples: int = 1001) -> float:
    """Smallest sampled constant c with |W'(z)| <= c (|z| + 1) on the interval."""
    z, _ = _sample_grid(interval, samples)
    ratio = np.abs(pot.deriv(z)) / (np.abs(z) + 1.0)
    return float(ratio.max())


@dataclass
class ValidationIssue:
    """One violated (or doubtful) structural assumption, with a witness."""

    assumption: str
    i: int
    j: int
    z: Optional[float]
    detail: str


@dataclass
class ValidationReport:
    violations: list
    warnings: list

    @property
    def all_passed(self) -> bool:
        return not self.violations

    def flagged(self, assumption: str) -> bool:
        return any(v.assumption == assumption for v in self.violations + self.warnings)


def validate(pm: PotentialMatrix, interval=(-10.0, 10.0), samples: int = 1001) -> ValidationReport:
    """Check the structural assumptions of the kernel matrix on a sample grid.

    Checks per entry of the upper triangle (the grid is symmetric by
    construction): bit-exact evenness, oddness of the derivative, derivative
    vanishing at the origin, declared quadratic growth, and declared
    semiconvexity.  Violations are report
    entries, never exceptions.  An overstated kappa declaration is reported
    as a warning since a smaller declared modulus would still be valid.
    """
    violations: list[ValidationIssue] = []
    warnings: list[ValidationIssue] = []
    z, _ = _sample_grid(interval, samples)
    n = pm.n
    for i in range(n):
        for j in range(i, n):
            pot = pm.entries[i][j]
            w_pos = pot.value(z)
            w_neg = pot.value(-z)
            if not np.array_equal(w_pos, w_neg):
                worst = int(np.argmax(np.abs(w_pos - w_neg)))
                violations.append(ValidationIssue(
                    "W3", i, j, float(z[worst]),
                    f"value not even, |value(z)-value(-z)|={abs(w_pos[worst]-w_neg[worst]):.3e}"))
            g_pos = pot.deriv(z)
            g_neg = pot.deriv(-z)
            if not np.array_equal(g_pos, -g_neg):
                worst = int(np.argmax(np.abs(g_pos + g_neg)))
                violations.append(ValidationIssue(
                    "W3", i, j, float(z[worst]), "derivative not odd"))
            if pot.deriv(0.0) != 0.0:
                violations.append(ValidationIssue(
                    "W2", i, j, 0.0, f"derivative at origin is {pot.deriv(0.0):.3e}, not 0"))
            if pm.growth is not None:
                bound = pm.growth[i, j] * (1.0 + z * z)
                excess = np.abs(w_pos) - bound
                if np.any(excess > 0.0):
                    worst = int(np.argmax(excess))
                    violations.append(ValidationIssue(
                        "W4", i, j, float(z[worst]),
                        f"|W(z)|={abs(w_pos[worst]):.6g} exceeds declared "
                        f"{pm.growth[i, j]:.6g}*(1+z^2)={bound[worst]:.6g}"))
            kappa_ij = pm.kappa[i, j]
            h = z[1] - z[0]
            d2 = (w_pos[2:] - 2.0 * w_pos[1:-1] + w_pos[:-2]) / (h * h)
            tol = 1e-8 * (1.0 + abs(kappa_ij))
            if d2.min() < kappa_ij - tol:
                worst = int(np.argmin(d2))
                warnings.append(ValidationIssue(
                    "W5", i, j, float(z[worst + 1]),
                    f"sampled curvature {d2.min():.6g} below declared kappa={kappa_ij:.6g}"))
    return ValidationReport(violations, warnings)
