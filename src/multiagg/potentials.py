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

Each kernel binds its sum between two weighted clouds, or of one cloud on
itself, to a layout once (``_bind``), as ``engine.InteractionPlan`` asks:
``Quadratic`` from each cloud's mass, mean and variance; in d = 1 the kinds
whose profiles are polynomial pieces in |z| (``_Profile``) from moments of
the source cloud; every other kind or d directly in row tiles.  A sum is
taken only through a plan; ``engine.pair_fields`` is its one-off pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import engine
from .engine import _direct_cross, _direct_self, _horner_rows, _powers

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

    def _bind(self, wx, wy, d):
        """This kernel's sum between clouds of weights ``wx`` and ``wy`` in d, or of the
        first cloud on itself if ``wy`` is None, bound once per layout.

        Returns (fn, sources): ``fn(x, y, energy, tables)`` gives (field on x,
        field on y or None, E or None), and ``sources`` names the clouds whose
        prefix tables it reads, as (0 for x or 1 for y, W's rows too with
        ``energy``), in the order of ``tables`` (see ``InteractionPlan._tables``).

        Here the sums are direct, in row tiles (``engine._direct_self`` and
        ``engine._direct_cross``).
        """
        return (_direct_self(self, wx, d) if wy is None else _direct_cross(self, wx, wy)), ()


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

    def _bind(self, wx, wy, d):
        """Exact pair sums by moments, in O(N + L) instead of O(N L) (see
        ``ScalarPotential._bind``): the fields are a W_y (x - mean_y) and
        a W_x (y - mean_x), E = (a/2) W_x W_y (|mean_x - mean_y|^2 + var_x + var_y),
        and a cloud on itself has a W (x - mean) and E = a W^2 var."""
        Wx = float(wx.sum())
        if wy is None:
            def moments(x, y, energy, tables):
                c = _weighted_mean(x, wx, Wx)
                f = self.a * Wx * (x - c)
                return f, None, (float(self.a * Wx * Wx * _weighted_var(x, wx, Wx, c))
                                 if energy else None)
            return moments, ()
        Wy = float(wy.sum())

        def cross_moments(x, y, energy, tables):
            cx, cy = _weighted_mean(x, wx, Wx), _weighted_mean(y, wy, Wy)
            fx, fy = self.a * Wy * (x - cy), self.a * Wx * (y - cx)
            if not energy:
                return fx, fy, None
            dc = cx - cy
            spread = float(dc @ dc) + _weighted_var(x, wx, Wx, cx) + _weighted_var(y, wy, Wy, cy)
            return fx, fy, float(0.5 * self.a * Wx * Wy * spread)
        return cross_moments, ()


def _weighted_mean(x: np.ndarray, w: np.ndarray, total: float):
    # Offsets from the first point keep the mean exact for coincident points
    # and accurate for clouds far from the origin.
    ref = x[0]
    return ref + w @ (x - ref) / total


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
        self._kept = (0,)  # the last kept-piece count K and what _read takes; see _pieces

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

    def _rows(self, value) -> int:
        """Moment rows of a table: W's if ``value``, else the fewer of W'."""
        return len(self.value if value else self.deriv)

    def _pieces(self, K: int):
        """(W' expansion, W expansion, left knot offsets -b_j from the last piece, right ones
        b_j) of the first K pieces, kept for the next read of as many pieces."""
        kept = self._kept  # one read: a concurrent sum may replace it
        if kept[0] != K:
            K0 = len(self.starts) - K
            kept = self._kept = (K, *(H[:, :, K0:K0 + 2 * K].reshape(len(H), -1)
                                      for H in (self.deriv, self.value)),
                                 -self.starts[K - 1::-1, None], self.starts[1:K, None])
        return kept[1:]

    def _source(self, y, w):
        """(Y, c, weights) of sources y (L, 1) with weights w: about c, a point of y, and
        sorted unless the profile is even."""
        y0, w0 = y[:, 0], w
        if not self.even and (y0[1:] < y0[:-1]).any():  # quantile clouds arrive sorted
            order = y0.argsort()
            y0, w0 = y0[order], w0[order]
        c = y0[len(y0) // 2]
        return y0 - c, c, w0

    def sums(self, x, y, w, value=False):
        """(sum_l w_l W'(x_k - y_l), sum_l w_l W(x_k - y_l) if ``value`` else None) for each
        x_k, of an even profile, from whole-cloud moments.

        ``x`` (N, 1) are the targets, ``y`` (L, 1) the sources with weights ``w``;
        each sum is (N,).  Both are read off one moment row: W' (``self.deriv``)
        takes its leading entries, W (``self.value``) all of them.  Coincident
        points give an exactly zero field, as c is a point of y.
        """
        Y, c, w0 = self._source(y, w)
        moments = _powers(Y, w0, np.empty((self._rows(value), len(Y)))).sum(axis=1)
        X = x[:, 0] - c
        out = [_horner_rows(H[:, :, 0] @ moments[:len(H)], X)
               for H in ((self.deriv, self.value) if value else (self.deriv,))]
        return out[0], (out[1] if value else None)

    def _read(self, x, Y, c, S, value):
        """The sums of an uneven profile at targets x, as ``sums`` gives them, from a prefix
        table (Y, c, S) of the sources (see ``InteractionPlan._tables``).

        Only the first K pieces are read: a piece that starts beyond the
        largest target-source distance holds no pair, and dropping such pieces
        leaves the last one kept unbounded, which changes no window.  The
        (windows, targets) tables are built in tiles of at most ``_TILE``
        entries.
        """
        X = x[:, 0] - c
        K = 1
        if len(self.starts) > 1:
            span = max(X.max(), Y[-1]) - min(X.min(), Y[0])
            K = int(self.starts.searchsorted(span, side="right"))
        deriv, val, left, right = self._pieces(K)
        cols = max(1, engine._TILE // (2 * K + 1))
        Hs = (deriv, val) if value else (deriv,)
        out = [np.empty(len(X)) for _ in Hs]
        for k0 in range(0, len(X), cols):
            Xt = X[k0:k0 + cols]
            # Window edges as indices into Y: y <= x - b_j (s >= b_j on the left),
            # then y >= x + b_j (right; y > x for the first piece).
            edges = np.empty((2 * K + 1, len(Xt)), dtype=np.intp)
            edges[0] = 0
            edges[1:K + 1] = Y.searchsorted(Xt + left, side="right")
            if K > 1:
                edges[K + 1:-1] = Y.searchsorted(Xt + right, side="left")
            edges[-1] = len(Y)
            at = S.take(edges, axis=1)
            windows = at[:, 1:] - at[:, :-1]
            for H, o in zip(Hs, out):
                o[k0:k0 + cols] = _horner_rows(H @ windows[:len(H)].reshape(-1, len(Xt)), Xt)
        return out[0], (out[1] if value else None)


class _PiecewisePolynomial(ScalarPotential):
    """A kind whose instances may carry a ``_Profile``: in d = 1 those are summed
    exactly by moments, in O((N + L) K log L) for K pieces; others directly."""

    _profile = None

    def is_identically_zero(self):
        return self._profile.zero

    def _bind(self, wx, wy, d):
        p = self._profile
        if p is None or d != 1:
            return super()._bind(wx, wy, d)
        if p.even:  # whole-cloud moments: no table to share
            def whole(x, y, energy, tables):
                fx, vx = p.sums(x, y, wx if wy is None else wy, energy)
                fy = None if wy is None else p.sums(y, x, wx)[0][:, None]
                return fx[:, None], fy, (float(wx @ vx) if energy else None)
            return whole, ()
        if wy is None:
            def prefix_self(x, y, energy, tables):
                f, v = p._read(x, *tables[0], energy)
                return f[:, None], None, (float(wx @ v) if energy else None)
            return prefix_self, ((0, True),)

        def prefix(x, y, energy, tables):
            fx, vx = p._read(x, *tables[0], energy)
            fy = p._read(y, *tables[1], False)[0][:, None]
            return fx[:, None], fy, (float(wx @ vx) if energy else None)
        return prefix, ((1, True), (0, False))


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
