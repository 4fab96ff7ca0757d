"""One piece table per polynomial kernel: pointwise values, derived W', evenness and verdicts.

``Tabulated`` evaluates its values and derivatives from the same ``_Profile``
table that the d = 1 sums use.  The references here are the per-interval
Horner evaluation with a clamped last cubic and a separate linear tail, and
the 1001-point sampling that decided the zero and tail verdicts.
"""

import numpy as np
import pytest

import multiagg as mg


def hermite_coefficients(tab):
    k, v, d = (np.array(a) for a in (tab.knots, tab.values, tab.derivs))
    h = np.diff(k)
    slope = np.diff(v) / h
    c2 = (3.0 * slope - 2.0 * d[:-1] - d[1:]) / h
    c3 = (d[:-1] + d[1:] - 2.0 * slope) / (h * h)
    return k, v, d, c2, c3


def reference_eval(tab, z, deriv=False):
    """Horner on the interval holding |z| (the last cubic up to its right end), linear beyond."""
    k, v, d, c2, c3 = hermite_coefficients(tab)
    coef = (d[:-1], 2.0 * c2, 3.0 * c3) if deriv else (v[:-1], d[:-1], c2, c3)
    s = np.abs(z)
    j = k[1:-1].searchsorted(s, side="right")
    t = np.minimum(s, k[-1])
    t -= k[:-1].take(j)
    out = np.asarray(coef[-1].take(j))
    for c in coef[-2::-1]:
        out *= t
        out += c.take(j)
    if deriv:
        np.copyto(out, d[-1], where=s > k[-1])
        out *= np.sign(z)
    else:
        np.copyto(out, v[-1] + d[-1] * (s - k[-1]), where=s > k[-1])
    return out


def sampled_zero(tab):
    s = np.linspace(0.0, tab.knots[-1], 1001)
    return bool(np.all(reference_eval(tab, s) == 0.0)
                and np.all(reference_eval(tab, s, deriv=True) == 0.0))


def sampled_nonzero_on_tail(tab, radius):
    s = np.linspace(radius + 1e-9, max(tab.knots[-1], radius + 1.0) + 1.0, 1001)
    return bool(np.any(reference_eval(tab, s, deriv=True) != 0.0))


def random_table(rng, flat=False, zero=False):
    """Random knots and samples; ``flat`` makes random runs of knots share one value
    with zero derivatives (constant segments, possibly the tail); ``zero`` zeroes all."""
    n = int(rng.integers(2, 10))
    knots = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 2.0, n - 1))])
    values, derivs = rng.normal(size=n), rng.normal(size=n)
    derivs[0] = 0.0
    if flat:
        for _ in range(int(rng.integers(1, 3))):
            a = int(rng.integers(0, n))
            b = int(rng.integers(a, n)) + 1
            values[a:b] = values[a]
            derivs[a:b] = 0.0
    if zero:
        values[:] = 0.0
        derivs[:] = 0.0
    return mg.Tabulated(tuple(knots), tuple(values), tuple(derivs))


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("seed", range(20))
def test_pointwise_matches_the_reference_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    tab = random_table(rng, flat=seed % 2 == 1)
    k = np.array(tab.knots)
    z = np.concatenate([rng.uniform(-1.5, 1.5, 4000) * k[-1], k[:-1], -k[:-1],
                        (k[1:] + k[:-1]) / 2.0, [-0.0, 2.0 * k[-1], -3.0 * k[-1]]])
    assert not np.any(np.abs(z) == k[-1])  # the last knot is the one intended change
    for deriv in (False, True):
        got = tab.deriv(z) if deriv else tab.value(z)
        np.testing.assert_array_equal(bits(got), bits(reference_eval(tab, z, deriv)))


@pytest.mark.parametrize("seed", range(20))
def test_every_knot_returns_its_samples_bit_exactly(seed):
    tab = random_table(np.random.default_rng(100 + seed), flat=seed % 2 == 1)
    k, v, d = np.array(tab.knots), np.array(tab.values), np.array(tab.derivs)
    for z, sign in ((k, 1.0), (-k, -1.0)):
        np.testing.assert_array_equal(bits(tab.value(z)), bits(v))
        np.testing.assert_array_equal(tab.deriv(z), sign * d)
        for j in range(len(k)):  # the 0-d path agrees
            assert tab.value(float(z[j])) == v[j]
            assert tab.deriv(float(z[j])) == sign * d[j]


def test_last_knot_takes_the_tail_piece():
    tab = mg.Tabulated((0.0, 0.7, 1.9), (1.0, -0.3, 2.2), (0.0, 0.4, 1.3))
    kmax = tab.knots[-1]
    assert tab.value(kmax) == tab.value(-kmax) == 2.2
    assert tab.deriv(kmax) == 1.3 and tab.deriv(-kmax) == -1.3
    # The last cubic at its right end rounds differently.
    assert reference_eval(tab, np.array([kmax]))[0] != 2.2


@pytest.mark.parametrize("seed", range(40))
def test_structural_verdicts_agree_with_dense_sampling(seed):
    rng = np.random.default_rng(200 + seed)
    tab = random_table(rng, flat=seed % 4 != 0, zero=seed % 5 == 0)
    k = np.array(tab.knots)
    assert tab.is_identically_zero() == sampled_zero(tab)
    radii = np.concatenate([rng.uniform(0.01, 1.5 * k[-1], 6), k[1:], [k[-1] + 5.0]])
    for radius in radii:
        assert tab.nonzero_on_tail(radius) == sampled_nonzero_on_tail(tab, radius), radius


def test_verdicts_on_flat_segments():
    # Constant from the second knot on: the tail carries no force.
    tab = mg.Tabulated((0.0, 1.0, 2.0, 3.0), (-1.0, 0.5, 0.5, 0.5), (0.0, 0.0, 0.0, 0.0))
    assert not tab.is_identically_zero()
    assert tab.nonzero_on_tail(0.5)
    assert not tab.nonzero_on_tail(1.0)
    assert not tab.nonzero_on_tail(2.5)
    # A constant kernel is not zero, yet has no force anywhere.
    const = mg.Tabulated((0.0, 1.0), (2.0, 2.0), (0.0, 0.0))
    assert not const.is_identically_zero()
    assert not const.nonzero_on_tail(0.1)
    zero = mg.Tabulated((0.0, 1.0), (0.0, 0.0), (0.0, 0.0))
    assert zero.is_identically_zero() and not zero.nonzero_on_tail(0.5)
    # A force from the last cubic on.
    ramp = mg.Tabulated((0.0, 1.0, 2.0), (0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    assert not ramp.is_identically_zero()
    assert ramp.nonzero_on_tail(5.0)


@pytest.mark.parametrize("pot, even", [
    (mg.DoubleWell(1.0, 2.0), True),
    (mg.DoubleWell(0.5, 0.0), True),
    (mg.DoubleWell(0.0, -1.5), True),
    (mg.Power(2.0, 1.5), True),
    (mg.Power(4.0, -0.25), True),
    (mg.Power(3.0, 0.7), False),
    (mg.Tabulated((0.0, 1.0), (0.0, 1.0), (0.0, 2.0)), False),
    (mg.Tabulated((0.0, 1.0, 2.0), (1.0, 0.0, 1.0), (0.0, 0.0, 0.0)), False),
])
def test_evenness_is_derived_from_the_pieces(pot, even):
    assert pot._profile.even is even


def test_derived_derivative_pieces_equal_the_closed_forms():
    a, b = 0.3, 1.7
    dw = np.array(mg.DoubleWell(a, b)._profile.deriv_coef)[:, 0]
    np.testing.assert_array_equal(bits(dw), bits([0.0, -2.0 * b, 0.0, 4.0 * a]))
    for q in (2, 3, 4):
        value = np.zeros(q + 1)
        value[q] = -0.9
        got = np.array(mg.Power(float(q), -0.9)._profile.deriv_coef)[:, 0]
        np.testing.assert_array_equal(bits(got), bits(value[1:] * np.arange(1, q + 1)))
    tab = random_table(np.random.default_rng(7))
    k, v, d, c2, c3 = hermite_coefficients(tab)
    got = np.array(tab._profile.deriv_coef)
    np.testing.assert_array_equal(bits(got[:, :-1]), bits([d[:-1], 2.0 * c2, 3.0 * c3]))
    np.testing.assert_array_equal(bits(got[:, -1]), bits([d[-1], 0.0, 0.0]))
