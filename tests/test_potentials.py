import re
import warnings

import numpy as np
import pytest

import multiagg as mg
from conftest import pair_sum
from multiagg.potentials import (DoubleWell, GaussianAR, Morse, Power, Quadratic,
                                 Tabulated, Zero, estimate_growth_bound, validate)

ALL_KINDS = [
    Quadratic(1.7),
    Quadratic(-0.4),
    Power(q=3.0, a=0.5),
    Power(q=1.5, a=2.0),
    Morse(ca=1.0, la=1.0, cr=0.5, lr=2.0, eps=0.3),
    GaussianAR(ca=1.0, la=1.0, cr=0.6, lr=2.5),
    DoubleWell(1.0, 1.0),
    Zero(),
    Tabulated(knots=(0.0, 1.0, 2.0), values=(0.0, 0.5, 2.0), derivs=(0.0, 1.0, 2.0)),
]


def test_eval_worked_values():
    assert Quadratic(1.0).value(2.0) == 2.0
    assert DoubleWell(1.0, 1.0).value(0.0) == 0.0
    assert GaussianAR(ca=1.0, la=1.0, cr=0.0, lr=1.0).value(0.0) == -1.0


def test_grad_worked_values():
    assert Quadratic(1.0).deriv(3.0) == 3.0
    assert DoubleWell(1.0, 1.0).deriv(1.0) == 2.0


@pytest.mark.parametrize("pot", ALL_KINDS, ids=lambda p: type(p).__name__)
def test_evenness_bit_exact(pot):
    rng = np.random.default_rng(7)
    z = rng.uniform(-8.0, 8.0, size=1000)
    assert np.array_equal(pot.value(z), pot.value(-z))


@pytest.mark.parametrize("pot", ALL_KINDS, ids=lambda p: type(p).__name__)
def test_grad_odd_and_zero_at_origin(pot):
    rng = np.random.default_rng(8)
    z = rng.uniform(-8.0, 8.0, size=1000)
    assert np.array_equal(pot.deriv(z), -pot.deriv(-z))
    assert pot.deriv(0.0) == 0.0


@pytest.mark.parametrize("pot", ALL_KINDS, ids=lambda p: type(p).__name__)
def test_grad_matches_finite_differences(pot):
    rng = np.random.default_rng(9)
    # keep |z| away from 0 where higher derivatives of |z|^q blow up
    z = rng.uniform(0.1, 5.0, size=100) * rng.choice([-1.0, 1.0], size=100)
    h = 1e-5 * np.maximum(1.0, np.abs(z))
    fd = (pot.value(z + h) - pot.value(z - h)) / (2.0 * h)
    g = pot.deriv(z)
    assert np.all(np.abs(fd - g) <= 1e-6 * np.maximum(1.0, np.abs(g)))


# (kernel, grid, samples, true minimum curvature, overstatement that W5 must catch,
# |z| of the minimum or None where the curvature is constant)
CURVATURE_CASES = {
    # exact: an overstatement of 1e-7 exceeds W5's tolerance 1e-8 (1 + |kappa|)
    **{f"quadratic_{a}": (Quadratic(a), (-5.0, 5.0), 101, a, 1e-7, None)
       for a in (-3.0, 0.0, 7.0)},
    # curvature 12 z^2 - 2 has its minimum -2 at z = 0
    "double_well": (DoubleWell(1.0, 1.0), (-1.0, 1.0), 1001, -2.0, 1e-3, 0.0),
    # closed-form second derivative of -exp(-z^2): (2 - 4 z^2) exp(-z^2), least at z^2 = 3/2
    "gaussian": (GaussianAR(ca=1.0, la=1.0, cr=0.0, lr=1.0), (-3.0, 3.0), 1001,
                 -4.0 * np.exp(-1.5), 1e-3, np.sqrt(1.5)),
}


@pytest.mark.parametrize("case", sorted(CURVATURE_CASES))
def test_validate_curvature_check_is_accurate(case):
    pot, interval, samples, true_min, excess, z_min = CURVATURE_CASES[case]

    def w5(kappa):
        pm = mg.matrix_from_entries([[pot]], kappa=[[kappa]])
        report = validate(pm, interval=interval, samples=samples)
        return [w for w in report.warnings if w.assumption == "W5"]

    assert w5(true_min) == []
    warned = w5(true_min + excess)
    assert len(warned) == 1
    if z_min is not None:
        assert abs(abs(warned[0].z) - z_min) <= 0.01


def test_growth_bound_quadratic():
    # tightest sampled ratio |z| / (|z| + 1) on [-10, 10] is 10/11
    est = estimate_growth_bound(Quadratic(1.0), (-10.0, 10.0), 1001)
    assert abs(est - 10.0 / 11.0) <= 1e-9
    z = np.linspace(-10.0, 10.0, 1001)
    assert np.all(np.abs(Quadratic(1.0).deriv(z)) <= est * (np.abs(z) + 1.0) + 1e-12)


def test_growth_bound_zero():
    assert estimate_growth_bound(Zero(), (-5.0, 5.0), 101) == 0.0


def test_growth_bound_double_well_matches_grid_oracle():
    z = np.linspace(-2.0, 2.0, 1001)
    oracle = (np.abs(4.0 * z ** 3 - 2.0 * z) / (np.abs(z) + 1.0)).max()
    est = estimate_growth_bound(DoubleWell(1.0, 1.0), (-2.0, 2.0), 1001)
    assert est == pytest.approx(oracle, rel=1e-12)


def test_morse_requires_smoothing():
    with pytest.raises(ValueError):
        Morse(ca=1.0, la=1.0, cr=0.0, lr=1.0)
    pot = Morse(ca=1.0, la=1.0, cr=0.0, lr=1.0, eps=0.2)
    assert pot.deriv(0.0) == 0.0
    assert pot.value(1.0) == pot.value(-1.0)


@pytest.mark.parametrize("kind, fields, match", [
    (GaussianAR, dict(ca=1.0, la=1e-310, cr=0.6, lr=0.2), "2 ca/la"),
    (GaussianAR, dict(ca=1e308, la=0.1, cr=0.6, lr=0.2), "2 ca/la"),
    (GaussianAR, dict(ca=0.0, la=1.0, cr=0.6, lr=1e-309), "2 cr/lr"),
    (GaussianAR, dict(ca=0.0, la=1e-310, cr=0.0, lr=0.2), "1/la"),
    (Morse, dict(ca=1.0, la=1e-310, cr=0.6, lr=0.3, eps=0.05), "ca/la"),
    (Morse, dict(ca=1.0, la=1.0, cr=1e308, lr=1e-3, eps=0.05), "cr/lr"),
    (Morse, dict(ca=1.0, la=1.0, cr=0.0, lr=1e-310, eps=0.05), "1/lr"),
], ids=["gauss-ca/la-tiny-la", "gauss-ca/la-huge-ca", "gauss-cr/lr", "gauss-1/la",
        "morse-ca/la", "morse-cr/lr", "morse-1/lr"])
def test_exponential_kinds_reject_coefficients_that_overflow(kind, fields, match):
    # An infinite coefficient or exponent scale would make W'(0) or W(0) nan.
    with pytest.raises(ValueError, match=match):
        kind(**fields)


def test_morse_rejects_an_eps_whose_square_underflows():
    # s = sqrt(z^2 + eps^2) would be 0 at z = 0, and W'(0) = 0 / 0.
    with pytest.raises(ValueError, match="eps \\* eps underflows"):
        Morse(1.0, 1.0, 0.5, 0.25, eps=1e-170)
    with pytest.raises(ValueError, match="underflows"):
        Morse(1.0, 1.0, 0.5, 0.25, eps=1e-162)
    pot = Morse(1.0, 1.0, 0.5, 0.25, eps=2.3e-162)  # eps^2 is the least subnormal
    assert pot.deriv(0.0) == 0.0 and np.isfinite(pot.deriv(1e-300))
    x = np.array([[0.0, 0.0], [1.0, 0.5], [1e-170, 0.0]])
    assert np.all(np.isfinite(pair_sum(pot, x, np.full(3, 1.0 / 3.0))[0]))


@pytest.mark.parametrize("knots, values, derivs, interval", [
    ((0.0, 1e-310), (0.0, 1.0), (0.0, 0.0), "[0.0, 1e-310]"),
    ((0.0, 1.0, 1.0000000000000002), (0.0, 1.0, 1e300), (0.0, 1.0, 1.0),
     "[1.0, 1.0000000000000002]"),
    # W's cubic coefficient 1.2e308 is finite; W' takes three times it.
    ((0.0, 1.0), (0.0, -6e307), (0.0, 0.0), "[0.0, 1.0]"),
], ids=["slope", "second-piece", "derived-w-prime"])
def test_tabulated_rejects_pieces_that_are_not_finite(knots, values, derivs, interval):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # quietly: no numpy overflow warning on the way
        with pytest.raises(ValueError, match=re.escape(interval)):
            Tabulated(knots=knots, values=values, derivs=derivs)


def test_power_rejects_small_exponent():
    with pytest.raises(ValueError):
        Power(q=1.0, a=1.0)


def test_tabulated_validation_and_reflection():
    with pytest.raises(ValueError):
        Tabulated(knots=(0.5, 1.0), values=(0.0, 1.0), derivs=(0.0, 1.0))
    with pytest.raises(ValueError):
        Tabulated(knots=(0.0, 1.0), values=(0.0, 1.0), derivs=(0.5, 1.0))
    target = Quadratic(2.0)
    knots = np.linspace(0.0, 3.0, 31)
    tab = Tabulated(tuple(knots), tuple(target.value(knots)), tuple(target.deriv(knots)))
    z = np.linspace(-2.9, 2.9, 301)
    assert np.abs(tab.value(z) - target.value(z)).max() < 1e-10
    assert np.abs(tab.deriv(z) - target.deriv(z)).max() < 1e-9
    # linear continuation beyond the last knot
    assert tab.deriv(5.0) == target.deriv(3.0)
    assert tab.value(5.0) == pytest.approx(target.value(3.0) + 2.0 * target.deriv(3.0))


def test_matrix_rejects_asymmetric_kappa():
    with pytest.raises(ValueError):
        mg.PotentialMatrix(((Quadratic(1.0),),), kappa=[[1.0]], growth=[[1.0, 2.0]])
    with pytest.raises(ValueError):
        mg.PotentialMatrix(
            ((Quadratic(1.0), Quadratic(1.0)), (Quadratic(1.0), Quadratic(1.0))),
            kappa=[[1.0, 2.0], [3.0, 1.0]])


def test_validate_passes_symmetric_quadratic(two_species_attractive):
    pm, _ = two_species_attractive
    report = validate(pm)
    assert report.all_passed
    assert not report.warnings


def test_asymmetric_entries_are_rejected():
    # the pair sums read the upper triangle only, the step bound both triangles
    with pytest.raises(ValueError, match=re.escape("entries[0][1] != entries[1][0]")):
        mg.PotentialMatrix(
            ((Quadratic(1.0), Quadratic(2.0)), (Quadratic(3.0), Quadratic(1.0))),
            kappa=[[1.0, 2.0], [2.0, 1.0]])


def test_validate_warns_on_overstated_kappa():
    # declared kappa 1 but the double well dips to curvature -2 at the origin
    pm = mg.matrix_from_entries([[DoubleWell(1.0, 1.0)]], kappa=[[1.0]])
    report = validate(pm, interval=(-2.0, 2.0), samples=2001)
    assert report.all_passed  # warning, not violation
    w5 = [w for w in report.warnings if w.assumption == "W5"]
    assert w5 and abs(w5[0].z) < 0.05


def test_validate_flags_growth_violation():
    pm = mg.matrix_from_entries([[Power(q=4.0, a=1.0)]], kappa=[[0.0]],
                                growth=[[1.0]])
    report = validate(pm, interval=(-5.0, 5.0), samples=501)
    assert report.flagged("W4")
    assert not report.all_passed


def cubic_table(knots):
    """p(s) = 0.3 + 0.5 s^2 - 0.2 s^3 (p'(0) = 0) sampled with exact derivatives."""
    k = np.asarray(knots, dtype=float)
    return Tabulated(tuple(k), tuple(0.3 + 0.5 * k**2 - 0.2 * k**3), tuple(k - 0.6 * k**2))


def test_tabulated_reproduces_a_cubic():
    tab = cubic_table([0.0, 0.3, 1.1, 1.2, 2.0, 3.0])
    z = np.linspace(-3.0, 3.0, 2001)
    s = np.abs(z)
    value, deriv = 0.3 + 0.5 * s**2 - 0.2 * s**3, (s - 0.6 * s**2) * np.sign(z)
    assert np.abs(tab.value(z) - value).max() <= 1e-13 * np.abs(value).max()
    assert np.abs(tab.deriv(z) - deriv).max() <= 1e-13 * np.abs(deriv).max()


def test_tabulated_takes_the_samples_at_the_knots():
    rng = np.random.default_rng(3)
    knots = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, 12))])
    values, derivs = rng.normal(size=13), np.concatenate([[0.0], rng.normal(size=12)])
    tab = Tabulated(tuple(knots), tuple(values), tuple(derivs))
    inner = knots[1:-1]
    assert np.array_equal(tab.value(inner), values[1:-1])
    assert np.array_equal(tab.deriv(inner), derivs[1:-1])
    assert np.array_equal(tab.value(-inner), values[1:-1])
    assert np.array_equal(tab.deriv(-inner), -derivs[1:-1])
    left = np.nextafter(inner, 0.0)
    assert np.abs(tab.value(left) - values[1:-1]).max() <= 1e-12
    assert np.abs(tab.deriv(left) - derivs[1:-1]).max() <= 1e-12


def test_tabulated_scalar_input_returns_float():
    tab = cubic_table([0.0, 1.0, 2.0])
    for z in (0.0, 0.7, -1.0, 2.0, 5.0, np.float64(-0.7), np.array(1.5)):
        assert type(tab.value(z)) is float
        assert type(tab.deriv(z)) is float
    assert tab.value(np.array(1.5)) == tab.value(np.array([1.5]))[0]
    assert tab.deriv(-5.0) == -tab.derivs[-1]


def test_tabulated_matches_scipy_hermite_spline():
    interpolate = pytest.importorskip("scipy.interpolate")
    rng = np.random.default_rng(11)
    for _ in range(5):
        knots = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0, 20))])
        values, derivs = rng.normal(size=21), np.concatenate([[0.0], rng.normal(size=20)])
        tab = Tabulated(tuple(knots), tuple(values), tuple(derivs))
        ref = interpolate.CubicHermiteSpline(knots, values, derivs)
        z = rng.uniform(-knots[-1], knots[-1], 4000)
        for got, want in ((tab.value(z), ref(np.abs(z))),
                          (tab.deriv(z), ref.derivative()(np.abs(z)) * np.sign(z))):
            assert np.abs(got - want).max() <= 1e-13 * (1.0 + np.abs(want).max())
