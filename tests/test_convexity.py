import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multiagg as mg
from multiagg.convexity import (analyze_system, confining_check, irreducible, lambda0,
                                necessary_condition)


def params_n(n, m=None, p=None):
    return mg.SystemParams(m=m or [1.0] * n, p=p or [1.0] * n, E=[0.0])


WORKED = [
    ([[2.0, 1.0], [1.0, 2.0]], 2.0),
    ([[-1.0, 2.0], [2.0, -1.0]], 1.0),
    ([[2.0, -1.0], [-1.0, 2.0]], -2.0),
]


@pytest.mark.parametrize("kappa,expected", WORKED)
def test_lambda0_worked_examples(kappa, expected):
    res = lambda0(np.array(kappa), params_n(2))
    assert res.lambda0 == expected


@pytest.mark.parametrize("kappa,m,p,expected", [
    (2.0, 3.0, 0.5, 3.0),
    (0.0, 1.0, 1.0, 0.0),
    (-1.0, 1.0, 2.0, -2.0),
])
def test_lambda0_single_species(kappa, m, p, expected):
    # McCann's m kappa p; a single species has no auxiliary weights.
    res = lambda0([[kappa]], mg.SystemParams(m=[m], p=[p], E=[0.0]))
    assert res.lambda0 == expected
    assert res.eta is None


def test_lambda0_usage_errors():
    with pytest.raises(ValueError):
        lambda0(np.array([[1.0, 2.0], [3.0, 1.0]]), params_n(2))


def test_necessary_condition_examples():
    assert necessary_condition(np.array([[2.0, 1.0], [1.0, 2.0]]), params_n(2)).tolist() == [True, True]
    # positive-definite kappa with repulsive cross terms: flags true, modulus negative
    kappa = np.array([[2.0, -1.0], [-1.0, 2.0]])
    assert necessary_condition(kappa, params_n(2)).tolist() == [True, True]
    assert lambda0(kappa, params_n(2)).lambda0 == -2.0
    assert necessary_condition(np.zeros((2, 2)), params_n(2)).tolist() == [False, False]


def test_irreducible_cases():
    q = mg.Quadratic(1.0)
    pm = mg.matrix_from_entries([[q, q], [None, q]], kappa=np.ones((2, 2)))
    assert irreducible(pm)
    pm2 = mg.matrix_from_entries([[q, mg.Zero()], [None, q]],
                                 kappa=np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert not irreducible(pm2)
    pm3 = mg.matrix_from_entries(
        [[mg.Zero(), q, mg.Zero()], [None, mg.Zero(), q], [None, None, mg.Zero()]],
        kappa=np.zeros((3, 3)))
    assert irreducible(pm3)


def test_irreducible_tabulated_zero_detected_by_sampling():
    zero_tab = mg.Tabulated(knots=(0.0, 1.0, 2.0), values=(0.0, 0.0, 0.0),
                            derivs=(0.0, 0.0, 0.0))
    assert zero_tab.is_identically_zero()
    q = mg.Quadratic(1.0)
    pm = mg.matrix_from_entries([[q, zero_tab], [None, q]],
                                kappa=np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert not irreducible(pm)
    live_tab = mg.Tabulated(knots=(0.0, 1.0, 2.0), values=(0.0, 0.5, 2.0),
                            derivs=(0.0, 1.0, 2.0))
    pm2 = mg.matrix_from_entries([[q, live_tab], [None, q]],
                                 kappa=np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert irreducible(pm2)


def test_confining_check_matches_lambda0_arithmetic():
    # with m = p the auxiliary weights coincide, so the tail modulus must
    # equal the lambda0 op applied to the tail matrix
    q = mg.Quadratic(1.0)
    c = np.array([[2.0, 1.0], [1.0, 2.0]])
    pm = mg.matrix_from_entries([[q, q], [None, q]], kappa=np.ones((2, 2)),
                                confining=mg.ConfiningSpec(1.0, c))
    params = params_n(2)
    report = confining_check(pm, params)
    assert report.lambda0_tilde == lambda0(c, params).lambda0 == 2.0
    assert report.verdict


def test_confining_check_single_species():
    pm = mg.matrix_from_entries([[mg.Quadratic(0.5)]], kappa=[[0.5]],
                                confining=mg.ConfiningSpec(1.0, [[0.5]]))
    report = confining_check(pm, params_n(1))
    assert report.verdict
    pm2 = mg.matrix_from_entries([[mg.Quadratic(-0.5)]], kappa=[[-0.5]],
                                 confining=mg.ConfiningSpec(1.0, [[-0.5]]))
    assert not confining_check(pm2, params_n(1)).verdict


def tail_cases():
    q = mg.Quadratic(1.0)

    def one(c, m=1.0, p=1.0):
        pm = mg.matrix_from_entries([[q]], kappa=[[1.0]], confining=mg.ConfiningSpec(1.0, [[c]]))
        return pm, mg.SystemParams(m=[m], p=[p], E=[0.0])

    def two(cross, c):
        pm = mg.matrix_from_entries([[q, cross], [None, q]], kappa=np.eye(2),
                                    confining=mg.ConfiningSpec(1.0, c))
        return pm, params_n(2)

    return {
        "one_positive": one(0.5),
        "one_negative": one(-0.5),
        # m C p underflows to 0.0 although C > 0: the modulus, not C, decides.
        "one_underflow": one(1e-300, m=1e-200, p=1e-200),
        "two_positive": two(q, [[2.0, 1.0], [1.0, 2.0]]),
        "two_negative": two(q, [[2.0, -1.0], [-1.0, 2.0]]),
        "two_disconnected": two(mg.Zero(), [[1.0, 1.0], [1.0, 1.0]]),
    }


@pytest.mark.parametrize("case", sorted(tail_cases()))
def test_confining_verdict_is_positive_modulus_and_connected_tail(case):
    pm, params = tail_cases()[case]
    report = confining_check(pm, params)
    assert report.verdict == (report.lambda0_tilde > 0.0 and report.irreducible_at_distance)
    if case == "one_underflow":
        assert report.lambda0_tilde == 0.0 and not report.verdict


def test_confining_check_disconnected_tail():
    # cross-interaction vanishes identically: the far-field graph is
    # disconnected, so the system cannot be confining as a whole
    q = mg.Quadratic(1.0)
    pm = mg.matrix_from_entries([[q, mg.Zero()], [None, q]],
                                kappa=np.array([[1.0, 0.0], [0.0, 1.0]]),
                                confining=mg.ConfiningSpec(1.0, np.array([[1.0, 1.0], [1.0, 1.0]])))
    report = confining_check(pm, params_n(2))
    assert not report.irreducible_at_distance
    assert not report.verdict


def test_confining_check_requires_spec():
    pm = mg.matrix_from_entries([[mg.Quadratic(1.0)]], kappa=[[1.0]])
    with pytest.raises(ValueError):
        confining_check(pm, params_n(1))


def test_eta_tilde_uses_masses_not_mobilities():
    # distinguishable only when m != p
    c = np.array([[0.0, 1.0], [1.0, 0.0]])
    params = mg.SystemParams(m=[1.0, 10.0], p=[1.0, 2.0], E=[0.0])
    q = mg.Quadratic(1.0)
    pm = mg.matrix_from_entries([[q, q], [None, q]], kappa=c,
                                confining=mg.ConfiningSpec(1.0, c))
    report = confining_check(pm, params)
    # eta_tilde_0 = C_01 * p_1 = 2 (with mobilities it would be 10)
    assert report.eta_tilde.tolist() == [2.0, 1.0]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3),
       st.floats(0.01, 100.0))
def test_lambda0_scale_covariance(tri, c):
    kappa = np.array([[tri[0], tri[1]], [tri[1], tri[2]]])
    params = params_n(2)
    base = lambda0(kappa, params).lambda0
    scaled = lambda0(c * kappa, params).lambda0
    assert scaled == pytest.approx(c * base, rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10 ** 6))
def test_lambda0_permutation_invariance(n, seed):
    rng = np.random.default_rng(seed)
    kappa = rng.uniform(-3.0, 3.0, size=(n, n))
    kappa = (kappa + kappa.T) / 2.0
    m = rng.uniform(0.1, 3.0, size=n)
    p = rng.uniform(0.1, 3.0, size=n)
    perm = rng.permutation(n)
    base = lambda0(kappa, mg.SystemParams(m=m, p=p, E=[0.0])).lambda0
    permuted = lambda0(kappa[np.ix_(perm, perm)],
                       mg.SystemParams(m=m[perm], p=p[perm], E=[0.0])).lambda0
    assert permuted == pytest.approx(base, rel=1e-12, abs=1e-12)


def centred_hessian_floor(a, m, p, M):
    """Smallest eigenvalue of the discrete energy's Hessian on centre-preserving directions,
    in the metric G = diag(w_ik / m_i), for W_ij = a_ij z^2 / 2 on M cells of weight
    w_ik = p_i / M.

    The energy (1/4) sum_IJ A_IJ (x_I - x_J)^2 with A_(ik),(jl) = w_ik w_jl a_ij has
    Hessian H = diag(A 1) - A whatever the state.  The centre sum_I G_I x_I is fixed on
    the G-orthogonal complement of 1, which is the complement of G^(1/2) 1 in the
    coordinates G^(1/2) x.
    """
    species = np.repeat(np.arange(len(m)), M)
    w = np.asarray(p)[species] / M
    A = np.outer(w, w) * np.asarray(a)[np.ix_(species, species)]
    H = np.diag(A.sum(axis=1)) - A
    root = np.sqrt(w / np.asarray(m)[species])
    S = H / np.outer(root, root)
    basis = np.linalg.svd(root[None, :])[2][1:]  # orthonormal complement of G^(1/2) 1
    return float(np.linalg.eigvalsh(basis @ S @ basis.T).min())


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(2, 5))
def test_modulus_is_a_floor_of_the_centred_hessian_of_quadratic_systems(data, n, M):
    # For all-quadratic kernels with kappa = a the declared convexity is exact, so
    # the floor is often attained: a modulus above it by more than roundoff is wrong.
    upper = data.draw(st.lists(st.floats(-2.0, 3.0), min_size=n * (n + 1) // 2,
                               max_size=n * (n + 1) // 2))
    a = np.zeros((n, n))
    a[np.triu_indices(n)] = upper
    a = a + np.triu(a, 1).T
    m, p = (data.draw(st.lists(st.floats(0.2, 3.0), min_size=n, max_size=n)) for _ in "mp")
    lam = lambda0(a, mg.SystemParams(m=m, p=p, E=[0.0])).lambda0
    assert lam <= centred_hessian_floor(a, m, p, M) + 1e-12 * max(1.0, abs(lam))


def test_two_species_reduced_formula():
    # for n = 2, m = p = 1: modulus = min(k11, k12, k22) + k12
    rng = np.random.default_rng(42)
    params = params_n(2)
    for _ in range(1000):
        k11, k12, k22 = rng.uniform(-4.0, 4.0, size=3)
        kappa = np.array([[k11, k12], [k12, k22]])
        reduced = min(k11, k12, k22) + k12
        assert lambda0(kappa, params).lambda0 == pytest.approx(reduced, rel=1e-12, abs=1e-12)


def test_necessary_condition_implied_by_positive_modulus():
    rng = np.random.default_rng(123)
    checked = 0
    for _ in range(10 ** 4):
        n = int(rng.integers(2, 5))
        kappa = rng.uniform(-3.0, 3.0, size=(n, n))
        kappa = (kappa + kappa.T) / 2.0
        m = rng.uniform(0.1, 3.0, size=n)
        p = rng.uniform(0.1, 3.0, size=n)
        params = mg.SystemParams(m=m, p=p, E=[0.0])
        if lambda0(kappa, params).lambda0 > 0.0:
            checked += 1
            assert necessary_condition(kappa, params).all()
    assert checked > 100  # the sample actually exercises the implication


def test_analyze_system_full_report(two_species_attractive):
    pm, params = two_species_attractive
    report = analyze_system(pm, params)
    assert report.lambda0 == 2.0
    assert report.eta.tolist() == [1.0, 1.0]
    assert report.necessary_ok.all()
    assert report.irreducible
    assert report.confining is None
