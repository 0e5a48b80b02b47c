"""Quadratic forms, density normalization, and the minimum scan."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings

from polynormal.charfn import forward_cf
from polynormal.decompose import decompose, precheck
from polynormal.errors import (
    DimensionMismatch,
    NegativeDensity,
    NotPositiveDefinite,
    NotSymmetric,
    ZeroIntegral,
)
from polynormal.pnd import (
    WHITEN_TOL,
    SearchBudget,
    _gauss_scale,
    density,
    density_many,
    find_min_poly,
    integral_quadrature,
    make_pnd,
    make_quadform,
    minimize_polynomial,
    pnd_from_dict,
    pnd_to_dict,
    polish_minimum,
)
from polynormal.polyalg import HermiteCoeffs, Polynomial, affine_substitute, to_hermite
from polynormal.verify import convolution_check

from conftest import FAST_BUDGET, eligible_quartic_poly, polynomials, random_pd_matrix, random_pnd


def test_quadform_identity():
    qf = make_quadform(np.eye(2))
    assert np.allclose(qf.whitener, np.eye(2))


def test_quadform_diagonal():
    qf = make_quadform(np.diag([4.0, 1.0]))
    assert np.allclose(qf.whitener, np.diag([0.5, 1.0]))
    assert np.max(np.abs(qf.whitener.T @ qf.matrix @ qf.whitener - np.eye(2))) <= 1e-10


def test_quadform_indefinite_rejected():
    with pytest.raises(NotPositiveDefinite):
        make_quadform([[1.0, 2.0], [2.0, 1.0]])


def test_quadform_asymmetric_rejected():
    with pytest.raises(NotSymmetric):
        make_quadform([[1.0, 0.1], [0.0, 1.0]])


def test_quadform_random_whitening_residual():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        qf = make_quadform(random_pd_matrix(rng, d))
        assert np.max(np.abs(qf.whitener.T @ qf.matrix @ qf.whitener - np.eye(d))) <= 1e-10


def test_whitening_and_scans_run_on_one_core():
    # A BLAS call that wakes OpenBLAS's worker threads leaves them spinning,
    # so the process would use about two CPU seconds per second of wall time.
    A = random_pd_matrix(np.random.default_rng(3), 3)
    p = Polynomial.from_terms(3, {(4, 0, 0): 1.0, (0, 4, 0): 1.0, (0, 0, 4): 1.0, (2, 1, 0): -1.0, (0, 0, 0): 1.0})
    budget = SearchBudget(doublings=0, starts=2, grid_points=0)
    minimize_polynomial(p, budget)  # builds the evaluation table outside the timing
    cpu, wall = time.process_time(), time.perf_counter()
    while time.perf_counter() - wall < 0.3:
        make_quadform(A)
        minimize_polynomial(p, budget)
    assert (time.process_time() - cpu) / (time.perf_counter() - wall) <= 1.5


def test_make_pnd_reference_quartic_norm(example4_pnd):
    assert example4_pnd.norm_const == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_make_pnd_standard_normal():
    pnd = make_pnd(Polynomial.constant(2, 1.0), np.eye(2), np.zeros(2))
    assert pnd.norm_const == pytest.approx(1.0, abs=1e-14)


def test_make_pnd_1d_quadratic():
    pnd = make_pnd(Polynomial.from_terms(1, {(2,): 1.0, (0,): 1.0}), [[1.0]], [0.0])
    assert pnd.norm_const == pytest.approx(0.5, abs=1e-14)


def test_make_pnd_rejects_negative_polynomial():
    p = Polynomial.from_terms(1, {(2,): 1.0, (0,): -1.0})
    with pytest.raises(NegativeDensity) as err:
        make_pnd(p, [[1.0]], [0.0])
    assert err.value.value < -1e-9


def test_make_pnd_rejects_odd_degree():
    with pytest.raises(ValueError):
        make_pnd(Polynomial.from_terms(1, {(3,): 1.0, (0,): 5.0}), [[1.0]], [0.0])


def test_make_pnd_accepts_zero_touching_polynomial():
    pnd = make_pnd(Polynomial.from_terms(1, {(2,): 1.0}), [[1.0]], [0.0])
    assert pnd.norm_const == pytest.approx(1.0, abs=1e-14)


def test_make_pnd_rejects_nonpositive_mass():
    # sits above the negativity gate but cannot carry unit mass
    p = Polynomial.constant(1, -1e-10)
    with pytest.raises(ZeroIntegral):
        make_pnd(p, [[1.0]], [0.0])


def test_density_reference_quartic_at_origin(example4_pnd):
    assert density(example4_pnd, [0.0, 0.0]) == pytest.approx(1.0 / (6.0 * math.pi), rel=1e-12)


def test_density_standard_normal_origin():
    pnd = make_pnd(Polynomial.constant(1, 1.0), [[1.0]], [0.0])
    assert density(pnd, [0.0]) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-12)


def test_density_reference_quartic_off_origin(example4_pnd):
    expected = (1.0 / (6.0 * math.pi)) * 0.25 * math.exp(-4.25 / 2.0)
    assert density(example4_pnd, [2.0, 0.5]) == pytest.approx(expected, rel=1e-12)


def test_find_min_poly_x_squared():
    pnd = make_pnd(Polynomial.from_terms(1, {(2,): 1.0}), [[1.0]], [0.0])
    res = find_min_poly(pnd)
    assert res.attained
    assert abs(res.value) <= 1e-12
    assert abs(res.point[0]) <= 1e-6


def test_find_min_poly_shifted_quadratic():
    pnd = make_pnd(Polynomial.from_terms(1, {(2,): 1.0, (0,): 1.0}), [[1.0]], [0.0])
    res = find_min_poly(pnd)
    assert res.attained
    assert res.value == pytest.approx(1.0, abs=1e-10)


def test_find_min_poly_infimum_not_attained(example4_pnd):
    res = find_min_poly(example4_pnd)
    assert not res.attained
    assert res.value <= 1e-3
    assert np.sum(np.abs(res.point)) >= 30.0


def test_minimize_known_quadratic_minima():
    rng = np.random.default_rng(6)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        A = random_pd_matrix(rng, d)
        center = rng.uniform(-2.0, 2.0, size=d)
        c = rng.uniform(0.5, 3.0)
        # (x - center)' A (x - center) + c as an expanded polynomial
        terms = {}
        for i in range(d):
            for j in range(d):
                alpha = [0] * d
                alpha[i] += 1
                alpha[j] += 1
                terms[tuple(alpha)] = terms.get(tuple(alpha), 0.0) + A[i, j]
        lin = -2.0 * A @ center
        for i in range(d):
            alpha = tuple(1 if k == i else 0 for k in range(d))
            terms[alpha] = terms.get(alpha, 0.0) + lin[i]
        terms[(0,) * d] = terms.get((0,) * d, 0.0) + center @ A @ center + c
        res = minimize_polynomial(Polynomial.from_terms(d, terms))
        assert res.attained
        assert res.value == pytest.approx(c, abs=1e-6)
        assert np.max(np.abs(res.point - center)) <= 1e-4


def test_integral_is_one_for_random_pnds():
    rng = np.random.default_rng(7)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        pnd = random_pnd(rng, d)
        assert integral_quadrature(pnd) == pytest.approx(1.0, abs=1e-6)
    # degree-8 instances at every dimension
    for d in (1, 2, 3):
        pnd = random_pnd(rng, d, half_degree=4)
        assert integral_quadrature(pnd) == pytest.approx(1.0, abs=1e-6)


def test_density_nonnegative_at_random_points():
    rng = np.random.default_rng(8)
    for _ in range(5):
        d = int(rng.integers(1, 4))
        pnd = random_pnd(rng, d)
        pts = rng.uniform(-6.0, 6.0, size=(10_000, d))
        assert np.min(density_many(pnd, pts)) >= -1e-12


def test_whitening_pointwise_identity():
    rng = np.random.default_rng(9)
    for _ in range(5):
        d = int(rng.integers(1, 4))
        pnd = random_pnd(rng, d)
        L = pnd.form.whitener
        A = pnd.form.matrix
        b = pnd.shift
        q = pnd.whitened
        us = rng.uniform(-3.0, 3.0, size=(50, d))
        for u in us:
            x = L @ u + b
            lhs = pnd.norm_const * pnd.poly.eval(x) * math.exp(-0.5 * (x - b) @ A @ (x - b))
            rhs = q.eval(u) * math.exp(-0.5 * u @ u)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-300)


@settings(max_examples=40, deadline=None)
@given(polynomials(max_degree=3))
def test_a_density_carries_its_whitening_and_hermite_coefficients(case):
    # q^2 + 1: even degree <= 6, positive.
    q, rng = case
    d = q.dim
    pnd = make_pnd(q * q + Polynomial.constant(d, 1.0), random_pd_matrix(rng, d), rng.uniform(-1.0, 1.0, d), FAST_BUDGET)
    W = affine_substitute(pnd.poly, pnd.form.whitener, pnd.shift)
    assert pnd.whitened.terms.dense().tobytes() == (pnd.norm_const * W).terms.dense().tobytes()
    # The expansion made for beta_0, scaled: beta_0 of the normalized one is 1.
    scaled = HermiteCoeffs.from_coeffs(d, {a: pnd.norm_const * c for a, c in to_hermite(W).coeffs.items()})
    assert pnd.hermite.coeffs.dense().tobytes() == scaled.coeffs.dense().tobytes()
    assert pnd.hermite.coefficient((0,) * d) == pytest.approx(1.0, abs=1e-15)


def test_a_density_expands_its_hermite_coefficients_once_when_built(hermite_calls):
    # Each density built expands its whitening once, for beta_0, and keeps
    # that expansion; reading it, by precheck, forward_cf or decompose,
    # expands nothing more.
    pnd = make_pnd(eligible_quartic_poly(), np.array([[2.0, 0.3], [0.3, 1.0]]), np.array([0.2, -0.1]), FAST_BUDGET)
    assert len(hermite_calls) == 1
    precheck(pnd, FAST_BUDGET)
    forward_cf(pnd)
    assert len(hermite_calls) == 1
    dec = decompose(pnd, theta=0.95, budget=FAST_BUDGET)
    assert len(hermite_calls) == 2  # factor_Y's, as it is built
    hermite_calls.clear()
    # verify-conv's work: reload f and factor_Y, promote factor_Z.
    f, y = (pnd_from_dict(pnd_to_dict(g), FAST_BUDGET) for g in (pnd, dec.factor_Y))
    convolution_check(f, y, dec.factor_Z, np.zeros((1, 2)))
    assert len(hermite_calls) == 3
    assert forward_cf(f).beta.terms.dense().tobytes() == forward_cf(pnd).beta.terms.dense().tobytes()
    assert len(hermite_calls) == 3


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_a_quadform_keeps_its_root_and_determinant(dim):
    rng = np.random.default_rng(dim)
    for _ in range(5):
        A = random_pd_matrix(rng, dim)
        form = make_quadform(A)
        assert np.max(np.abs(form.root @ form.root.T - A)) <= 1e-14 * np.max(np.abs(A))
        assert form.whitener.tobytes() == np.linalg.inv(form.root).T.tobytes()
        sqrt_det = math.sqrt(np.linalg.det(A))
        assert form.sqrt_det == pytest.approx(sqrt_det, rel=1e-14)
        unit = make_pnd(Polynomial.constant(dim, 1.0), A, np.zeros(dim), FAST_BUDGET)
        assert _gauss_scale(unit) * (2.0 * math.pi) ** (dim / 2.0) == pytest.approx(sqrt_det, rel=1e-14)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_a_quadform_inverse_is_read_from_its_factors(dim):
    rng = np.random.default_rng(10 + dim)
    for _ in range(5):
        form = make_quadform(random_pd_matrix(rng, dim))
        inv = form.inverse()
        assert np.max(np.abs(inv.root @ inv.root.T - inv.matrix)) <= 1e-14 * np.max(np.abs(inv.matrix))
        assert np.max(np.abs(inv.whitener.T @ inv.matrix @ inv.whitener - np.eye(dim))) <= WHITEN_TOL
        assert form.sqrt_det * inv.sqrt_det == pytest.approx(1.0, abs=1e-14)
        back = inv.inverse()
        assert back.root.tobytes() == form.root.tobytes()
        assert back.whitener.tobytes() == form.whitener.tobytes()


def test_quadform_rejects_a_matrix_whose_eigenvalues_round_to_zero():
    # v v' for one vector v: its smallest computed eigenvalue is 0, so it
    # has no square root to whiten with.
    A = [[0.3739024274507989, -0.1754529257910946], [-0.1754529257910946, 0.08233091552396012]]
    with pytest.raises(NotPositiveDefinite):
        make_quadform(A)


@pytest.mark.parametrize("A", [[[math.nan]], [[math.inf]], [[1.0, math.nan], [math.nan, 1.0]]])
def test_quadform_rejects_a_matrix_that_is_not_finite(A):
    with pytest.raises(NotPositiveDefinite):
        make_quadform(A)


def test_pnd_json_roundtrip(example4_pnd):
    data = pnd_to_dict(example4_pnd)
    back = pnd_from_dict(data, FAST_BUDGET)
    assert back.poly.max_abs_coeff_diff(example4_pnd.poly) == 0.0
    assert np.array_equal(back.form.matrix, example4_pnd.form.matrix)
    assert back.norm_const == example4_pnd.norm_const


def test_density_dimension_mismatch(example4_pnd):
    with pytest.raises(DimensionMismatch):
        density(example4_pnd, [1.0])


def test_budget_is_deterministic(example4_pnd):
    r1 = find_min_poly(example4_pnd, SearchBudget(seed=3))
    r2 = find_min_poly(example4_pnd, SearchBudget(seed=3))
    assert r1.value == r2.value
    assert np.array_equal(r1.point, r2.point)


@pytest.mark.parametrize(
    "field, value",
    [
        ("doublings", -1),
        ("doublings", 2.5),
        ("doublings", True),
        ("starts", -2),
        ("grid_points", -3),
        ("grid_points", 1),
        ("grid_points", 5),
        ("grid_points", 7),
        ("seed", -1),
        ("seed", 1.5),
    ],
)
def test_malformed_budget_is_rejected_naming_the_field(field, value):
    with pytest.raises(ValueError, match=f"SearchBudget.{field}"):
        SearchBudget(**{field: value})


def test_a_box_whose_degree_th_power_overflows_is_rejected():
    # (2**127)**8 is finite and (2**128)**8 is not.  Warnings are errors in
    # the suite, so the accepted scan and polish must raise none.
    p = Polynomial.from_terms(2, {(8, 0): 1.0, (0, 8): 1.0, (1, 1): -1.0})
    corner = np.full((1, 2), 2.0**127)
    result = minimize_polynomial(p, SearchBudget(doublings=127))
    assert result.attained and result.value == pytest.approx(-0.375, rel=1e-12)
    assert np.all(np.isfinite(polish_minimum(p, corner, SearchBudget(doublings=127))[1]))
    for doublings in (128, 130):
        with pytest.raises(ValueError, match="SearchBudget.doublings"):
            minimize_polynomial(p, SearchBudget(doublings=doublings))
        with pytest.raises(ValueError, match="SearchBudget.doublings"):
            polish_minimum(p, corner, SearchBudget(doublings=doublings))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("degree, dim, last", [
    (1, 1, 1022), (1, 2, 1022), (1, 3, 1022), (1, 4, 1021), (1, 5, 1021),
    (2, 1, 510), (2, 2, 510), (2, 3, 510), (2, 4, 509), (2, 5, 509),
])
def test_a_box_whose_diameter_overflows_is_rejected(degree, dim, last):
    # 1 + x1 and 1 - x1^2 (a maximum at 0, so the search turns there).  The
    # box's diameter 2 * 2**doublings * sqrt(dim) must be finite, and for
    # degree 2 its square too, before (2**doublings)**degree overflows.
    p = Polynomial.from_terms(dim, {(0,) * dim: 1.0, (degree,) + (0,) * (dim - 1): (-1.0) ** (degree + 1)})
    radius = 2.0**last
    result = minimize_polynomial(p, SearchBudget(doublings=last))
    assert result.value == 1.0 - radius**degree
    assert np.all(np.isfinite(polish_minimum(p, np.full((1, dim), radius), SearchBudget(doublings=last))[1]))
    with pytest.raises(ValueError, match="SearchBudget.doublings"):
        minimize_polynomial(p, SearchBudget(doublings=last + 1))
    with pytest.raises(ValueError, match="SearchBudget.doublings"):
        polish_minimum(p, np.zeros((1, dim)), SearchBudget(doublings=last + 1))
