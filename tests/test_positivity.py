"""Axis condition, infimum estimates, and the perturbation radius."""

import itertools

import numpy as np
import pytest

from polynormal import positivity
from polynormal.errors import ConditionFailed
from polynormal.pnd import SearchBudget
from polynormal.polyalg import Polynomial, affine_substitute
from polynormal.positivity import (
    _Ratio,
    check_condition_337,
    epsilon_bound,
    estimate_inf_b,
    index_count,
    leading_axis_coeffs,
)

from conftest import all_multiindices, eligible_quartic_poly, example4_poly, random_signed_poly
from polyref import estimate_inf_b_ref, eval_ref, grad_eval_ref, hessian_eval_ref


def test_leading_axis_coeffs_reference_quartic():
    assert np.array_equal(leading_axis_coeffs(example4_poly()), [0.0, 0.0])


def test_leading_axis_coeffs_separable_quartic():
    p = Polynomial.from_terms(2, {(4, 0): 1.0, (0, 4): 1.0, (0, 0): 1.0})
    assert np.array_equal(leading_axis_coeffs(p), [1.0, 1.0])


def test_leading_axis_coeffs_1d():
    p = Polynomial.from_terms(1, {(6,): 3.0, (1,): -1.0, (0,): 2.0})
    assert np.array_equal(leading_axis_coeffs(p), [3.0])


def test_leading_axis_coeffs_odd_degree_rejected():
    with pytest.raises(ValueError):
        leading_axis_coeffs(Polynomial.from_terms(1, {(3,): 1.0}))


def test_condition_337_reference_quartic_fails():
    assert not check_condition_337(example4_poly())


def test_condition_337_eligible_quartic():
    assert check_condition_337(eligible_quartic_poly())


def test_condition_337_missing_axis_power():
    p = Polynomial.from_terms(2, {(4, 0): 1.0, (0, 2): 1.0})
    assert not check_condition_337(p)


def test_inf_b_quadratic_identity_ratio():
    p = Polynomial.from_terms(1, {(2,): 1.0, (0,): 1.0})
    inf_b, radius = estimate_inf_b(p)
    assert inf_b == pytest.approx(1.0, abs=1e-4)
    assert radius > 0.0


def test_inf_b_quartic_identity_ratio():
    p = Polynomial.from_terms(1, {(4,): 1.0, (0,): 1.0})
    inf_b, _ = estimate_inf_b(p)
    assert inf_b == pytest.approx(1.0, abs=1e-4)


def test_inf_b_with_interior_dip():
    # ratio (x^2 - x + 1)/(1 + x^2) has stationary values 1/2 at x=1, 3/2 at x=-1
    p = Polynomial.from_terms(1, {(2,): 1.0, (1,): -1.0, (0,): 1.0})
    inf_b, _ = estimate_inf_b(p)
    assert inf_b == pytest.approx(0.5, abs=1e-3)


def test_inf_b_requires_condition():
    with pytest.raises(ConditionFailed):
        estimate_inf_b(example4_poly())


def test_index_count_values():
    assert index_count(1, 2) == 3
    assert index_count(1, 4) == 5
    assert index_count(2, 4) == 15


def test_epsilon_bound_quadratic():
    report = epsilon_bound(Polynomial.from_terms(1, {(2,): 1.0, (0,): 1.0}))
    assert report.condition337
    assert report.index_count == 3
    assert report.inf_a_lower == pytest.approx(1.0 / 16.0, abs=1e-4)
    assert report.epsilon == pytest.approx(0.05625, abs=1e-4)
    assert report.epsilon < report.inf_a_lower


def test_epsilon_bound_quartic():
    report = epsilon_bound(Polynomial.from_terms(1, {(4,): 1.0, (0,): 1.0}))
    assert report.index_count == 5
    assert report.inf_a_lower == pytest.approx(1.0 / 96.0, abs=1e-4)


def test_epsilon_bound_failing_condition_degrades():
    report = epsilon_bound(example4_poly())
    assert not report.condition337
    assert report.epsilon == 0.0
    assert report.inf_b == 0.0
    assert report.inf_a_lower == 0.0


def test_scaling_covariance():
    p = eligible_quartic_poly()
    base = epsilon_bound(p)
    for lam in (0.5, 3.0, 10.0):
        scaled = epsilon_bound(lam * p)
        assert scaled.condition337
        assert scaled.inf_b == pytest.approx(lam * base.inf_b, rel=1e-12)
        assert scaled.search_radius == pytest.approx(base.search_radius, rel=1e-9)


def _box_grid(radius, per_axis=21):
    axes = [np.linspace(-radius, radius, per_axis)] * 2
    return np.array(list(itertools.product(*axes)))


def test_perturbation_soundness():
    p = eligible_quartic_poly()
    report = epsilon_bound(p)
    assert report.epsilon > 0.0
    rng = np.random.default_rng(14)
    indices = all_multiindices(2, p.degree)
    radius = report.search_radius
    box = _box_grid(radius)
    exterior = rng.uniform(-4.0 * radius, 4.0 * radius, size=(40_000, 2))
    exterior = exterior[np.max(np.abs(exterior), axis=1) > radius][:10_000]
    assert len(exterior) == 10_000
    for _ in range(200):
        delta = {
            alpha: rng.uniform(-1.0, 1.0) * report.epsilon * 0.999 for alpha in indices
        }
        w = p + Polynomial.from_terms(2, delta, eps=0.0)
        assert np.min(w.eval_many(box)) > 0.0
        assert np.min(w.eval_many(exterior)) > 0.0


def _random_affine(rng, dim, max_cond=10.0):
    """Well-conditioned random affine map (condition number <= max_cond)."""
    q1, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    q2, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    smax = rng.uniform(0.5, 2.0)
    svals = smax * rng.uniform(1.0 / max_cond, 1.0, size=dim)
    svals[0] = smax
    F = q1 @ np.diag(svals) @ q2
    return F, rng.uniform(-2.0, 2.0, size=dim)


def _random_definite_top_poly(rng, dim, two_m, sign):
    """Random polynomial whose top form is sign-definite.

    Top form: positive combination of even monomials including every axis
    power (pointwise >= b0 ||x||_{2m}^{2m}), times the sign; lower-order
    terms arbitrary.
    """
    terms = {}
    for alpha in all_multiindices(dim, two_m):
        if sum(alpha) == two_m and all(a % 2 == 0 for a in alpha):
            terms[alpha] = sign * rng.uniform(0.5, 2.0)
        elif sum(alpha) < two_m:
            terms[alpha] = rng.uniform(-1.0, 1.0)
    return Polynomial.from_terms(dim, terms)


def test_condition_verdict_affine_invariant():
    rng = np.random.default_rng(15)
    polys = [_random_definite_top_poly(rng, 2, 4, +1.0) for _ in range(5)]
    polys += [_random_definite_top_poly(rng, 2, 4, -1.0) for _ in range(5)]
    for p in polys:
        verdict = check_condition_337(p)
        for _ in range(50):
            F, b = _random_affine(rng, 2)
            assert check_condition_337(affine_substitute(p, F, b)) == verdict


def test_inf_a_lower_is_sound_pointwise():
    rng = np.random.default_rng(16)
    for p in (eligible_quartic_poly(), Polynomial.from_terms(1, {(2,): 1.0, (0,): 1.0})):
        report = epsilon_bound(p)
        d = p.dim
        two_m = p.degree
        pts = rng.uniform(-6.0, 6.0, size=(10_000, d))
        denom = np.ones(len(pts))
        for alpha in all_multiindices(d, two_m):
            if sum(alpha) > 0:
                denom += np.prod(np.abs(pts) ** np.array(alpha), axis=1)
        ratio = p.eval_many(pts) / denom
        assert report.inf_a_lower <= np.min(ratio) + 1e-12


# -- the search against the grid it replaced ----------------------------------


def _eligible_poly(rng, dim, degree):
    """Positive constant + sum_j w_j x_j^degree + two random squares of half
    the degree: positive, with the axis condition."""
    terms = {(0,) * dim: rng.uniform(0.5, 1.5)}
    for j in range(dim):
        terms[tuple(degree if k == j else 0 for k in range(dim))] = rng.uniform(0.5, 1.5)
    p = Polynomial.from_terms(dim, terms)
    for _ in range(2):
        q = Polynomial.from_terms(
            dim, {alpha: rng.uniform(-0.5, 0.5) for alpha in all_multiindices(dim, degree // 2)}
        )
        p = p + q * q
    return p


def _near_tied_wells(dim, tilt):
    """(x1^2 - 1)^2 + x2^2 + ... + 0.1 + tilt x1: two wells at x1 = +-1 whose
    ratios differ by about the tilt."""
    terms = {(0,) * dim: 1.1, (4,) + (0,) * (dim - 1): 1.0, (2,) + (0,) * (dim - 1): -2.0}
    terms[(1,) + (0,) * (dim - 1)] = tilt
    for j in range(1, dim):
        terms[tuple(2 if k == j else 0 for k in range(dim))] = 1.0
        terms[tuple(4 if k == j else 0 for k in range(dim))] = 0.5
    return Polynomial.from_terms(dim, terms, eps=0.0)


def _last_bit_pair():
    """An eligible d = 2 quartic, and the same with its constant term one unit
    in the last place higher: the grid's infimum estimates of the two differ
    by 4 %."""
    p = _eligible_poly(np.random.default_rng(645147212), 2, 4)
    terms = dict(p.terms)
    terms[(0, 0)] = np.nextafter(terms[(0, 0)], np.inf)
    return [p, Polynomial.from_terms(2, terms, eps=0.0)]


def _families():
    rng = np.random.default_rng(2024)
    polys = [
        _eligible_poly(rng, dim, degree)
        for dim in (1, 2, 3)
        for degree in (2, 4, 6, 8)
        for _ in range(2)
    ]
    polys += [_near_tied_wells(dim, tilt) for dim in (1, 2, 3) for tilt in (0.0, 1e-15, -1e-12, 1e-9)]
    polys += _last_bit_pair()
    return polys


FAMILIES = _families()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_inf_b_finds_the_well_the_grid_missed(dim):
    # The ratio is 0.05 at x = (1, 0, ...); far out it tends to 0.5, where the
    # grid that came before this search ended up.
    assert epsilon_bound(_near_tied_wells(dim, 0.0)).inf_b <= 0.051


def test_inf_b_is_stable_under_a_last_bit_change():
    p, q = _last_bit_pair()
    assert epsilon_bound(q).inf_b == pytest.approx(epsilon_bound(p).inf_b, rel=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_inf_b_of_a_constant(dim):
    assert epsilon_bound(Polynomial.constant(dim, 3.0)).inf_b == 3.0 / (1 + dim)


@pytest.mark.parametrize("index", range(len(FAMILIES)))
def test_inf_b_is_no_higher_than_the_grid(index):
    p = FAMILIES[index]
    grid, _ = estimate_inf_b_ref(p)
    # Up to rounding: both may find the same minimum, where the local search
    # stops once the decrease it predicts is below the rounding of the ratio.
    assert epsilon_bound(p).inf_b <= grid * (1.0 + 1e-12)


def _bytes(*values):
    return [np.asarray(v, dtype=float).tobytes() for v in values]


@pytest.mark.parametrize("index", range(len(FAMILIES)))
def test_epsilon_bound_keeps_the_scipy_bits(monkeypatch, index):
    # Only the infimum's search changed: with the scipy grid put back in its
    # place, the report carries that search's inf_b and radius, and the chain
    # from inf_b to epsilon gives the bits it gave with the grid.
    p = FAMILIES[index]
    inf_b, radius = estimate_inf_b_ref(p)
    monkeypatch.setattr(positivity, "estimate_inf_b", estimate_inf_b_ref)
    report = epsilon_bound(p)
    inf_a_lower = inf_b / ((1.0 + index_count(p.dim, p.degree)) * (1.0 + p.dim) ** p.degree)
    expected = {"inf_b": inf_b, "inf_a_lower": inf_a_lower, "epsilon": 0.9 * inf_a_lower, "search_radius": radius}
    for field, value in expected.items():
        assert _bytes(getattr(report, field)) == _bytes(value), field


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("degree", [0, 2, 4, 8])
def test_ratio_jet_is_the_quotient_of_the_reference_derivatives(dim, degree):
    rng = np.random.default_rng(10 * dim + degree)
    q = random_signed_poly(rng, dim, degree)
    den = Polynomial.constant(dim, 1.0)
    for j in range(dim):
        den = den + Polynomial.from_terms(dim, {tuple(degree if k == j else 0 for k in range(dim)): 1.0})
    pts = rng.uniform(-2.0, 2.0, size=(6, dim))
    r, g, H, mag = _Ratio(q)._jet(pts)
    q_mag = q._jet(pts)[3]
    for i, x in enumerate(pts):
        Q, D = eval_ref(q, x), eval_ref(den, x)
        gQ, gD = grad_eval_ref(q, x), grad_eval_ref(den, x)
        HQ, HD = hessian_eval_ref(q, x), hessian_eval_ref(den, x)
        ref_g = gQ / D - Q * gD / D**2
        ref_H = (HQ - Q * HD / D) / D - (np.outer(gQ, gD) + np.outer(gD, gQ)) / D**2 + 2.0 * Q * np.outer(gD, gD) / D**3
        scale = q_mag[i] / D * (1.0 + np.abs(gD).max()) ** 2
        assert r[i] == pytest.approx(Q / D, rel=1e-12, abs=1e-12 * scale)
        assert np.allclose(g[i], ref_g, rtol=1e-10, atol=1e-12 * scale)
        assert np.allclose(H[i], ref_H, rtol=1e-10, atol=1e-12 * scale)
        assert mag[i] == pytest.approx(q_mag[i] / D, rel=1e-14)


@pytest.mark.parametrize("degree", [0, 2, 4, 8])
def test_ratio_slope_numerator_is_the_derivative_times_the_squared_denominator(degree):
    # R' (1 + x^{2m})^2 at random points, from the reference derivatives:
    # the numerator's roots are R's stationary points and its sign is R''s.
    rng = np.random.default_rng(40 + degree)
    q = random_signed_poly(rng, 1, degree)
    num = _Ratio(q)._slope_numerator()
    assert len(num) <= max(2 * degree - 1, 1)  # the x^{4m-1} terms cancel
    for x in rng.uniform(-2.0, 2.0, size=(6, 1)):
        D = 1.0 + x[0] ** degree
        expected = grad_eval_ref(q, x)[0] * D - eval_ref(q, x) * degree * x[0] ** max(degree - 1, 0)
        scale = float(np.sum(np.abs(num))) * 2.0 ** len(num)
        assert np.polynomial.polynomial.polyval(x[0], num) == pytest.approx(expected, abs=1e-13 * scale)


@pytest.mark.parametrize("index", [i for i, p in enumerate(FAMILIES) if p.dim == 1])
def test_a_one_variable_infimum_search_ignores_the_seed_starts_and_grid(index):
    p = FAMILIES[index]
    base = estimate_inf_b(p)
    for seed, starts in itertools.product((0, 7, 123), (None, 0, 5)):
        budget = SearchBudget(starts=starts, seed=seed)
        assert _bytes(*estimate_inf_b(p, budget)) == _bytes(*base), budget
