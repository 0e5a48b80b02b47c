"""Axis condition, infimum estimates, and the perturbation radius."""

import itertools
import math

import numpy as np
import pytest
from scipy import optimize

from polynormal import positivity
from polynormal.errors import ConditionFailed
from polynormal.polyalg import Polynomial, affine_substitute
from polynormal.positivity import (
    _brent_root,
    _nelder_mead,
    _tail_radius,
    check_condition_337,
    epsilon_bound,
    estimate_inf_b,
    index_count,
    leading_axis_coeffs,
)

from conftest import all_multiindices, eligible_quartic_poly, example4_poly
from polyref import ratio_min_on_ball_ref, tail_radius_ref


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


def _l1_ball_grid(radius, per_axis=21):
    axes = [np.linspace(-radius, radius, per_axis)] * 2
    pts = np.array(list(itertools.product(*axes)))
    return pts[np.sum(np.abs(pts), axis=1) <= radius]


def test_perturbation_soundness():
    p = eligible_quartic_poly()
    report = epsilon_bound(p)
    assert report.epsilon > 0.0
    rng = np.random.default_rng(14)
    indices = all_multiindices(2, p.degree)
    ball = _l1_ball_grid(report.search_radius)
    exterior = rng.uniform(-8.0, 8.0, size=(40_000, 2))
    exterior = exterior[np.sum(np.abs(exterior), axis=1) > report.search_radius][:10_000]
    assert len(exterior) == 10_000
    for _ in range(200):
        delta = {
            alpha: rng.uniform(-1.0, 1.0) * report.epsilon * 0.999 for alpha in indices
        }
        w = p + Polynomial.from_terms(2, delta, eps=0.0)
        assert np.min(w.eval_many(ball)) > 0.0
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


# -- the ports of scipy's Nelder-Mead and brentq: the same bits ----------------


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
    in the last place higher: their infimum estimates differ by 4 %."""
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


def _ratio(p):
    two_m = p.degree
    return lambda x: p.eval(x) / (1.0 + float(np.sum(np.abs(x) ** two_m)))


def _bytes(*values):
    return [np.asarray(v, dtype=float).tobytes() for v in values]


def _scipy_nelder_mead(f, x0):
    res = optimize.minimize(f, x0, method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-12})
    return res.x, res.fun


def test_nelder_mead_equals_scipy_on_ratio_functions():
    rng = np.random.default_rng(5)
    for p in FAMILIES:
        f = _ratio(p)
        starts = [rng.uniform(-2.0, 2.0, size=p.dim), np.zeros(p.dim)]
        starts.append(np.where(rng.random(p.dim) < 0.5, 0.0, rng.uniform(-3.0, 3.0, size=p.dim)))
        for x0 in starts:
            assert _bytes(*_nelder_mead(f, x0)) == _bytes(*_scipy_nelder_mead(f, x0))


def test_nelder_mead_zero_coordinates_take_the_zero_step(monkeypatch):
    # A zero coordinate of the start is moved by zdelt, not by 5 % of itself.
    f = _ratio(next(p for p in FAMILIES if p.dim == 2 and p.degree == 4))
    x0 = np.array([0.0, 0.4])
    x, fun = _nelder_mead(f, x0)
    assert _bytes(x, fun) == _bytes(*_scipy_nelder_mead(f, x0))
    monkeypatch.setattr(positivity, "_ZDELT", 0.0005)
    assert _bytes(*_nelder_mead(f, x0)) != _bytes(x, fun)


@pytest.mark.parametrize("g", [lambda x: 1.0, lambda x: float(np.floor(1e3 * np.sum(x * x)))])
def test_nelder_mead_shrinks_as_scipy_does(monkeypatch, g):
    def traced(trace):
        def f(x):
            trace.append(np.array(x))
            return g(x)
        return f

    x0 = np.array([0.7, -0.2])
    ours, ref, shrunk = [], [], []
    assert _bytes(*_nelder_mead(traced(ours), x0)) == _bytes(*_scipy_nelder_mead(traced(ref), x0))
    assert _bytes(*ours) == _bytes(*ref)
    # Both functions are flat where the simplex lands, so it shrinks; another
    # shrink factor visits other points.
    monkeypatch.setattr(positivity, "_SIGMA", 0.25)
    _nelder_mead(traced(shrunk), x0)
    assert _bytes(*shrunk) != _bytes(*ours)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_nelder_mead_stops_after_200_n_evaluations(dim):
    calls = []

    def f(x):
        calls.append(1)
        return -x[0]

    x0 = np.zeros(dim)
    x, fun = _nelder_mead(f, x0)
    assert len(calls) == 200 * dim
    res = optimize.minimize(f, x0, method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-12})
    assert res.nfev == 200 * dim
    assert _bytes(x, fun) == _bytes(res.x, res.fun)


def test_tail_radius_equals_scipys_brentq():
    for p in FAMILIES:
        b0 = float(np.min(leading_axis_coeffs(p)))
        for scale in (1.0, 1e-3, 1e3):
            assert _bytes(_tail_radius(p, scale * b0)) == _bytes(tail_radius_ref(p, scale * b0))


@pytest.mark.parametrize(
    "f, a, b",
    [
        (lambda x: 2.0 * x - 1.0, 0.0, 3.0),  # one interpolation step
        (lambda x: x**3 - 2.0, 0.0, 4.0),  # interpolation, extrapolation, rejected steps
        (lambda x: -1.0 if x < 0.3 else 1.0, 0.0, 1.0),  # bisection only
        (lambda x: math.exp(x) - 10.0, -5.0, 20.0),
        (lambda x: math.atan(x - 0.7) ** 3, -50.0, 60.0),  # a flat root
        (lambda x: x * x - 4.0, 2.0, 5.0),  # a root at a
        (lambda x: x * x - 4.0, 0.0, 2.0),  # a root at b
    ],
)
def test_brent_root_equals_scipys_brentq(f, a, b):
    ref = optimize.brentq(f, a, b, xtol=1e-9, rtol=1e-12)
    assert _bytes(_brent_root(f, a, b)) == _bytes(ref)


def test_brent_root_rejects_a_bracket_of_one_sign():
    def f(x):
        return x * x + 1.0

    with pytest.raises(ValueError):
        optimize.brentq(f, -1.0, 2.0, xtol=1e-9, rtol=1e-12)
    with pytest.raises(ValueError):
        _brent_root(f, -1.0, 2.0)


def test_brent_root_gives_up_after_100_iterations():
    # Every step bisects; 1e300 wide needs about a thousand halvings.
    def f(x):
        return -1.0 if x < 1e-20 else 1.0

    with pytest.raises(RuntimeError):
        optimize.brentq(f, 0.0, 1e300, xtol=1e-9, rtol=1e-12)
    with pytest.raises(RuntimeError):
        _brent_root(f, 0.0, 1e300)


@pytest.mark.parametrize("index", range(len(FAMILIES)))
def test_epsilon_bound_keeps_the_scipy_bits(monkeypatch, index):
    p = FAMILIES[index]
    ours = epsilon_bound(p)
    monkeypatch.setattr(positivity, "_tail_radius", tail_radius_ref)
    monkeypatch.setattr(positivity, "_ratio_min_on_ball", ratio_min_on_ball_ref)
    ref = epsilon_bound(p)
    for field in ("inf_b", "inf_a_lower", "epsilon", "search_radius"):
        assert _bytes(getattr(ours, field)) == _bytes(getattr(ref, field)), field
