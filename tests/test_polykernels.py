"""The dense polynomial kernels against the sparse reference loops.

Each kernel of ``polynormal.polyalg`` (evaluation, gradient, products, the
Hermite basis changes, the theta family and affine substitution) and
``charfn.cf_eval`` must match its loop in ``polyref`` within
1e-12 * max(1, largest coefficient) for d = 1..3 and degree <= 8.
Evaluation points lie in [-1, 1]^d, where that scale bounds every value.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polynormal.charfn import cf_eval, make_charfn
from polynormal.errors import DimensionMismatch
from polynormal.polyalg import (
    HermiteCoeffs,
    Polynomial,
    affine_substitute,
    from_hermite,
    theta_rescale,
    to_hermite,
)

from conftest import all_multiindices
from polyref import (
    affine_substitute_ref,
    cf_eval_ref,
    eval_ref,
    from_hermite_ref,
    grad_eval_ref,
    mul_ref,
    theta_rescale_ref,
    to_hermite_ref,
)

TOL = 1e-12
FAST = settings(max_examples=40, deadline=None)


@st.composite
def polynomials(draw, max_dim=3, max_degree=8):
    """A random polynomial: dimension, degree, share of nonzero terms and
    coefficient scale drawn by hypothesis, coefficients from a drawn seed."""
    d = draw(st.integers(1, max_dim))
    degree = draw(st.integers(0, max_degree))
    keep = draw(st.sampled_from([0.3, 0.7, 1.0]))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    terms = {
        alpha: rng.uniform(-scale, scale)
        for alpha in all_multiindices(d, degree)
        if rng.random() < keep
    }
    return Polynomial.from_terms(d, terms), rng


def _scale(*maps) -> float:
    return max([1.0] + [abs(c) for m in maps for c in m.values()])


def _invertible(rng, d):
    return rng.uniform(-1.0, 1.0, size=(d, d)) + 2.0 * np.eye(d)


@FAST
@given(polynomials())
def test_eval_and_gradient_match_the_loops(case):
    p, rng = case
    scale = _scale(p.terms)
    for x in rng.uniform(-1.0, 1.0, size=(5, p.dim)):
        assert abs(p.eval(x) - eval_ref(p, x)) <= TOL * scale
        # The partials' coefficients are up to degree * the largest coefficient.
        assert np.max(np.abs(p.grad_eval(x) - grad_eval_ref(p, x))) <= TOL * scale * max(1, p.degree)


@FAST
@given(polynomials())
def test_eval_many_rows_equal_eval(case):
    p, rng = case
    pts = rng.uniform(-1.0, 1.0, size=(7, p.dim))
    many = p.eval_many(pts)
    assert many.shape == (7,)
    single = np.array([p.eval(x) for x in pts])
    assert np.max(np.abs(many - single)) <= TOL * _scale(p.terms)


@FAST
@given(polynomials(max_degree=5))
def test_product_matches_the_loop(case):
    p, rng = case
    q = Polynomial.from_terms(p.dim, {a: rng.uniform(-1.0, 1.0) for a in all_multiindices(p.dim, 3)})
    ref = Polynomial.from_terms(p.dim, mul_ref(p.terms, q.terms))
    assert (p * q).max_abs_coeff_diff(ref) <= TOL * _scale(ref.terms, p.terms)
    assert (p * q).degree == p.degree + q.degree if p.terms else (p * q).terms == {}


@FAST
@given(polynomials())
def test_hermite_expansions_match_the_loops(case):
    p, rng = case
    h, h_ref = to_hermite(p), to_hermite_ref(p)
    assert h.degree == h_ref.degree
    assert h.max_abs_coeff_diff(h_ref) <= TOL * _scale(h_ref.coeffs, p.terms)
    back, back_ref = from_hermite(h_ref), from_hermite_ref(h_ref)
    assert back.max_abs_coeff_diff(back_ref) <= TOL * _scale(back_ref.terms, h_ref.coeffs)


@FAST
@given(polynomials(), st.floats(0.05, 1.0))
def test_theta_rescale_matches_the_loop(case, theta):
    p, _ = case
    h = to_hermite(p)
    ref = theta_rescale_ref(h, theta)
    assert theta_rescale(h, theta).max_abs_coeff_diff(ref) <= TOL * _scale(ref.terms)


def test_theta_rescale_keeps_absent_terms_absent_where_the_scale_overflows():
    # theta^-2 overflows at the absent entry (1, 1); 0 * inf there must not
    # turn into nan.  The present terms stay finite: 1e-300 * theta^-2 = 1e100.
    h = HermiteCoeffs.from_coeffs(2, {(0, 0): 1.0, (1, 0): 1e-300}, eps=0.0)
    out = theta_rescale(h, 1e-200)
    assert out.terms.keys() == {(0, 0), (1, 0)}
    assert out.coefficient((0, 0)) == 1.0
    assert out.coefficient((1, 0)) == pytest.approx(1e100, rel=1e-12)


def test_theta_rescale_overflow_is_an_error():
    with pytest.raises(ValueError, match="not finite"), np.errstate(over="ignore", invalid="ignore"):
        theta_rescale(HermiteCoeffs.from_coeffs(2, {(6, 6): 1.0}), 1e-30)


@FAST
@given(polynomials())
def test_affine_substitute_matches_the_loop(case):
    p, rng = case
    M, c = _invertible(rng, p.dim), rng.uniform(-1.0, 1.0, size=p.dim)
    ref = affine_substitute_ref(p, M, c)
    assert affine_substitute(p, M, c).max_abs_coeff_diff(ref) <= TOL * _scale(ref.terms, p.terms)


@FAST
@given(polynomials(max_degree=6))
def test_affine_substitutions_compose(case):
    p, rng = case
    M1, M2 = _invertible(rng, p.dim), _invertible(rng, p.dim)
    c1, c2 = rng.uniform(-1.0, 1.0, size=(2, p.dim))
    left = affine_substitute(affine_substitute(p, M1, c1), M2, c2)
    right = affine_substitute(p, M1 @ M2, M1 @ c2 + c1)
    assert left.max_abs_coeff_diff(right) <= TOL * _scale(right.terms, p.terms)


@FAST
@given(polynomials())
def test_cf_eval_matches_the_complex_loop(case):
    p, rng = case
    beta = p + (1.0 - p.coefficient((0,) * p.dim))  # phi(0) = 1
    W = rng.normal(size=(p.dim, p.dim))
    cf = make_charfn(beta, W @ W.T + np.eye(p.dim), rng.uniform(-1.0, 1.0, size=p.dim))
    for t in rng.uniform(-1.0, 1.0, size=(4, p.dim)):
        assert abs(cf_eval(cf, t) - cf_eval_ref(cf, t)) <= TOL * _scale(cf.beta.terms)


def test_affine_substitute_d5_degree6_memory():
    rng = np.random.default_rng(5)
    p = Polynomial.from_terms(5, {a: rng.uniform(-1, 1) for a in all_multiindices(5, 6)})
    M, c = _invertible(rng, 5), rng.uniform(-1.0, 1.0, size=5)
    tracemalloc.start()
    try:
        out = affine_substitute(p, M, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20
    assert out.degree == 6
    x = rng.uniform(-1.0, 1.0, size=5)
    assert out.eval(x) == pytest.approx(p.eval(M @ x + c), rel=1e-10, abs=1e-10)


def test_hermite_max_abs_coeff_diff_checks_dimensions():
    with pytest.raises(DimensionMismatch):
        HermiteCoeffs.from_coeffs(1, {(0,): 1.0}).max_abs_coeff_diff(
            HermiteCoeffs.from_coeffs(2, {(0, 0): 1.0})
        )


@pytest.mark.parametrize("alpha", [(2.7,), (float("nan"),), (float("inf"),)])
def test_non_whole_exponent_is_rejected(alpha):
    with pytest.raises(ValueError, match="not whole"):
        Polynomial.from_terms(1, [(alpha, 1.0)])


@pytest.mark.parametrize("coef", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_coefficient_is_rejected(coef):
    with pytest.raises(ValueError, match="not finite"):
        Polynomial.from_terms(1, {(2,): 1.0, (0,): coef})
    with pytest.raises(ValueError, match="not finite"):
        HermiteCoeffs.from_coeffs(1, {(0,): coef})
