"""Polynomial arithmetic and Hermite basis conversion."""

import json
import math

import numpy as np
import pytest
from numpy.polynomial import hermite_e

from polynormal.errors import DimensionMismatch
from polynormal.polyalg import (
    HermiteCoeffs,
    Polynomial,
    affine_substitute,
    from_hermite,
    hermite_1d,
    polynomial_from_dict,
    polynomial_to_dict,
    theta_rescale,
    to_hermite,
)

from conftest import example4_poly, random_signed_poly


def test_eval_product_identity():
    p = Polynomial.from_terms(2, {(1, 1): 1.0, (0, 0): -1.0})  # x1 x2 - 1
    assert p.eval([1.0, 1.0]) == 0.0


def test_eval_hand_expanded_case():
    p = example4_poly()
    assert p.eval([2.0, 0.5]) == pytest.approx(0.25, abs=1e-15)


def test_eval_constant():
    p = Polynomial.constant(3, 1.0)
    assert p.eval([4.0, -2.0, 0.3]) == 1.0


def test_eval_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Polynomial.constant(2, 1.0).eval([1.0])


def test_multiply_binomial_square():
    p = Polynomial.from_terms(2, {(1, 1): 1.0, (0, 0): -1.0})
    sq = p * p
    assert sq.terms == {(2, 2): 1.0, (1, 1): -2.0, (0, 0): 1.0}


def test_multiply_separable_quadratics():
    t1 = Polynomial.from_terms(2, {(2, 0): 1.0, (0, 0): 1.0})
    t2 = Polynomial.from_terms(2, {(0, 2): 1.0, (0, 0): 1.0})
    prod = t1 * t2
    assert prod.terms == {(2, 2): 1.0, (2, 0): 1.0, (0, 2): 1.0, (0, 0): 1.0}


def test_multiply_identity():
    p = example4_poly()
    assert (p * Polynomial.constant(2, 1.0)).terms == p.terms


def test_multiply_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Polynomial.constant(2, 1.0) * Polynomial.constant(1, 1.0)


def test_multiply_commutative_associative():
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = random_signed_poly(rng, 2, 3, scale=2.0)
        q = random_signed_poly(rng, 2, 2, scale=2.0)
        r = random_signed_poly(rng, 2, 2, scale=2.0)
        scale = max(abs(c) for c in (p * q * r).terms.values())
        assert (p * q).max_abs_coeff_diff(q * p) <= 1e-12 * scale
        assert ((p * q) * r).max_abs_coeff_diff(p * (q * r)) <= 1e-12 * scale


def test_affine_substitute_1d():
    p = Polynomial.from_terms(1, {(2,): 1.0, (0,): 1.0})
    out = affine_substitute(p, [[2.0]], [3.0])
    assert out.terms == {(2,): 4.0, (1,): 12.0, (0,): 10.0}


def test_affine_substitute_identity():
    p = example4_poly()
    out = affine_substitute(p, np.eye(2), np.zeros(2))
    assert out.max_abs_coeff_diff(p) == 0.0


def test_affine_substitute_composition():
    rng = np.random.default_rng(2)
    for _ in range(10):
        p = random_signed_poly(rng, 2, 4, scale=2.0)
        M1 = rng.normal(size=(2, 2)) + 2 * np.eye(2)
        M2 = rng.normal(size=(2, 2)) + 2 * np.eye(2)
        c1 = rng.normal(size=2)
        c2 = rng.normal(size=2)
        left = affine_substitute(affine_substitute(p, M1, c1), M2, c2)
        right = affine_substitute(p, M1 @ M2, M1 @ c2 + c1)
        scale = max(1.0, max(abs(c) for c in right.terms.values()))
        assert left.max_abs_coeff_diff(right) <= 1e-9 * scale


def test_affine_substitute_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        affine_substitute(example4_poly(), np.eye(3), np.zeros(3))


def test_hermite_1d_low_orders():
    assert hermite_1d(2, 0.0) == -1.0
    assert hermite_1d(3, 2.0) == 2.0  # x^3 - 3x at 2
    assert hermite_1d(0, 17.3) == 1.0
    assert hermite_1d(1, -0.4) == -0.4


def test_hermite_recurrence_matches_expansion():
    xs = np.linspace(-5.0, 5.0, 41)
    for k in range(9):
        expanded = from_hermite(HermiteCoeffs.from_coeffs(1, {(k,): 1.0}))
        vals = expanded.eval_many(xs.reshape(-1, 1))
        assert np.max(np.abs(vals - hermite_1d(k, xs))) <= 1e-10 * max(1.0, np.max(np.abs(vals)))


def test_to_hermite_reference_quartic():
    h = to_hermite(example4_poly())
    assert h.coeffs == {(2, 2): 1.0, (2, 0): 1.0, (0, 2): 2.0, (1, 1): -2.0, (0, 0): 3.0}


def test_to_hermite_x_squared():
    h = to_hermite(Polynomial.from_terms(1, {(2,): 1.0}))
    assert h.coeffs == {(2,): 1.0, (0,): 1.0}


def _quadrature_hermite_coeffs(p, max_degree, nodes=40):
    """Oracle: beta_k = E[He_k(X) p(X)] / k! under X ~ N(0, 1)."""
    x, w = hermite_e.hermegauss(nodes)
    w = w / math.sqrt(2.0 * math.pi)
    vals = p.eval_many(x.reshape(-1, 1))
    return {
        (k,): float(w @ (hermite_1d(k, x) * vals)) / math.factorial(k)
        for k in range(max_degree + 1)
    }


def test_to_hermite_x_cubed_against_quadrature_oracle():
    p = Polynomial.from_terms(1, {(3,): 1.0})
    oracle = _quadrature_hermite_coeffs(p, 4)
    oracle = {a: c for a, c in oracle.items() if abs(c) > 1e-10}
    assert oracle == pytest.approx({(3,): 1.0, (1,): 3.0}, abs=1e-10)
    assert to_hermite(p).coeffs == {(3,): 1.0, (1,): 3.0}


def test_from_hermite_he2():
    p = from_hermite(HermiteCoeffs.from_coeffs(1, {(2,): 1.0}))
    assert p.terms == {(2,): 1.0, (0,): -1.0}


def test_from_hermite_constant():
    p = from_hermite(HermiteCoeffs.from_coeffs(2, {(0, 0): 1.0}))
    assert p.terms == {(0, 0): 1.0}


def test_from_hermite_roundtrip_reference_quartic():
    p = example4_poly()
    assert from_hermite(to_hermite(p)).max_abs_coeff_diff(p) <= 1e-12


def test_roundtrip_random_polynomials():
    rng = np.random.default_rng(3)
    for _ in range(50):
        dim = int(rng.integers(1, 4))
        p = random_signed_poly(rng, dim, int(rng.integers(0, 7)), scale=10.0)
        back = from_hermite(to_hermite(p))
        assert back.max_abs_coeff_diff(p) <= 1e-8


def test_hermite_roundtrip_other_direction():
    rng = np.random.default_rng(4)
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        h = HermiteCoeffs.from_coeffs(
            dim,
            {
                alpha: rng.uniform(-10, 10)
                for alpha in to_hermite(random_signed_poly(rng, dim, 5, 1.0)).coeffs
            },
        )
        assert to_hermite(from_hermite(h)).max_abs_coeff_diff(h) <= 1e-8


def test_theta_rescale_closed_form():
    h = HermiteCoeffs.from_coeffs(1, {(2,): 0.5, (0,): 1.0})  # (x^2 + 1) / 2
    out = theta_rescale(h, math.sqrt(0.5))
    assert out.coefficient((2,)) == pytest.approx(2.0, abs=1e-12)
    assert abs(out.coefficient((0,))) <= 1e-12


def test_theta_rescale_identity_at_one():
    h = to_hermite(example4_poly())
    assert theta_rescale(h, 1.0).max_abs_coeff_diff(from_hermite(h)) <= 1e-12


def test_theta_rescale_constant():
    h = HermiteCoeffs.from_coeffs(2, {(0, 0): 1.0})
    for theta in (0.1, 0.5, 0.99):
        assert theta_rescale(h, theta).terms == {(0, 0): 1.0}


def test_theta_rescale_range_check():
    h = HermiteCoeffs.from_coeffs(1, {(0,): 1.0})
    with pytest.raises(ValueError):
        theta_rescale(h, 0.0)
    with pytest.raises(ValueError):
        theta_rescale(h, 1.5)


def test_canonical_form_drops_zeros():
    p = Polynomial.from_terms(1, {(1,): 1.0}) - Polynomial.from_terms(1, {(1,): 1.0})
    assert p.terms == {}
    assert p.degree == 0


def test_json_roundtrip_and_ordering():
    p = example4_poly()
    data = polynomial_to_dict(p)
    alphas = [tuple(t["alpha"]) for t in data["terms"]]
    assert alphas == sorted(alphas, key=lambda a: (sum(a), a))
    text = json.dumps(data, indent=2, sort_keys=True)
    back = polynomial_from_dict(json.loads(text))
    assert back.max_abs_coeff_diff(p) == 0.0
    assert json.dumps(polynomial_to_dict(back), indent=2, sort_keys=True) == text


def test_json_schema_shape():
    data = json.loads(json.dumps(polynomial_to_dict(Polynomial.from_terms(1, {(2,): 4.0}))))
    assert data == {"dim": 1, "terms": [{"alpha": [2], "coef": 4.0}]}


def test_json_dim_must_be_whole():
    # The exponents' rule: a dim of 1.0 reads as 1, and 1.5 is not read as 1.
    data = {"dim": 1.0, "terms": [{"alpha": [2], "coef": 1.0}]}
    assert polynomial_from_dict(data).dim == 1
    for dim in (1.5, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="is not whole"):
            polynomial_from_dict({**data, "dim": dim})
