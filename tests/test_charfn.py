"""Forward/inverse characteristic-function transforms and their algebra."""

import math

import numpy as np
import pytest

from polynormal.charfn import (
    cf_eval,
    cf_multiply,
    charfn_from_dict,
    charfn_to_dict,
    forward_cf,
    gaussian_cf,
    inverse_cf,
    inverse_cf_parts,
    make_charfn,
)
from polynormal.decompose import GaussianFactor
from polynormal.errors import DimensionMismatch, NegativeDensity, NotPositiveDefinite
from polynormal.pnd import gauss_hermite_nodes, make_pnd
from polynormal.polyalg import Polynomial
from polynormal.verify import Example4Params, _as_pnd, example4_candidate_cf, example4_signed_density

from conftest import FAST_BUDGET, eligible_quartic_poly, random_pd_matrix, random_pnd

EQ6_BETA = {
    (2, 2): 1.0 / 3.0,
    (1, 1): -2.0 / 3.0,
    (0, 2): 2.0 / 3.0,
    (2, 0): 1.0 / 3.0,
    (0, 0): 1.0,
}


def test_forward_reference_quartic(example4_pnd):
    cf = forward_cf(example4_pnd)
    assert cf.beta.max_abs_coeff_diff(Polynomial.from_terms(2, EQ6_BETA)) <= 1e-9
    assert np.max(np.abs(cf.sigma - np.eye(2))) <= 1e-12
    assert np.array_equal(cf.shift, np.zeros(2))


def test_forward_standard_normal():
    pnd = make_pnd(Polynomial.constant(1, 1.0), [[1.0]], [0.0])
    cf = forward_cf(pnd)
    assert cf.beta.terms == {(0,): 1.0}
    assert cf.sigma[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_forward_1d_quadratic():
    pnd = make_pnd(Polynomial.from_terms(1, {(2,): 1.0, (0,): 1.0}), [[1.0]], [0.0])
    cf = forward_cf(pnd)
    # (1 - t^2/2) e^{-t^2/2}: coefficient of (it)^2 is +1/2
    assert cf.beta.terms == pytest.approx({(0,): 1.0, (2,): 0.5})


def test_forward_cf_substitutes_once(substitution_calls):
    pnd = make_pnd(eligible_quartic_poly(), np.array([[2.0, 0.3], [0.3, 1.0]]), np.array([0.5, -1.0]))
    substitution_calls.clear()
    forward_cf(pnd)
    assert len(substitution_calls) == 1


def test_each_transform_factors_at_most_one_form(monkeypatch):
    # Only make_quadform factors (one eigendecomposition, one inversion of
    # the root); every other form is read from one it made.  The minimum
    # scans' batched Hessian eigh calls (3-d stacks) are not forms.
    calls = []
    for name in ("cholesky", "eigh", "inv"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, _f=original, _n=name: (np.ndim(a) == 2 and calls.append(_n)) or _f(a))
    rng = np.random.default_rng(4)
    pnd = random_pnd(rng, 2, half_degree=2)
    cf, partner = forward_cf(pnd), gaussian_cf(np.zeros(2), random_pd_matrix(rng, 2))
    factor = GaussianFactor(mean=np.zeros(2), cov=random_pd_matrix(rng, 2))
    runs = {
        "forward_cf": (lambda: forward_cf(pnd), 0),
        "inverse_cf_parts": (lambda: inverse_cf_parts(cf), 1),
        "inverse_cf": (lambda: inverse_cf(cf, FAST_BUDGET), 1),
        "cf_multiply": (lambda: cf_multiply(cf, partner), 1),
        "_as_pnd": (lambda: _as_pnd(factor), 1),
        "example4_signed_density": (lambda: example4_signed_density(Example4Params(0.5, 0.1, 0.5)), 1),
    }
    for name, (run, forms) in runs.items():
        calls.clear()
        run()
        assert calls == ["eigh", "inv"] * forms, name


def _numeric_cf(pnd, ts, nodes=64):
    """Direct numerical integration of exp(i t.x) against the density."""
    u, w = gauss_hermite_nodes(pnd.dim, nodes)
    x = u @ pnd.form.whitener.T + pnd.shift
    q = pnd.whitened.eval_many(u)
    out = []
    for t in np.atleast_2d(ts):
        out.append(np.sum(w * q * np.exp(1j * (x @ t))))
    return np.array(out)


def test_forward_matches_numeric_integration_1d():
    pnd = make_pnd(Polynomial.from_terms(1, {(2,): 1.0, (0,): 1.0}), [[1.0]], [0.0])
    cf = forward_cf(pnd)
    ts = np.array([[0.5], [1.3], [2.0]])
    numeric = _numeric_cf(pnd, ts)
    exact = np.array([cf_eval(cf, t) for t in ts])
    assert np.max(np.abs(numeric - exact)) <= 1e-6


def test_forward_matches_numeric_integration_random():
    rng = np.random.default_rng(10)
    for _ in range(4):
        d = int(rng.integers(1, 3))
        pnd = random_pnd(rng, d, half_degree=2)
        cf = forward_cf(pnd)
        ts = rng.uniform(-1.0, 1.0, size=(25, d))
        ts *= (3.0 * rng.random(size=(25, 1))) / np.maximum(np.linalg.norm(ts, axis=1, keepdims=True), 1e-9)
        numeric = _numeric_cf(pnd, ts)
        exact = np.array([cf_eval(cf, t) for t in ts])
        assert np.max(np.abs(numeric - exact)) <= 1e-6


def test_cf_eval_at_zero_is_one(example4_pnd):
    cf = forward_cf(example4_pnd)
    assert cf_eval(cf, [0.0, 0.0]) == pytest.approx(1.0 + 0.0j, abs=1e-14)


def test_cf_eval_reference_value(example4_pnd):
    cf = forward_cf(example4_pnd)
    expected = (2.0 / 3.0) * math.exp(-0.5)
    assert cf_eval(cf, [1.0, 0.0]) == pytest.approx(expected + 0.0j, abs=1e-12)


def test_cf_eval_standard_normal():
    cf = gaussian_cf([0.0], [[1.0]])
    assert cf_eval(cf, [2.0]) == pytest.approx(math.exp(-2.0) + 0.0j, abs=1e-14)


def test_cf_hermitian_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(5):
        d = int(rng.integers(1, 4))
        cf = forward_cf(random_pnd(rng, d))
        for t in rng.uniform(-3.0, 3.0, size=(200, d)):
            assert cf_eval(cf, -t) == pytest.approx(np.conj(cf_eval(cf, t)), abs=1e-12)


def test_cf_multiply_exponents_add():
    theta = 0.8
    y = make_charfn(
        Polynomial.from_terms(1, {(0,): 1.0, (2,): 0.5}), [[theta**2]], [0.0]
    )
    z = gaussian_cf([0.0], [[1.0 - theta**2]])
    prod = cf_multiply(y, z)
    assert prod.sigma[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert prod.beta.terms == pytest.approx({(0,): 1.0, (2,): 0.5})


def test_cf_multiply_requires_positive_definite_exponent():
    with pytest.raises(NotPositiveDefinite):
        gaussian_cf([0.0], [[0.0]])


def test_cf_multiply_reference_split(example4_pnd):
    params = Example4Params(0.5, 0.1, 0.5)
    candidate = example4_candidate_cf(params)
    complement = gaussian_cf(
        [0.0, 0.0],
        [[1.0 - params.a11, -params.a12], [-params.a12, 1.0 - params.a22]],
    )
    prod = cf_multiply(candidate, complement)
    full = forward_cf(example4_pnd)
    assert prod.beta.max_abs_coeff_diff(full.beta) <= 1e-12
    assert np.max(np.abs(prod.sigma - full.sigma)) <= 1e-12


def test_cf_multiply_eval_is_pointwise_product():
    rng = np.random.default_rng(12)
    a = forward_cf(random_pnd(rng, 2))
    b = forward_cf(random_pnd(rng, 2))
    prod = cf_multiply(a, b)
    for t in rng.uniform(-2.0, 2.0, size=(50, 2)):
        va, vb, vp = cf_eval(a, t), cf_eval(b, t), cf_eval(prod, t)
        assert vp == pytest.approx(va * vb, rel=1e-12, abs=1e-300)


def test_inverse_gaussian():
    pnd = inverse_cf(gaussian_cf([0.0], [[1.0]]))
    assert pnd.poly.terms == {(0,): 1.0}
    assert pnd.form.matrix[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_inverse_1d_quadratic():
    cf = make_charfn(Polynomial.from_terms(1, {(0,): 1.0, (2,): 0.5}), [[1.0]], [0.0])
    pnd = inverse_cf(cf)
    eff = pnd.norm_const * pnd.poly
    assert eff.max_abs_coeff_diff(Polynomial.from_terms(1, {(2,): 0.5, (0,): 0.5})) <= 1e-12


def test_inverse_rejects_reference_candidate():
    candidate = example4_candidate_cf(Example4Params(0.5, 0.1, 0.5))
    with pytest.raises(NegativeDensity):
        inverse_cf(candidate)


def test_roundtrip_random_pnds():
    rng = np.random.default_rng(13)
    for _ in range(50):
        d = int(rng.integers(1, 4))
        pnd = random_pnd(rng, d)
        back = inverse_cf(forward_cf(pnd), FAST_BUDGET)
        eff = pnd.norm_const * pnd.poly
        eff_back = back.norm_const * back.poly
        scale = max(abs(c) for c in eff.terms.values())
        assert eff_back.max_abs_coeff_diff(eff) <= 1e-8 * max(1.0, scale)
        assert np.max(np.abs(back.form.matrix - pnd.form.matrix)) <= 1e-8
        assert np.max(np.abs(back.shift - pnd.shift)) <= 1e-12


def test_charfn_renormalization_warns():
    with pytest.warns(UserWarning):
        cf = make_charfn(Polynomial.from_terms(1, {(0,): 3.0, (2,): 3.0}), [[1.0]], [0.0])
    assert cf.beta.coefficient((0,)) == pytest.approx(1.0, abs=1e-14)


def test_charfn_json_roundtrip(example4_pnd):
    cf = forward_cf(example4_pnd)
    back = charfn_from_dict(charfn_to_dict(cf))
    assert back.beta.max_abs_coeff_diff(cf.beta) == 0.0
    assert np.array_equal(back.sigma, cf.sigma)


def test_cf_eval_dimension_mismatch(example4_pnd):
    with pytest.raises(DimensionMismatch):
        cf_eval(forward_cf(example4_pnd), [1.0])
