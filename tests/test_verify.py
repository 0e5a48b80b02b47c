"""Convolution identity, counterexample family, factorization probe."""

import math

import numpy as np
import pytest

from polynormal.decompose import GaussianFactor, decompose
from polynormal.errors import NoWitnessFound, QuadratureOrderTooLow
from polynormal.pnd import make_pnd, make_quadform
from polynormal.polyalg import Polynomial
from polynormal.verify import (
    Example4Params,
    _as_pnd,
    biquadratic_factor_probe,
    convolution_check,
    example4_B,
    example4_B_exact,
    example4_B_from_density,
    example4_negative_witness,
    validate_example4_params,
)

from conftest import random_pd_matrix, sample_example4_params


def _gauss(var):
    return GaussianFactor(mean=np.zeros(1), cov=np.array([[var]]))


def test_convolution_gaussian_identity():
    f = make_pnd(Polynomial.constant(1, 1.0), [[1.0]], [0.0])
    report = convolution_check(f, _gauss(0.64), _gauss(0.36), [-2.0, 0.0, 2.0])
    assert report.max_abs_error <= 1e-10


def test_convolution_of_1d_decomposition():
    pnd = make_pnd(Polynomial.from_terms(1, {(2,): 1.0, (0,): 1.0}), [[1.0]], [0.0])
    dec = decompose(pnd, theta=math.sqrt(0.5))
    grid = np.linspace(-4.0, 4.0, 21)
    report = convolution_check(pnd, dec.factor_Y, dec.factor_Z, grid)
    assert report.max_abs_error <= 1e-6


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gaussian_factor_is_promoted_to_a_unit_density(dim):
    rng = np.random.default_rng(dim)
    cov, mean = random_pd_matrix(rng, dim), rng.uniform(-1.0, 1.0, dim)
    g = _as_pnd(GaussianFactor(mean=mean, cov=cov))
    assert g.norm_const == 1.0
    assert g.poly.terms.dense().tobytes() == Polynomial.constant(dim, 1.0).terms.dense().tobytes()
    assert g.form.matrix.tobytes() == make_quadform(np.linalg.inv(cov)).matrix.tobytes()
    assert g.shift.tobytes() == mean.tobytes()


def test_convolution_negative_control():
    pnd = make_pnd(Polynomial.from_terms(1, {(2,): 1.0, (0,): 1.0}), [[1.0]], [0.0])
    dec = decompose(pnd, theta=math.sqrt(0.5))
    wrong = GaussianFactor(mean=dec.factor_Z.mean, cov=dec.factor_Z.cov + 0.1)
    report = convolution_check(pnd, dec.factor_Y, wrong, np.linspace(-4.0, 4.0, 21))
    assert report.max_abs_error > 1e-3


def test_convolution_order_too_low():
    pnd = make_pnd(Polynomial.from_terms(1, {(2,): 1.0, (0,): 1.0}), [[1.0]], [0.0])
    dec = decompose(pnd, theta=math.sqrt(0.5))
    with pytest.raises(QuadratureOrderTooLow):
        convolution_check(pnd, dec.factor_Y, dec.factor_Z, [0.0], quadrature_order=1)


def test_example4_B_reference_value():
    value = example4_B(Example4Params(0.5, 0.1, 0.5))
    assert value == pytest.approx(5.0 - 0.2 - 10.0 - 0.1 / 0.24, abs=1e-12)
    assert value == pytest.approx(-5.61667, abs=1e-4)


def test_example4_B_negative_on_valid_params():
    assert example4_B(Example4Params(0.55, 0.2, 0.65)) < 0.0


def test_example4_params_constraint_violation():
    with pytest.raises(ValueError):
        validate_example4_params(Example4Params(0.5, 0.8, 0.5))
    with pytest.raises(ValueError):
        example4_B(Example4Params(0.5, 0.8, 0.5))


def test_example4_B_negative_on_500_samples():
    rng = np.random.default_rng(18)
    for _ in range(500):
        params = sample_example4_params(rng)
        assert example4_B(params) < 0.0
        assert example4_B_exact(params) < 0.0


def test_example4_B_cross_check_against_recomputation():
    # The numerical extraction must match the exact closed form to 1e-6 and
    # sit exactly |a12|/a22 above the conservative one.
    rng = np.random.default_rng(19)
    triples = [Example4Params(0.5, 0.1, 0.5), Example4Params(0.3, -0.15, 0.7)]
    triples += [sample_example4_params(rng) for _ in range(10)]
    for params in triples:
        numeric = example4_B_from_density(params)
        exact = example4_B_exact(params)
        conservative = example4_B(params)
        assert numeric == pytest.approx(exact, abs=1e-6)
        assert exact - conservative == pytest.approx(abs(params.a12) / params.a22, abs=1e-9)


def test_example4_witness_reference_params():
    w = example4_negative_witness(Example4Params(0.5, 0.1, 0.5), 50)
    assert w.value < -1e-10
    # regression pin from the first verified run
    assert w.n == 1
    assert w.point == pytest.approx([1.0733126292, 0.0], abs=1e-6)


def test_example4_witness_axis_branch():
    w = example4_negative_witness(Example4Params(0.5, 0.0, 0.5), 50)
    assert w.value < -1e-10
    assert w.point[1] == 0.0


def test_example4_witness_on_sampled_params():
    rng = np.random.default_rng(20)
    for _ in range(20):
        params = sample_example4_params(rng)
        w = example4_negative_witness(params, 50)
        assert w.value < -1e-10


def test_example4_witness_exhausted_range():
    with pytest.raises(NoWitnessFound):
        # ill-conditioned triple: density underflows along the whole curve
        example4_negative_witness(Example4Params(0.631, 0.4189, 0.2835), 50)


def _conv_grid(dim, per_axis):
    axis = np.linspace(-4.0, 4.0, per_axis)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def test_convolution_soundness_of_accepted_decompositions():
    from conftest import FAST_BUDGET, random_pd_matrix

    rng = np.random.default_rng(22)
    cases = []
    # d = 1 and d = 2: eligible quartics; d = 3: an eligible quadratic
    cases.append((make_pnd(Polynomial.from_terms(1, {(4,): 0.5, (0,): 1.0}), [[1.2]], [0.1]), 5))
    p2 = Polynomial.from_terms(
        2, {(4, 0): 0.8, (0, 4): 0.6, (2, 2): 0.5, (1, 0): 0.2, (0, 0): 1.0}
    )
    cases.append((make_pnd(p2, random_pd_matrix(rng, 2), rng.uniform(-0.5, 0.5, 2)), 5))
    p3 = Polynomial.from_terms(
        3, {(2, 0, 0): 0.5, (0, 2, 0): 0.4, (0, 0, 2): 0.7, (1, 0, 0): 0.1, (0, 0, 0): 1.0}
    )
    cases.append((make_pnd(p3, random_pd_matrix(rng, 3), np.zeros(3), FAST_BUDGET), 3))
    for pnd, per_axis in cases:
        dec = decompose(pnd, tol=1e-4, budget=FAST_BUDGET)
        report = convolution_check(
            pnd, dec.factor_Y, dec.factor_Z, _conv_grid(pnd.dim, per_axis)
        )
        assert report.max_abs_error <= 1e-5


def _poly2(terms):
    return Polynomial.from_terms(2, terms)


def test_probe_separable_product():
    P = _poly2({(2, 2): 1.0, (2, 0): 1.0, (0, 2): 1.0, (0, 0): 1.0})
    result = biquadratic_factor_probe(P, starts=40)
    assert result.residual <= 1e-10
    recon = result.factor1 * result.factor2
    assert recon.max_abs_coeff_diff(P) <= 1e-5


def test_probe_perfect_square():
    P = _poly2({(1, 1): 1.0, (0, 0): 1.0})
    result = biquadratic_factor_probe(P * P, starts=40)
    assert result.residual <= 1e-10


def test_probe_reference_quartic_floor():
    # the bundled counterexample's cf polynomial has no quadratic split
    P = _poly2({(2, 2): 1.0, (1, 1): 2.0, (0, 2): -2.0, (2, 0): -1.0, (0, 0): 3.0})
    result = biquadratic_factor_probe(P, starts=60)
    assert result.residual > 1e-3


def test_probe_random_factorable_products():
    rng = np.random.default_rng(21)
    for _ in range(15):
        z = rng.standard_normal(12)
        q1 = Polynomial.from_terms(2, {(2, 0): z[0], (0, 2): z[1], (1, 1): z[2], (1, 0): z[3], (0, 1): z[4], (0, 0): z[5]})
        q2 = Polynomial.from_terms(2, {(2, 0): z[6], (0, 2): z[7], (1, 1): z[8], (1, 0): z[9], (0, 1): z[10], (0, 0): z[11]})
        P = q1 * q2
        if P.degree != 4:
            continue
        result = biquadratic_factor_probe(P, starts=20, seed=int(rng.integers(1 << 31)))
        assert result.residual <= 1e-8
