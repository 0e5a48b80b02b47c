"""Convolution identity, counterexample family, factorization probe."""

import math

import numpy as np
import pytest

from polynormal.charfn import cf_multiply, forward_cf, gaussian_cf, inverse_cf
from polynormal.decompose import GaussianFactor, decompose
from polynormal.errors import DimensionMismatch, NoWitnessFound
from polynormal.pnd import _local_minima, density_many, make_pnd, make_quadform
from polynormal.polyalg import Polynomial, tensor_grid
from polynormal.verify import (
    _B_SAMPLE_NS,
    _BOX_SCALES,
    _PRODUCT,
    _QUARTIC_POS,
    _SLICE_POINTS,
    WITNESS_TOL,
    Example4Params,
    _as_pnd,
    _probe_points,
    _quadratic_from_vector,
    _SquaredResidual,
    biquadratic_factor_probe,
    convolution_check,
    example4_B_exact,
    example4_B_from_density,
    example4_negative_witness,
    example4_signed_density,
    validate_example4_params,
)

from conftest import FAST_BUDGET, eligible_quartic_poly, random_pd_matrix, random_pnd, sample_example4_params
from polyref import (
    _curve_point,
    _witness_candidates,
    biquadratic_factor_probe_ref,
    convolution_check_ref,
    product_residual_ref,
)


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
    assert g.form.matrix.tobytes() == make_quadform(cov).inverse().matrix.tobytes()
    assert np.max(np.abs(g.form.matrix @ cov - np.eye(dim))) <= 1e-13
    assert g.shift.tobytes() == mean.tobytes()


def test_convolution_negative_control():
    pnd = make_pnd(Polynomial.from_terms(1, {(2,): 1.0, (0,): 1.0}), [[1.0]], [0.0])
    dec = decompose(pnd, theta=math.sqrt(0.5))
    wrong = GaussianFactor(mean=dec.factor_Z.mean, cov=dec.factor_Z.cov + 0.1)
    report = convolution_check(pnd, dec.factor_Y, wrong, np.linspace(-4.0, 4.0, 21))
    assert report.max_abs_error > 1e-3


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("pair", ["PND x Gaussian", "PND x PND", "Gaussian x Gaussian"])
def test_convolution_check_agrees_with_the_per_point_reference(pair, dim):
    rng = np.random.default_rng(dim)

    def factor(kind):
        if kind == "PND":
            return random_pnd(rng, dim, half_degree=1)
        return GaussianFactor(mean=rng.uniform(-1.0, 1.0, dim), cov=random_pd_matrix(rng, dim))

    g1, g2 = (factor(kind) for kind in pair.split(" x "))
    # f's characteristic function is the factors' product, so f = g1 * g2.
    cfs = [gaussian_cf(g.mean, g.cov) if isinstance(g, GaussianFactor) else forward_cf(g) for g in (g1, g2)]
    f = inverse_cf(cf_multiply(*cfs), FAST_BUDGET)
    grid = tensor_grid([np.linspace(-2.0, 2.0, 3)] * dim) @ f.form.whitener.T + f.shift
    top = float(np.max(density_many(f, grid)))
    report = convolution_check(f, g1, g2, grid)
    _, ref_error, ref_order = convolution_check_ref(f, g1, g2, grid)
    assert report.quadrature_order == ref_order - 8
    # Both within 0.5e-13 * max f of f, so within 1e-13 * max f of each other.
    assert report.max_abs_error <= 0.5e-13 * top and ref_error <= 0.5e-13 * top
    # Against a target moved off g1 * g2, the gap at one point is |(g1 * g2)(x) - target(x)|.
    miss = make_pnd(f.poly, f.form.matrix, f.shift + 0.5, FAST_BUDGET)
    for x in grid:
        gap = convolution_check(miss, g1, g2, x[None]).max_abs_error
        assert abs(gap - convolution_check_ref(miss, g1, g2, x[None])[1]) <= 1e-13 * top
    assert convolution_check(miss, g1, g2, grid).max_abs_error > 1e-3 * top


def test_convolution_grid_rows_must_have_the_density_dimension():
    pnd = make_pnd(eligible_quartic_poly(), np.eye(2), np.zeros(2), FAST_BUDGET)
    g = GaussianFactor(mean=np.zeros(2), cov=np.eye(2))
    for grid in (np.zeros((4, 3)), np.zeros(3), np.zeros((2, 2, 2))):
        with pytest.raises(DimensionMismatch):
            convolution_check(pnd, g, g, grid)


def test_example4_B_reference_value():
    value = example4_B_exact(Example4Params(0.5, 0.1, 0.5))
    assert value == pytest.approx(-0.5 / 0.1 - 0.1 / 0.24, abs=1e-12)
    assert value == pytest.approx(-5.41667, abs=1e-4)


def test_example4_B_negative_on_valid_params():
    assert example4_B_exact(Example4Params(0.55, 0.2, 0.65)) < 0.0


def test_example4_params_constraint_violation():
    with pytest.raises(ValueError):
        validate_example4_params(Example4Params(0.5, 0.8, 0.5))
    with pytest.raises(ValueError):
        example4_B_exact(Example4Params(0.5, 0.8, 0.5))


def test_example4_B_negative_on_500_samples():
    rng = np.random.default_rng(18)
    for _ in range(500):
        params = sample_example4_params(rng)
        assert example4_B_exact(params) < 0.0


def test_example4_B_cross_check_against_recomputation():
    # The numerical extraction must match the exact closed form to 1e-6.
    rng = np.random.default_rng(19)
    triples = [Example4Params(0.5, 0.1, 0.5), Example4Params(0.3, -0.15, 0.7)]
    triples += [sample_example4_params(rng) for _ in range(10)]
    for params in triples:
        numeric = example4_B_from_density(params)
        assert numeric == pytest.approx(example4_B_exact(params), abs=1e-6)


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


def _probe_triples(seed, count=12):
    """``count`` admissible triples each with a12 > 0, a12 < 0 and a12 = 0."""
    rng = np.random.default_rng(seed)
    drawn = [sample_example4_params(rng) for _ in range(8 * count)]
    positive = [p for p in drawn if p.a12 > 0.0][:count]
    negative = [p for p in drawn if p.a12 < 0.0][:count]
    assert len(positive) == len(negative) == count
    return positive + negative + [Example4Params(p.a11, 0.0, p.a22) for p in drawn[:count]]


_SLICE_TS = np.linspace(1.0, 50.0, _SLICE_POINTS)


def test_probe_points_are_the_reference_curve_to_the_bit():
    for params in _probe_triples(31):
        # the slice and the witness read the first candidate of each n ...
        pts = _probe_points(params, _SLICE_TS)
        ref = np.array([_witness_candidates(params, t)[0] for t in _SLICE_TS])
        assert pts.shape == (_SLICE_POINTS, 2) and pts.tobytes() == ref.tobytes()
        if params.a12 == 0.0:
            continue
        # ... and the growth coefficient the curve of |a12|
        params_abs = Example4Params(params.a11, abs(params.a12), params.a22)
        pts = _probe_points(params_abs, _B_SAMPLE_NS)
        assert pts.tobytes() == np.array([_curve_point(params_abs, n) for n in _B_SAMPLE_NS]).tobytes()


def test_the_signed_density_is_even_to_its_rounding():
    # The Gaussian factor is even to the bit.  The polynomial is even up to
    # its rounding: numpy's x ** k can differ from (-x) ** k in the last bit.
    for params in _probe_triples(32):
        _, poly, A = example4_signed_density(params)
        params_abs = Example4Params(params.a11, abs(params.a12), params.a22)
        pts = np.concatenate([_probe_points(params, _SLICE_TS), _probe_points(params_abs, _B_SAMPLE_NS)])
        _, _, _, magnitude = poly._jet(pts)
        for pt, mag in zip(pts, magnitude):
            assert -0.5 * -pt @ A @ -pt == -0.5 * pt @ A @ pt
            assert abs(poly.eval(-pt) - poly.eval(pt)) <= 4.0 * np.finfo(float).eps * mag


def test_a_mirrored_witness_is_the_four_reflection_search():
    for params in [p for p in _probe_triples(33) if p.a12 < 0.0]:
        value, _, _ = example4_signed_density(params)
        ref = next(
            (pt, float(v), n)
            for n in range(1, 51)
            for pt in _witness_candidates(params, n)
            if (v := value(pt)) < WITNESS_TOL
        )
        w = example4_negative_witness(params, 50)
        assert (w.point.tobytes(), w.value, w.n) == (ref[0].tobytes(), ref[1], ref[2])


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


_CF_QUARTIC = {(2, 2): 1.0, (1, 1): 2.0, (0, 2): -2.0, (2, 0): -1.0, (0, 0): 3.0}
# (x1^2 + x1 x2 - x2 + 2)(2 x2^2 - x1 + 1), expanded.
_QUADRATIC_PRODUCT = {
    (0, 0): 2.0, (0, 1): -1.0, (1, 0): -2.0, (0, 2): 4.0, (1, 1): 2.0, (2, 0): 1.0,
    (0, 3): -2.0, (2, 1): -1.0, (3, 0): -1.0, (1, 3): 2.0, (2, 2): 2.0,
}


@pytest.mark.parametrize("c", [1e-12, 1e-6, 1.0, 1e6])
def test_probe_puts_a_scaled_copy_in_the_class_of_the_original(c):
    # The residual is relative to the largest coefficient.  An absolute one
    # read 1.18e-25 for 1e-12 times the quartic, the class of a factorization.
    quartic = _poly2(_CF_QUARTIC)
    floor = biquadratic_factor_probe(quartic, starts=60).residual
    scaled = biquadratic_factor_probe(quartic * c, starts=60)
    assert scaled.residual > 1e-3
    assert scaled.residual == pytest.approx(floor, rel=1e-6)
    product = _poly2(_QUADRATIC_PRODUCT) * c
    split = biquadratic_factor_probe(product, starts=20)
    assert split.residual <= 1e-20
    assert (split.factor1 * split.factor2).max_abs_coeff_diff(product) <= 1e-8 * 4.0 * c


def _random_factors(rng):
    z = rng.standard_normal(12) * 10.0 ** rng.uniform(-3.0, 3.0)
    return z, rng.standard_normal(15) * 10.0 ** rng.uniform(-3.0, 3.0)


def _rounding_scale(z, target):
    """Sum of the magnitudes that enter each residual coefficient."""
    return (_PRODUCT @ np.abs(z[6:])) @ np.abs(z[:6]) + np.abs(target)


def _ssq_ref(z, target):
    r = product_residual_ref(z, target)
    return float(r @ r)


def test_squared_residual_jet_matches_the_looped_residual():
    # r is affine in each single coordinate, so F = |r|^2 is quadratic along
    # each coordinate and in each pair of coordinates separately: central
    # differences with a unit step give F's gradient and Hessian exactly, up
    # to rounding.
    rng = np.random.default_rng(23)
    steps = np.eye(12)
    for _ in range(40):
        z, target = _random_factors(rng)
        f, g, H, mag = (v[0] for v in _SquaredResidual(target)._jet(z[None, :]))
        assert abs(f - _ssq_ref(z, target)) <= 4.0 * np.finfo(float).eps * mag
        fd_g = np.array([(_ssq_ref(z + e, target) - _ssq_ref(z - e, target)) / 2.0 for e in steps])
        fd_H = np.array([
            [
                (
                    _ssq_ref(z + a + b, target) - _ssq_ref(z + a - b, target)
                    - _ssq_ref(z - a + b, target) + _ssq_ref(z - a - b, target)
                ) / 4.0
                for b in steps
            ]
            for a in steps
        ])
        scale = float(np.sum(_rounding_scale(np.abs(z) + 2.0, target) ** 2))
        assert np.max(np.abs(g - fd_g)) <= 1e-14 * scale
        assert np.max(np.abs(H - fd_H)) <= 1e-14 * scale


@pytest.mark.parametrize("factorable", [False, True], ids=["floor", "product"])
def test_a_start_searched_alone_gives_its_bits_in_the_batch(factorable):
    P = _poly2({(2, 2): 1.0, (1, 1): 2.0, (0, 2): -2.0, (2, 0): -1.0, (0, 0): 3.0})
    if factorable:
        P = _quadratic_from_vector(np.arange(1.0, 7.0)) * _quadratic_from_vector(np.arange(-3.0, 3.0))
    target = np.zeros(len(_QUARTIC_POS))
    for alpha, c in P.terms.items():
        target[_QUARTIC_POS[alpha]] = c
    scale = max(1.0, math.sqrt(float(np.abs(target).max())))
    residual = _SquaredResidual(target)
    starts = np.random.default_rng(26).standard_normal((50, 12)) * scale
    points, values = _local_minima(residual, starts, _BOX_SCALES * scale)
    for start, point, value in zip(starts, points, values):
        alone_point, alone_value = _local_minima(residual, start[None, :], _BOX_SCALES * scale)
        assert np.array_equal(alone_point[0], point) and alone_value[0] == value


def test_probe_floor_matches_the_reference_probe():
    P = _poly2({(2, 2): 1.0, (1, 1): 2.0, (0, 2): -2.0, (2, 0): -1.0, (0, 0): 3.0})
    ref = biquadratic_factor_probe_ref(P, starts=60, seed=0).residual
    assert biquadratic_factor_probe(P, starts=60, seed=0).residual == pytest.approx(ref, rel=1e-9)


def test_probe_and_reference_split_factorable_products():
    rng = np.random.default_rng(25)
    done = 0
    while done < 6:
        z = rng.standard_normal(12)
        P = _quadratic_from_vector(z[:6]) * _quadratic_from_vector(z[6:])
        if P.degree != 4:
            continue
        done += 1
        seed = int(rng.integers(1 << 31))
        assert biquadratic_factor_probe(P, starts=8, seed=seed).residual <= 1e-20
        assert biquadratic_factor_probe_ref(P, starts=8, seed=seed).residual <= 1e-20
