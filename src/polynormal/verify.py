"""Independent numerical verification tools.

Three families of checks live here:

* ``convolution_check`` -- confirms a claimed factorization in density
  space: the convolution of the two factors, computed by Gauss-Hermite
  quadrature against the combined Gaussian weight, must reproduce the
  original density pointwise.

* the ``example4_*`` functions -- a bundled two-dimensional counterexample
  family built from the density (1/(6 pi)) [(x1 x2 - 1)^2 + x2^2]
  exp(-|x|^2/2).  Splitting any Gaussian exponent part out of its
  characteristic function leaves a candidate whose inverse transform goes
  negative; the scan along a designated curve exhibits the negative value,
  and the closed-form coefficient of the quadratic growth term (negative
  for every admissible parameter triple) explains why a witness always
  exists.  The candidate's polynomial is recomputed through the general
  inverse transform rather than transcribed, and the closed-form growth
  coefficient is cross-checked against a numerical extraction from the
  recomputed polynomial.

* ``biquadratic_factor_probe`` -- multistart least squares over products of
  two bivariate quadratics; failure to reach a small residual is evidence
  (not proof) that a quartic does not split into quadratic factors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .charfn import CharFn, inverse_cf_parts, make_charfn
from .errors import DimensionMismatch, NoWitnessFound, QuadratureOrderTooLow
from .decompose import GaussianFactor
from .pnd import PND, _build_pnd, _gauss_scale, density_many, gauss_hermite_nodes, make_quadform
from .polyalg import Polynomial

WITNESS_TOL = -1e-10


@dataclass(frozen=True)
class Example4Params:
    """Admissible Gaussian-exponent split (a11, a12, a22) for the bundled
    counterexample; both the extracted part and its complement must stay
    positive definite."""

    a11: float
    a12: float
    a22: float


def validate_example4_params(params: Example4Params) -> None:
    a11, a12, a22 = params.a11, params.a12, params.a22
    checks = [
        (a11 > 0.0, "a11 > 0"),
        (a22 > 0.0, "a22 > 0"),
        (a11 * a22 - a12**2 > 0.0, "a11*a22 - a12^2 > 0"),
        (1.0 - a11 > 0.0, "1 - a11 > 0"),
        (1.0 - a22 > 0.0, "1 - a22 > 0"),
        ((1.0 - a11) * (1.0 - a22) - a12**2 > 0.0, "(1-a11)*(1-a22) - a12^2 > 0"),
    ]
    for ok, name in checks:
        if not ok:
            raise ValueError(f"parameter constraint violated: {name}")


@dataclass(frozen=True)
class ConvReport:
    grid: np.ndarray
    max_abs_error: float
    quadrature_order: int


def _as_pnd(g) -> PND:
    """Accept a PND directly or promote a Gaussian factor to one."""
    if isinstance(g, PND):
        return g
    if isinstance(g, GaussianFactor):
        A = np.linalg.inv(g.cov)
        return _build_pnd(Polynomial.constant(len(A), 1.0), A, g.mean, None)
    raise TypeError(f"expected PND or GaussianFactor, got {type(g)!r}")


def convolution_check(f: PND, g1, g2, grid, quadrature_order: int | None = None) -> ConvReport:
    """Compare (g1 * g2)(x) against f(x) on a grid of points.

    The two Gaussian exponents are merged by completing the square, which
    leaves a polynomial integrand against a single Gaussian weight; the
    tensor Gauss-Hermite rule then evaluates the convolution exactly
    provided 2*order - 1 exceeds the combined polynomial degree.
    """
    g1 = _as_pnd(g1)
    g2 = _as_pnd(g2)
    d = f.dim
    if g1.dim != d or g2.dim != d:
        raise DimensionMismatch(f"dimensions {f.dim}, {g1.dim}, {g2.dim} differ")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim == 1:
        grid = grid.reshape(-1, 1) if d == 1 else grid.reshape(1, -1)
    combined_degree = g1.poly.degree + g2.poly.degree
    min_order = combined_degree // 2 + 1
    order = quadrature_order if quadrature_order is not None else min_order + 8
    if order < min_order:
        raise QuadratureOrderTooLow(
            f"order {order} cannot integrate combined degree {combined_degree}"
        )
    A1, b1 = g1.form.matrix, g1.shift
    A2, b2 = g2.form.matrix, g2.shift
    S = A1 + A2
    Sform = make_quadform(S)
    W = Sform.whitener  # W' S W = I
    u, wts = gauss_hermite_nodes(d, order)
    c1, c2 = _gauss_scale(g1), _gauss_scale(g2)
    det_s = np.linalg.det(S)
    values = np.empty(grid.shape[0])
    for i, x in enumerate(grid):
        r = x - b1
        m = np.linalg.solve(S, A1 @ r + A2 @ b2)
        expo = -0.5 * (r @ A1 @ r + b2 @ A2 @ b2 - m @ S @ m)
        y = m + u @ W.T
        integrand = g1.poly.eval_many(x - y) * g2.poly.eval_many(y)
        mean_val = float(wts @ integrand)
        values[i] = c1 * c2 * math.exp(expo) * (2.0 * math.pi) ** (d / 2.0) / math.sqrt(det_s) * mean_val
    target = density_many(f, grid)
    err = float(np.max(np.abs(values - target)))
    return ConvReport(grid, err, order)


# -- the bundled counterexample family ----------------------------------------

# Polynomial part of the counterexample's characteristic function in the
# (i t)^alpha representation: (1/3) [t1^2 t2^2 + 2 t1 t2 - 2 t2^2 - t1^2 + 3].
_CANDIDATE_BETA = {
    (2, 2): 1.0 / 3.0,
    (1, 1): -2.0 / 3.0,
    (0, 2): 2.0 / 3.0,
    (2, 0): 1.0 / 3.0,
    (0, 0): 1.0,
}


def example4_candidate_cf(params: Example4Params) -> CharFn:
    """Candidate factor: the full polynomial part with only part of the
    Gaussian exponent."""
    validate_example4_params(params)
    sigma = np.array([[params.a11, params.a12], [params.a12, params.a22]])
    return make_charfn(Polynomial.from_terms(2, _CANDIDATE_BETA), sigma, np.zeros(2))


def example4_B(params: Example4Params) -> float:
    """Conservative closed form of the n^2 growth coefficient along the
    probe curve.

    Negative for every admissible triple, which is what forces the
    candidate's inverse transform below zero.  It understates the exact
    coefficient by a12/a22 (see ``example4_B_exact``); both forms stay
    negative wherever the parameters are admissible.  a12 enters through
    its absolute value; a12 = 0 is the separate axis branch.
    """
    validate_example4_params(params)
    a12 = abs(params.a12)
    if a12 == 0.0:
        raise ValueError("a12 must be nonzero; the a12 = 0 case follows the axis branch")
    a11, a22 = params.a11, params.a22
    det = a11 * a22 - a12**2
    return a22 / a12 - a12 / a22 - 1.0 / a12 - a12 / det


def example4_B_exact(params: Example4Params) -> float:
    """Exact n^2 growth coefficient: (a22 - 1)/|a12| - |a12|/det.

    Both terms are negative whenever the parameters are admissible, so the
    sign conclusion needs no case analysis.  Cross-checked against the
    numerical extraction from the recomputed polynomial
    (``example4_B_from_density``).
    """
    validate_example4_params(params)
    a12 = abs(params.a12)
    if a12 == 0.0:
        raise ValueError("a12 must be nonzero; the a12 = 0 case follows the axis branch")
    det = params.a11 * params.a22 - a12**2
    return (params.a22 - 1.0) / a12 - a12 / det


def example4_signed_density(params: Example4Params):
    """Recomputed inverse transform of the candidate, with no density gate.

    Returns (value, poly, A): the signed density as a function of a point,
    and the polynomial and matrix of the inverse transform.
    """
    poly, A, _ = inverse_cf_parts(example4_candidate_cf(params))
    scale = math.sqrt(np.linalg.det(A)) / (2.0 * math.pi)

    def value(x):
        x = np.asarray(x, dtype=float)
        return scale * poly.eval(x) * math.exp(-0.5 * x @ A @ x)

    return value, poly, A


def _curve_point(params: Example4Params, n: float) -> np.ndarray:
    """Probe-curve point in original coordinates, defined for a12 > 0."""
    a11, a12, a22 = params.a11, params.a12, params.a22
    det = a11 * a22 - a12**2
    t = float(n)
    y = (t - 1.0 / t) * math.sqrt(a12)
    big_x = t * math.sqrt(det / a12)
    x2 = math.sqrt(a22) * y
    x1 = math.sqrt(a11 - a12**2 / a22) * big_x + (a12 / a22) * x2
    return np.array([x1, x2])


def _witness_candidates(params: Example4Params, n: int) -> list:
    a12 = params.a12
    if a12 == 0.0:
        # Quartic axis term vanishes and the quadratic one is negative, so
        # the polynomial goes negative along the first axis.
        x1 = math.sqrt(params.a11) * n
        return [np.array([x1, 0.0])]
    base = _curve_point(Example4Params(params.a11, abs(a12), params.a22), n)
    if a12 > 0.0:
        return [base]
    # Mirrored exponent: probe the coordinate reflections of the curve.
    return [
        base * np.array([1.0, -1.0]),
        base * np.array([-1.0, 1.0]),
        base,
        -base,
    ]


@dataclass(frozen=True)
class Witness:
    point: np.ndarray
    value: float
    n: int


def example4_negative_witness(params: Example4Params, n_max: int = 50) -> Witness:
    """First probe-curve point where the candidate's inverse transform is
    negative; raises NoWitnessFound when the scan range is too short."""
    validate_example4_params(params)
    value, _, _ = example4_signed_density(params)
    for n in range(1, n_max + 1):
        for pt in _witness_candidates(params, n):
            v = value(pt)
            if v < WITNESS_TOL:
                return Witness(pt, float(v), n)
    raise NoWitnessFound(n_max)


def example4_B_from_density(params: Example4Params, n_values=(2.0, 3.0, 4.0)) -> float:
    """Numerical extraction of the n^2 growth coefficient.

    Along the probe curve the recomputed polynomial is exactly of the form
    (B n^2 + c0 + c2 / n^2) / 3, so three curve samples determine B; small
    sample values keep the solve well conditioned.  Computed on the |a12|
    configuration, matching the closed forms.
    """
    validate_example4_params(params)
    if params.a12 == 0.0:
        raise ValueError("a12 must be nonzero for the growth-coefficient extraction")
    params_abs = Example4Params(params.a11, abs(params.a12), params.a22)
    _, poly, _ = example4_signed_density(params_abs)
    ns = np.asarray(n_values, dtype=float)
    basis = np.stack([ns**2, np.ones_like(ns), ns**-2.0], axis=1)
    samples = np.array([poly.eval(_curve_point(params_abs, n)) for n in ns])
    coeffs = np.linalg.solve(basis, samples)
    return 3.0 * float(coeffs[0])


def example4_witness_slice(params: Example4Params, n_max: int, points: int = 200) -> np.ndarray:
    """Probe-curve sample points for density slice export."""
    validate_example4_params(params)
    ts = np.linspace(1.0, float(n_max), points)
    if params.a12 == 0.0:
        return np.stack([math.sqrt(params.a11) * ts, np.zeros_like(ts)], axis=1)
    params_abs = Example4Params(params.a11, abs(params.a12), params.a22)
    pts = np.array([_curve_point(params_abs, t) for t in ts])
    if params.a12 < 0.0:
        pts = pts * np.array([1.0, -1.0])
    return pts


# -- biquadratic factorization probe -------------------------------------------

_QUAD_EXPS = [(2, 0), (0, 2), (1, 1), (1, 0), (0, 1), (0, 0)]
_QUARTIC_EXPS = [
    alpha
    for alpha in itertools.product(range(5), range(5))
    if sum(alpha) <= 4
]
_QUARTIC_EXPS.sort(key=lambda a: (sum(a), a))
_QUARTIC_POS = {alpha: i for i, alpha in enumerate(_QUARTIC_EXPS)}


def _quadratic_from_vector(z) -> Polynomial:
    return Polynomial.from_terms(2, dict(zip(_QUAD_EXPS, z)))


@dataclass(frozen=True)
class ProbeResult:
    residual: float
    factor1: Polynomial
    factor2: Polynomial


def biquadratic_factor_probe(P: Polynomial, starts: int = 200, seed: int = 0) -> ProbeResult:
    """Multistart least-squares fit of P by a product of two quadratics.

    The residual is coefficient-space: expand the product, subtract P's
    coefficients over all bivariate exponents of total degree at most 4,
    and sum the squares.  Returns the best residual and the factors that
    achieve it; small residual means a factorization was found, a stubborn
    floor across many starts is evidence against one.
    """
    from scipy.optimize import least_squares  # scipy loads on first use, not on import
    if P.dim != 2:
        raise DimensionMismatch(f"polynomial must be bivariate, got dim {P.dim}")
    if P.degree > 4:
        raise ValueError(f"polynomial must have total degree at most 4, got {P.degree}")
    if starts < 1:
        raise ValueError(f"starts must be at least 1, got {starts}")
    target = np.zeros(len(_QUARTIC_EXPS))
    for alpha, c in P.terms.items():
        target[_QUARTIC_POS[alpha]] = c

    # Precomputed positions: product coefficient k gets z1[i] * z2[j].
    pair_pos = [
        (i, j, _QUARTIC_POS[(e1[0] + e2[0], e1[1] + e2[1])])
        for i, e1 in enumerate(_QUAD_EXPS)
        for j, e2 in enumerate(_QUAD_EXPS)
    ]

    def residual(z):
        out = -target.copy()
        z1, z2 = z[:6], z[6:]
        for i, j, k in pair_pos:
            out[k] += z1[i] * z2[j]
        return out

    rng = np.random.default_rng(seed)
    scale = max(1.0, math.sqrt(float(np.abs(target).max())))
    best_ssq = math.inf
    best_z = None
    for _ in range(starts):
        z0 = rng.standard_normal(12) * scale
        res = least_squares(
            residual, z0, method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=2000
        )
        ssq = float(np.sum(res.fun**2))
        if ssq < best_ssq:
            best_ssq = ssq
            best_z = res.x
    return ProbeResult(best_ssq, _quadratic_from_vector(best_z[:6]), _quadratic_from_vector(best_z[6:]))
