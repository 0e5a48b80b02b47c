"""Independent numerical verification tools.

Three families of checks live here:

* ``convolution_check`` -- confirms a claimed factorization in density
  space: the convolution of the two factors, computed by Gauss-Hermite
  quadrature against the combined Gaussian weight, must reproduce the
  original density pointwise.  The rule has the minimum order exact for
  the factors' degrees, and the weight's form is factored once, by
  ``make_quadform``, like every Gaussian form here.

* the ``example4_*`` functions -- a bundled two-dimensional counterexample
  family built from the density (1/(6 pi)) [(x1 x2 - 1)^2 + x2^2]
  exp(-|x|^2/2).  Splitting any Gaussian exponent part out of its
  characteristic function leaves a candidate whose inverse transform goes
  negative.  One probe curve, ``_probe_points``, exhibits the negative value
  and is read by the witness search, the growth-coefficient extraction and
  the density slice; the closed-form coefficient of the quadratic growth
  term (negative for every admissible parameter triple) explains why a
  witness always exists.  The candidate's polynomial is recomputed through
  the general inverse transform rather than transcribed, and the
  closed-form growth coefficient is cross-checked against a numerical
  extraction from the recomputed polynomial.

* ``biquadratic_factor_probe`` -- the scan's local search, from many starts
  at once, of the least squared coefficient residual of a product of two
  bivariate quadratics, relative to the quartic's largest coefficient;
  failure to reach a small residual is evidence (not proof) that a quartic
  does not split into quadratic factors.  The product is one constant
  bilinear tensor, so the exact derivatives are contractions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .charfn import CharFn, _build_charfn, _inverse_parts
from .errors import DimensionMismatch, NoWitnessFound
from .decompose import GaussianFactor
from .pnd import PND, _build_pnd, _gauss_scale, _local_minima, density_many, gauss_hermite_nodes, make_quadform
from .polyalg import Polynomial

WITNESS_TOL = -1e-10
_B_SAMPLE_NS = (2.0, 3.0, 4.0)  # probe-curve parameters that determine B numerically
_SLICE_POINTS = 200  # probe-curve points in a density slice export


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
        form = make_quadform(g.cov).inverse()  # the precision, read from the covariance's factors
        return _build_pnd(Polynomial.constant(form.dim, 1.0), form, g.mean, None)
    raise TypeError(f"expected PND or GaussianFactor, got {type(g)!r}")


def convolution_check(f: PND, g1, g2, grid) -> ConvReport:
    """Compare (g1 * g2)(x) against f(x) on a grid of points (rows of length d).

    The two Gaussian exponents are merged by completing the square, which
    leaves a polynomial integrand against a single Gaussian weight with
    precision S = A1 + A2; the tensor Gauss-Hermite rule of the minimum
    order whose 2*order - 1 exceeds the combined polynomial degree then
    evaluates the convolution exactly.
    """
    g1 = _as_pnd(g1)
    g2 = _as_pnd(g2)
    d = f.dim
    if g1.dim != d or g2.dim != d:
        raise DimensionMismatch(f"dimensions {f.dim}, {g1.dim}, {g2.dim} differ")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim == 1:
        grid = grid.reshape(-1, 1) if d == 1 else grid.reshape(1, -1)
    if grid.ndim != 2 or grid.shape[1] != d:
        raise DimensionMismatch(f"grid of shape {grid.shape}: expected rows of length {d}")
    order = (g1.poly.degree + g2.poly.degree) // 2 + 1
    A1, b1 = g1.form.matrix, g1.shift
    A2, b2 = g2.form.matrix, g2.shift
    S = make_quadform(A1 + A2)
    W = S.whitener  # W' S W = I, so S^{-1} = W W'
    u, wts = gauss_hermite_nodes(d, order)
    # r = x - b1 - b2: the weight is centered at y = b2 + S^{-1} A1 r, and the exponent
    # left, r' A1 S^{-1} A2 r = (W' A1 r).(W' A2 r), cancels nothing when the shifts are large.
    r = grid - b1 - b2
    z1, z2 = r @ A1 @ W, r @ A2 @ W
    expo = -0.5 * np.einsum("ni,ni->n", z1, z2)
    ys = (b2 + z1 @ W.T)[:, None, :] + u @ W.T  # each grid point's nodes
    means = np.array([wts @ (g1.poly.eval_many(x - y) * g2.poly.eval_many(y)) for x, y in zip(grid, ys)])
    scale = _gauss_scale(g1) * _gauss_scale(g2) * (2.0 * math.pi) ** (d / 2.0) / S.sqrt_det
    values = scale * np.exp(expo) * means
    err = float(np.max(np.abs(values - density_many(f, grid))))
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


def _candidate(params: Example4Params):
    """The candidate's polynomial part and its exponent sigma, factored."""
    validate_example4_params(params)
    sigma = make_quadform([[params.a11, params.a12], [params.a12, params.a22]])
    return Polynomial.from_terms(2, _CANDIDATE_BETA), sigma


def example4_candidate_cf(params: Example4Params) -> CharFn:
    """Candidate factor: the full polynomial part with only part of the
    Gaussian exponent."""
    return _build_charfn(*_candidate(params), np.zeros(2))


def example4_B_exact(params: Example4Params) -> float:
    """Exact n^2 growth coefficient along the probe curve:
    (a22 - 1)/|a12| - |a12|/det.

    Both terms are negative whenever the parameters are admissible, so the
    sign conclusion needs no case analysis; that negative coefficient is
    what forces the candidate's inverse transform below zero.  a12 = 0 is
    the separate axis branch.  Cross-checked against the
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
    """Recomputed inverse transform of the candidate, its sigma factored
    once, with no density gate.

    Returns (value, poly, A): the signed density as a function of a point,
    and the polynomial and matrix of the inverse transform.
    """
    poly, form, _ = _inverse_parts(*_candidate(params), np.zeros(2))
    A, scale = form.matrix, form.sqrt_det / (2.0 * math.pi)

    def value(x):
        x = np.asarray(x, dtype=float)
        return scale * poly.eval(x) * math.exp(-0.5 * x @ A @ x)

    return value, poly, A


def _probe_points(params: Example4Params, ts) -> np.ndarray:
    """Probe-curve points at the parameters ``ts``, one row each: the x1 axis
    when a12 = 0 (the quartic axis term vanishes and the quadratic one is
    negative), otherwise the curve of |a12|, with x2 negated when a12 < 0."""
    a11, a12, a22 = params.a11, abs(params.a12), params.a22
    t = np.asarray(ts, dtype=float)
    if a12 == 0.0:
        return np.stack([math.sqrt(a11) * t, np.zeros_like(t)], axis=1)
    y = (t - 1.0 / t) * math.sqrt(a12)
    big_x = t * math.sqrt((a11 * a22 - a12**2) / a12)
    x2 = math.sqrt(a22) * y
    x1 = math.sqrt(a11 - a12**2 / a22) * big_x + (a12 / a22) * x2
    return np.stack([x1, -x2 if params.a12 < 0.0 else x2], axis=1)


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
    # The candidate density is even, f(-x) = f(x), so the point reflections
    # of these curves would repeat their values up to rounding.
    curves = [params] if params.a12 >= 0.0 else [params, Example4Params(params.a11, -params.a12, params.a22)]
    for n in range(1, n_max + 1):
        for curve in curves:
            pt = _probe_points(curve, [n])[0]
            v = value(pt)
            if v < WITNESS_TOL:
                return Witness(pt, float(v), n)
    raise NoWitnessFound(n_max)


def example4_B_from_density(params: Example4Params) -> float:
    """Numerical extraction of the n^2 growth coefficient.

    Along the probe curve the recomputed polynomial is exactly of the form
    (B n^2 + c0 + c2 / n^2) / 3, so the three curve samples at
    ``_B_SAMPLE_NS`` determine B; small sample values keep the solve well
    conditioned.  Computed on the |a12| configuration, matching the closed
    forms.
    """
    validate_example4_params(params)
    if params.a12 == 0.0:
        raise ValueError("a12 must be nonzero for the growth-coefficient extraction")
    params_abs = Example4Params(params.a11, abs(params.a12), params.a22)
    _, poly, _ = example4_signed_density(params_abs)
    ns = np.asarray(_B_SAMPLE_NS)
    basis = np.stack([ns**2, np.ones_like(ns), ns**-2.0], axis=1)
    samples = np.array([poly.eval(pt) for pt in _probe_points(params_abs, ns)])
    coeffs = np.linalg.solve(basis, samples)
    return 3.0 * float(coeffs[0])


def example4_witness_slice(params: Example4Params, n_max: int) -> np.ndarray:
    """``_SLICE_POINTS`` probe-curve sample points for density slice export."""
    validate_example4_params(params)
    return _probe_points(params, np.linspace(1.0, float(n_max), _SLICE_POINTS))


# -- biquadratic factorization probe -------------------------------------------

_QUAD_EXPS = [(2, 0), (0, 2), (1, 1), (1, 0), (0, 1), (0, 0)]
_QUARTIC_EXPS = sorted((a for a in itertools.product(range(5), range(5)) if sum(a) <= 4), key=lambda a: (sum(a), a))
_QUARTIC_POS = {alpha: i for i, alpha in enumerate(_QUARTIC_EXPS)}

# _PRODUCT[k, i, j] = 1 where x^e_i x^e_j is quartic monomial k, so the
# product of quadratics with coefficients z1, z2 has coefficients
# (_PRODUCT @ z2) @ z1.
_PRODUCT = np.array(
    [[[float((a[0] + b[0], a[1] + b[1]) == k) for b in _QUAD_EXPS] for a in _QUAD_EXPS] for k in _QUARTIC_EXPS]
)


# (z1, z2) -> (c z1, z2 / c) leaves the product unchanged, so a factorization
# can be balanced, and a balanced one of P / max |P coefficient| lies in the
# search box of this half-width.
_BOX_SCALES = 64.0


@dataclass(frozen=True)
class _SquaredResidual:
    """F(z) = |r(z)|^2, r(z) the product of the quadratics z[:6] and z[6:] minus
    the target, with what ``pnd._local_minima`` reads of a polynomial.  r is
    bilinear: its Jacobian J is ``_PRODUCT`` contracted with either factor and
    the Hessian of r_k is the constant block ``_PRODUCT[k]``, so the jet is F,
    2 J'r and 2 (J'J + sum_k r_k Hess r_k), exactly.  r_k rounds by a few ulps
    of m_k, the sum of its terms' magnitudes: F's rounding bound is 2 |r|.m."""

    target: np.ndarray
    dim = 12

    def _jet(self, z: np.ndarray):
        # einsum sums each start's row alone, in one order whatever the batch,
        # so a start's jet does not depend on it.  J's blocks select entries of z.
        z1, z2 = z[:, :6], z[:, 6:]
        d1 = np.einsum("kij,nj->nki", _PRODUCT, z2)
        jac = np.concatenate([d1, np.einsum("kij,ni->nkj", _PRODUCT, z1)], axis=2)
        r = np.einsum("nki,ni->nk", d1, z1) - self.target
        hess = np.einsum("nka,nkb->nab", jac, jac)
        hess[:, :6, 6:] += np.einsum("nk,kij->nij", r, _PRODUCT)
        hess[:, 6:, :6] += np.einsum("nk,kij->nji", r, _PRODUCT)
        m = np.einsum("nki,ni->nk", np.abs(d1), np.abs(z1)) + np.abs(self.target)
        f, g = np.einsum("nk,nk->n", r, r), np.einsum("nka,nk->na", jac, r)
        return f, 2.0 * g, 2.0 * hess, 2.0 * np.einsum("nk,nk->n", np.abs(r), m)


def _quadratic_from_vector(z) -> Polynomial:
    return Polynomial.from_terms(2, dict(zip(_QUAD_EXPS, z)))


@dataclass(frozen=True)
class ProbeResult:
    residual: float
    factor1: Polynomial
    factor2: Polynomial


def biquadratic_factor_probe(P: Polynomial, starts: int = 200, seed: int = 0) -> ProbeResult:
    """Multistart fit of P by a product of two quadratics: the lowest sum of
    squares of the product's coefficients minus P's, over the bivariate
    exponents of total degree at most 4, relative to the square of P's
    largest coefficient, and factors whose product is the fit of P.  The
    scan's kernel searches all starts at once on that sum for P divided by
    its largest coefficient (``_SquaredResidual``), each start as if alone,
    so c P gives the residual of P, up to rounding, for every c > 0.  A small
    residual means a factorization was found; a stubborn floor across many
    starts is evidence against one.
    """
    if P.dim != 2:
        raise DimensionMismatch(f"polynomial must be bivariate, got dim {P.dim}")
    if P.degree > 4:
        raise ValueError(f"polynomial must have total degree at most 4, got {P.degree}")
    if starts < 1:
        raise ValueError(f"starts must be at least 1, got {starts}")
    target = np.zeros(len(_QUARTIC_EXPS))
    for alpha, c in P.terms.items():
        target[_QUARTIC_POS[alpha]] = c
    largest = float(np.abs(target).max()) or 1.0
    z0 = np.random.default_rng(seed).standard_normal((starts, 12))
    z, ssq = _local_minima(_SquaredResidual(target / largest), z0, _BOX_SCALES)
    best = int(np.argmin(ssq))
    z = z[best] * math.sqrt(largest)
    return ProbeResult(float(ssq[best]), _quadratic_from_vector(z[:6]), _quadratic_from_vector(z[6:]))
