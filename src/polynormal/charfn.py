"""Exact transforms between polynomial-normal densities and their
characteristic functions.

A characteristic function is stored as sum_a beta_a (i t)^a
* exp(-t' Sigma t / 2) * exp(i b . t) with real beta_a.  Keeping the
polynomial part in the (i t)^a representation keeps all coefficient
arithmetic real; the i^{|a|} bookkeeping is confined to ``real_imag_parts``.

Forward convention: phi(t) = integral of exp(i t . x) f(x) dx.  For a
density with quadratic form A, whitener L and shift b:

    phi(t) = g(L' (i t)) exp(-t' A^{-1} t / 2) exp(i b . t),

where g carries the Hermite coefficients of the normalized whitened
polynomial.  The substitution t -> L't is degree-homogeneous, so the
expanded coefficients against (i t)^a stay real.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DimensionMismatch, ZeroIntegral
from .pnd import PND, SearchBudget, make_pnd, make_quadform
from .polyalg import (
    HermiteCoeffs,
    Polynomial,
    _layout,
    _wrap,
    affine_substitute,
    from_hermite,
    polynomial_from_dict,
    polynomial_to_dict,
)

# phi(0) must be 1; inputs off by more than this are rescaled with a warning.
NORMALIZATION_TOL = 1e-9


@dataclass(frozen=True)
class CharFn:
    """Characteristic function of a (candidate) polynomial-normal density."""

    dim: int
    beta: Polynomial  # real coefficients of (i t)^alpha
    sigma: np.ndarray  # exponent matrix: exp(-t' sigma t / 2)
    shift: np.ndarray  # phase: exp(i shift . t)


def make_charfn(beta: Polynomial, sigma, shift) -> CharFn:
    form = make_quadform(sigma)  # validates symmetry and positive definiteness
    shift = np.asarray(shift, dtype=float).reshape(-1)
    if beta.dim != form.dim or shift.shape[0] != form.dim:
        raise DimensionMismatch(
            f"beta dim {beta.dim}, sigma dim {form.dim}, shift length {shift.shape[0]}"
        )
    beta0 = beta.coefficient((0,) * beta.dim)
    if beta0 <= 0.0:
        raise ZeroIntegral(f"constant coefficient is {beta0:.6g}; phi(0) cannot be 1")
    if abs(beta0 - 1.0) > NORMALIZATION_TOL:
        warnings.warn(
            f"rescaling characteristic function: constant coefficient was {beta0:.6g}",
            stacklevel=2,
        )
    if beta0 != 1.0:
        beta = beta * (1.0 / beta0)
    shift.setflags(write=False)
    return CharFn(form.dim, beta, form.matrix, shift)


def gaussian_cf(mean, cov) -> CharFn:
    """Characteristic function of a Gaussian with the given mean and covariance."""
    mean = np.asarray(mean, dtype=float).reshape(-1)
    return make_charfn(Polynomial.constant(mean.shape[0], 1.0), cov, mean)


def forward_cf(pnd: PND) -> CharFn:
    """Exact characteristic function of a polynomial-normal density, from ``PND.hermite``."""
    L = pnd.form.whitener
    g = Polynomial.from_terms(pnd.dim, pnd.hermite.coeffs)
    beta = affine_substitute(g, L.T, np.zeros(pnd.dim))
    sigma = L @ L.T  # = A^{-1}
    return make_charfn(beta, sigma, pnd.shift)


def inverse_cf_parts(cf: CharFn):
    """Inverse transform without the density gate.

    Returns (poly, A, b) of the signed function
    sqrt(det A) / (2 pi)^{d/2} * poly(x) * exp(-(x-b)' A (x-b) / 2),
    which is a genuine density iff poly is nonnegative.
    """
    C = np.linalg.cholesky(cf.sigma)  # C C' = sigma, so C' A C = I
    A = np.linalg.inv(cf.sigma)
    A = 0.5 * (A + A.T)
    d = cf.dim
    g = affine_substitute(cf.beta, np.linalg.inv(C.T), np.zeros(d))
    ptilde = from_hermite(HermiteCoeffs.from_coeffs(d, g.terms))
    Cinv = np.linalg.inv(C)
    poly = affine_substitute(ptilde, Cinv, -Cinv @ cf.shift)
    return poly, A, np.array(cf.shift)


def inverse_cf(cf: CharFn, budget: SearchBudget | None = None) -> PND:
    """Inverse transform; raises NegativeDensity when the candidate is not a
    characteristic function of any polynomial-normal density."""
    poly, A, b = inverse_cf_parts(cf)
    return make_pnd(poly, A, b, budget)


def cf_eval(cf: CharFn, t) -> complex:
    t = np.asarray(t, dtype=float).reshape(-1)
    if t.shape[0] != cf.dim:
        raise DimensionMismatch(f"point has length {t.shape[0]}, expected {cf.dim}")
    re, im = real_imag_parts(cf)
    z = complex(re.eval(t), im.eval(t))
    return z * np.exp(-0.5 * t @ cf.sigma @ t) * np.exp(1j * (cf.shift @ t))


def cf_multiply(a: CharFn, b: CharFn) -> CharFn:
    """Product of characteristic functions (convolution of densities)."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions {a.dim} and {b.dim} differ")
    return make_charfn(a.beta * b.beta, a.sigma + b.sigma, a.shift + b.shift)


def real_imag_parts(cf: CharFn):
    """Polynomial part expanded against ordinary powers of t.

    Returns (re, im) with sum beta_a (i t)^a = re(t) + i * im(t).
    """
    arr = cf.beta.terms.dense()
    k = _layout(arr.ndim, arr.shape[0] - 1).total % 4  # i^k = 1, i, -1, -i
    return (
        _wrap(Polynomial, arr * np.array([1.0, 0.0, -1.0, 0.0])[k]),
        _wrap(Polynomial, arr * np.array([0.0, 1.0, 0.0, -1.0])[k]),
    )


# -- JSON schema ---------------------------------------------------------------
# {"dim": d, "beta": [{"alpha": [...], "coef": c}], "Sigma": [[...]], "b": [...]}
# beta holds the coefficients of (i t)^alpha.


def charfn_to_dict(cf: CharFn) -> dict:
    return {
        "dim": cf.dim,
        "beta": polynomial_to_dict(cf.beta)["terms"],
        "Sigma": [[float(v) for v in row] for row in cf.sigma],
        "b": [float(v) for v in cf.shift],
    }


def charfn_from_dict(data: Mapping) -> CharFn:
    dim = int(data["dim"])
    beta = polynomial_from_dict({"dim": dim, "terms": data["beta"]})
    return make_charfn(beta, np.asarray(data["Sigma"], dtype=float), np.asarray(data["b"], dtype=float))


def charfn_to_json(cf: CharFn) -> str:
    return json.dumps(charfn_to_dict(cf), indent=2, sort_keys=True)


def charfn_from_json(text: str) -> CharFn:
    return charfn_from_dict(json.loads(text))
