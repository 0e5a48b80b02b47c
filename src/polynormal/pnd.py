"""Polynomial-normal densities: whitening, normalization, evaluation, minima.

A density here is norm_const * sqrt(det A) / (2 pi)^{d/2} * p(x)
* exp(-(x-b)' A (x-b) / 2) with p a nonnegative polynomial of even degree
and A positive definite.  The normalizing constant comes from the constant
Hermite coefficient of the whitened polynomial: under x = L u + b with
L'AL = I, only the constant term of the Hermite expansion survives the
Gaussian integral, so norm_const = 1 / beta_0.  Quadrature is kept as an
independent cross-check (``integral_quadrature``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import hermite_e
from scipy.linalg import solve_triangular
from scipy.optimize import minimize as _scipy_minimize

from .errors import (
    DimensionMismatch,
    NegativeDensity,
    NotPositiveDefinite,
    NotSymmetric,
    ZeroIntegral,
)
from .polyalg import (
    Polynomial,
    affine_substitute,
    polynomial_from_dict,
    polynomial_to_dict,
    to_hermite,
)

SYMMETRY_TOL = 1e-12
WHITEN_TOL = 1e-10
# A scan result this far below zero rejects the polynomial as a density.
NEGATIVITY_TOL = -1e-9


@dataclass(frozen=True)
class QuadForm:
    """Positive definite quadratic form with a whitening factor.

    ``whitener`` is L with L' A L = I; we take L as the inverse transpose
    of the lower Cholesky factor of A.  Any valid L gives the same
    distributional results; this choice is deterministic and cheap.
    """

    dim: int
    matrix: np.ndarray
    whitener: np.ndarray


def make_quadform(A) -> QuadForm:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    asym = float(np.max(np.abs(A - A.T))) if A.size else 0.0
    if asym > SYMMETRY_TOL:
        raise NotSymmetric(f"asymmetry {asym:.3e} exceeds {SYMMETRY_TOL}")
    A = 0.5 * (A + A.T)
    try:
        chol = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"matrix is not positive definite: {exc}") from exc
    L = solve_triangular(chol, np.eye(A.shape[0]), lower=True).T
    resid = float(np.max(np.abs(L.T @ A @ L - np.eye(A.shape[0]))))
    if resid > WHITEN_TOL:
        raise NotPositiveDefinite(f"whitening residual {resid:.3e} exceeds {WHITEN_TOL}")
    A.setflags(write=False)
    L.setflags(write=False)
    return QuadForm(A.shape[0], A, L)


@dataclass(frozen=True)
class PND:
    """Polynomial-normal density model.

    ``scan`` is the (budget, result) of the minimum scan of ``poly`` that
    validated it, or None; ``find_min_poly`` reuses it for the same budget.
    """

    poly: Polynomial
    form: QuadForm
    shift: np.ndarray
    norm_const: float
    scan: tuple | None = field(default=None, compare=False, repr=False)

    @property
    def dim(self) -> int:
        return self.form.dim


@dataclass(frozen=True)
class SearchBudget:
    """Configuration for multi-start minimization over expanding boxes.

    Each round doubles the box half-width, seeds local searches from the
    origin, the previous best point, the best coarse-grid points, and
    ``starts`` uniform random points (default 2*dim + 1), then polishes
    with bounded L-BFGS.  Deterministic for a fixed seed.
    """

    initial_radius: float = 1.0
    doublings: int = 6
    starts: int | None = None
    grid_points: int = 5
    seed: int = 0
    stop_below: float | None = None


@dataclass(frozen=True)
class MinimizationResult:
    point: np.ndarray
    value: float
    attained: bool


def _grid_candidates(p: Polynomial, radius: float, per_axis: int, keep: int = 3):
    if p.dim > 3 or per_axis < 2:
        return []
    axes = [np.linspace(-radius, radius, per_axis)] * p.dim
    pts = np.array(list(itertools.product(*axes)))
    vals = p.eval_many(pts)
    order = np.argsort(vals)[:keep]
    return [pts[i] for i in order]


def _lbfgsb(p: Polynomial, start, radius: float):
    """Local L-BFGS-B minimum of p from start, inside the box [-radius, radius]^d."""
    res = _scipy_minimize(
        p.eval,
        np.clip(np.asarray(start, dtype=float), -radius, radius),
        jac=p.grad_eval,
        method="L-BFGS-B",
        bounds=[(-radius, radius)] * p.dim,
        options={"maxiter": 500, "ftol": 1e-16, "gtol": 1e-12},
    )
    return np.asarray(res.x), float(res.fun)


def polish_minimum(p: Polynomial, start, budget: SearchBudget):
    """Local minimum (point, value) of p from start, inside the box of the
    budget's last scan round.

    The box matters when p is unbounded below: an unbounded descent runs
    off to points so large that rounding in the monomial evaluation makes
    a nonnegative polynomial read negative there.
    """
    return _lbfgsb(p, start, budget.initial_radius * 2.0**budget.doublings)


def minimize_polynomial(p: Polynomial, budget: SearchBudget | None = None) -> MinimizationResult:
    """Best-effort global minimum of p; a witness, not a certificate.

    ``attained`` is False when the search is still improving at the final
    box or the best point sits at the box fringe -- the signature of an
    infimum approached only at infinity.
    """
    budget = budget or SearchBudget()
    d = p.dim
    rng = np.random.default_rng(budget.seed)
    n_starts = budget.starts if budget.starts is not None else 2 * d + 1
    best_pt = np.zeros(d)
    best_val = p.eval(best_pt)
    history = [best_val]
    radius = budget.initial_radius
    for _ in range(budget.doublings + 1):
        seeds = [np.zeros(d), best_pt]
        seeds.extend(_grid_candidates(p, radius, budget.grid_points))
        if n_starts > 0:
            seeds.extend(rng.uniform(-radius, radius, size=(n_starts, d)))
        for s in seeds:
            pt, val = _lbfgsb(p, s, radius)
            if val < best_val:
                best_val, best_pt = val, pt
        history.append(best_val)
        if budget.stop_below is not None and best_val < budget.stop_below:
            return MinimizationResult(best_pt, best_val, True)
        radius *= 2.0
    final_radius = radius / 2.0
    prev = history[-2]
    still_improving = (prev - best_val) > 1e-10 * max(1.0, abs(prev))
    interior = bool(np.max(np.abs(best_pt)) <= 0.9 * final_radius)
    return MinimizationResult(best_pt, best_val, attained=(not still_improving) and interior)


def find_min_poly(pnd: PND, budget: SearchBudget | None = None) -> MinimizationResult:
    """Minimum scan of the density polynomial of a PND.

    Returns the scan that ``make_pnd`` made when it used the same budget.
    """
    budget = budget or SearchBudget()
    if pnd.scan is not None and pnd.scan[0] == budget:
        return pnd.scan[1]
    return minimize_polynomial(pnd.poly, budget)


def make_pnd(p: Polynomial, A, b, budget: SearchBudget | None = None) -> PND:
    """Validate and normalize a polynomial-normal density.

    Rejects polynomials that scan strictly below the negativity tolerance
    and densities whose constant Hermite coefficient is nonpositive.
    """
    return _build_pnd(p, A, b, budget or SearchBudget())


def _build_pnd(p: Polynomial, A, b, budget: SearchBudget | None) -> PND:
    """``make_pnd``'s checks and normalization; with budget None, no scan.

    Skipping the scan is only for callers that have already gated the
    nonnegativity of p themselves.
    """
    form = make_quadform(A)
    b = np.asarray(b, dtype=float).reshape(-1)
    if p.dim != form.dim or b.shape[0] != form.dim:
        raise DimensionMismatch(
            f"polynomial dim {p.dim}, matrix dim {form.dim}, shift length {b.shape[0]}"
        )
    if p.degree % 2 != 0:
        raise ValueError(f"density polynomial must have even degree, got {p.degree}")
    scan = None
    if budget is not None:
        result = minimize_polynomial(p, budget)
        if result.value < NEGATIVITY_TOL:
            raise NegativeDensity(result.point, result.value)
        result.point.setflags(write=False)  # shared by every reuse of the scan
        scan = (budget, result)
    whitened = affine_substitute(p, form.whitener, b)
    beta0 = to_hermite(whitened).coefficient((0,) * form.dim)
    if beta0 <= 0.0:
        raise ZeroIntegral(f"constant Hermite coefficient is {beta0:.6g}")
    b.setflags(write=False)
    return PND(p, form, b, 1.0 / beta0, scan)


def whitened_poly(pnd: PND) -> Polynomial:
    """Normalized polynomial in whitened coordinates: norm_const * p(L u + b)."""
    return pnd.norm_const * affine_substitute(pnd.poly, pnd.form.whitener, pnd.shift)


def _gauss_scale(pnd: PND) -> float:
    return pnd.norm_const * math.sqrt(np.linalg.det(pnd.form.matrix)) / (
        2.0 * math.pi
    ) ** (pnd.dim / 2.0)


def density(pnd: PND, x) -> float:
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != pnd.dim:
        raise DimensionMismatch(f"point has length {x.shape[0]}, expected {pnd.dim}")
    r = x - pnd.shift
    return _gauss_scale(pnd) * pnd.poly.eval(x) * math.exp(-0.5 * r @ pnd.form.matrix @ r)


def density_many(pnd: PND, pts: np.ndarray) -> np.ndarray:
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1) if pnd.dim == 1 else pts.reshape(1, -1)
    r = pts - pnd.shift
    quad = np.einsum("ni,ij,nj->n", r, pnd.form.matrix, r)
    return _gauss_scale(pnd) * pnd.poly.eval_many(pts) * np.exp(-0.5 * quad)


def gauss_hermite_nodes(dim: int, n: int):
    """Tensorized probabilists' Gauss-Hermite rule for E over N(0, I_dim)."""
    x, w = hermite_e.hermegauss(n)
    w = w / math.sqrt(2.0 * math.pi)
    pts = np.array(list(itertools.product(*([x] * dim))))
    wts = np.prod(np.array(list(itertools.product(*([w] * dim)))), axis=1)
    return pts, wts


def integral_quadrature(pnd: PND, nodes: int | None = None) -> float:
    """Integral of the density by Gauss-Hermite quadrature in whitened coords.

    Exact for the polynomial degree whenever nodes > degree / 2; default
    follows the degree + 20 rule so it doubles as a rounding cross-check
    of the Hermite normalization path.
    """
    n = nodes if nodes is not None else pnd.poly.degree + 20
    u, w = gauss_hermite_nodes(pnd.dim, n)
    x = u @ pnd.form.whitener.T + pnd.shift
    return float(w @ pnd.poly.eval_many(x)) * pnd.norm_const


def write_density_csv(path, pts: np.ndarray, values: np.ndarray):
    """Density slice export: header x1,...,xd,f."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    d = pts.shape[1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([f"x{j + 1}" for j in range(d)] + ["f"]) + "\n")
        for row, v in zip(pts, values):
            fh.write(",".join(repr(float(c)) for c in row) + f",{float(v)!r}\n")


# -- JSON schema ---------------------------------------------------------------
# {"poly": <Polynomial>, "A": [[...], ...], "b": [...]}; matrices row-major.


def pnd_to_dict(pnd: PND) -> dict:
    return {
        "poly": polynomial_to_dict(pnd.poly),
        "A": [[float(v) for v in row] for row in pnd.form.matrix],
        "b": [float(v) for v in pnd.shift],
    }


def pnd_from_dict(data, budget: SearchBudget | None = None) -> PND:
    poly = polynomial_from_dict(data["poly"])
    return make_pnd(poly, np.asarray(data["A"], dtype=float), np.asarray(data["b"], dtype=float), budget)
