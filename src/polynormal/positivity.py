"""Eligibility conditions for density polynomials.

For an even-degree polynomial Q of degree 2m in d variables, the central
check is the axis condition ("condition 337" throughout this package):
the coefficient of x_j^{2m} must be strictly positive for every axis j.
When it holds, a computable chain of norm inequalities turns the infimum

    inf_x Q(x) / (1 + sum_j |x_j|^{2m})

into a lower bound for inf_x Q(x) / (1 + sum_{|a|<=2m} |x^a|), and 90% of
that bound is a perturbation radius: moving every coefficient of Q by
less than epsilon keeps the polynomial strictly positive.  The infimum
itself is estimated by grid refinement inside an l1 ball whose radius R
is derived from the tail bound

    (1+d)^{2m} * sum_{|a|<2m} |a_alpha| / (1+R)^{2m-|a|} <= b0 / 3,

outside of which the leading axis terms dominate.  All of this is
numerical estimation, not certification; downstream users re-verify
positivity directly where it matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditionFailed
from .polyalg import Polynomial, tensor_grid

# Leading coefficients at or below this are treated as zero.
LEADING_COEFF_TOL = 1e-12
# Relative-change target for the grid refinement of the infimum.
GRID_REFINE_TOL = 1e-4
# Safety factor on the derived perturbation radius.
EPSILON_SAFETY = 0.9


@dataclass(frozen=True)
class PositivityReport:
    condition337: bool
    leading_coeffs: np.ndarray
    inf_b: float
    inf_a_lower: float
    epsilon: float
    search_radius: float
    index_count: int


def index_count(dim: int, degree: int) -> int:
    """Number of multi-indices a in Z_+^dim with |a| <= degree."""
    return math.comb(degree + dim, dim)


def _even_degree(p: Polynomial) -> int:
    if p.degree % 2 != 0:
        raise ValueError(f"polynomial must have even degree, got {p.degree}")
    return p.degree


def leading_axis_coeffs(p: Polynomial) -> np.ndarray:
    """Coefficient of x_j^{2m} for each axis j (0 when the term is absent)."""
    two_m = _even_degree(p)
    out = np.zeros(p.dim)
    for j in range(p.dim):
        alpha = tuple(two_m if k == j else 0 for k in range(p.dim))
        out[j] = p.coefficient(alpha)
    return out


def check_condition_337(p: Polynomial) -> bool:
    """True iff every axis-leading coefficient is strictly positive."""
    return bool(np.all(leading_axis_coeffs(p) > LEADING_COEFF_TOL))


def _tail_radius(p: Polynomial, b0: float) -> float:
    """Smallest R with the lower-order tail bound at most b0 / 3."""
    from scipy.optimize import brentq  # scipy loads on first use, not on import
    two_m = _even_degree(p)
    d = p.dim
    lower = [(sum(a), abs(c)) for a, c in p.terms.items() if sum(a) < two_m]
    if not lower:
        return 0.0

    def tail(r):
        return (1.0 + d) ** two_m * sum(
            c / (1.0 + r) ** (two_m - k) for k, c in lower
        )

    target = b0 / 3.0
    if tail(0.0) <= target:
        return 0.0
    hi = 1.0
    while tail(hi) > target and hi < 2**60:
        hi *= 2.0
    return float(brentq(lambda r: tail(r) - target, 0.0, hi, xtol=1e-9, rtol=1e-12))


def _ratio_min_on_ball(p: Polynomial, radius: float, two_m: int) -> float:
    """Grid-refined minimum of Q / (1 + sum x_j^{2m}) over the closed l1 ball."""
    from scipy.optimize import minimize as _scipy_minimize

    def ratio_many(pts):
        denom = 1.0 + np.sum(np.abs(pts) ** two_m, axis=1)
        return p.eval_many(pts) / denom

    def ratio_one(x):
        return p.eval(x) / (1.0 + float(np.sum(np.abs(x) ** two_m)))

    d = p.dim
    per_axis = {1: 41, 2: 21, 3: 11}.get(d, 7)
    center = np.zeros(d)
    half = radius
    best_val = ratio_one(center)
    best_pt = center
    prev = math.inf
    for _ in range(60):
        pts = tensor_grid([np.linspace(c - half, c + half, per_axis) for c in center])
        mask = np.sum(np.abs(pts), axis=1) <= radius + 1e-12
        if mask.any():
            pts = pts[mask]
            vals = ratio_many(pts)
            i = int(np.argmin(vals))
            if vals[i] < best_val:
                best_val = float(vals[i])
                best_pt = pts[i]
        if prev != math.inf and abs(prev - best_val) <= GRID_REFINE_TOL * max(1e-12, abs(prev)):
            break
        prev = best_val
        center = best_pt
        half *= 0.5
    # Local polish; the ratio is smooth for even 2m.  Accept only in-ball wins.
    res = _scipy_minimize(ratio_one, best_pt, method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-12})
    if res.fun < best_val and np.sum(np.abs(res.x)) <= radius + 1e-9:
        best_val = float(res.fun)
    return best_val


def estimate_inf_b(p: Polynomial):
    """Estimate of inf Q / (1 + sum |x_j|^{2m}) and the search radius used.

    Requires the axis condition; the caller is responsible for having
    checked positivity of Q (for example with a minimum scan).
    """
    two_m = _even_degree(p)
    coeffs = leading_axis_coeffs(p)
    if not np.all(coeffs > LEADING_COEFF_TOL):
        raise ConditionFailed(f"axis-leading coefficients {coeffs} are not all positive")
    b0 = float(np.min(coeffs))
    radius = max(_tail_radius(p, b0), 1.0)
    return _ratio_min_on_ball(p, radius, two_m), radius


def epsilon_bound(p: Polynomial) -> PositivityReport:
    """Full positivity report with the perturbation radius.

    When the axis condition fails the infimum is genuinely 0, so the
    report degrades gracefully: inf_b = inf_a_lower = epsilon = 0.
    """
    two_m = _even_degree(p)
    d = p.dim
    coeffs = leading_axis_coeffs(p)
    count = index_count(d, two_m)
    ok = bool(np.all(coeffs > LEADING_COEFF_TOL))
    if not ok:
        return PositivityReport(False, coeffs, 0.0, 0.0, 0.0, 0.0, count)
    inf_b, radius = estimate_inf_b(p)
    inf_a_lower = inf_b / ((1.0 + count) * (1.0 + d) ** two_m)
    return PositivityReport(
        condition337=True,
        leading_coeffs=coeffs,
        inf_b=inf_b,
        inf_a_lower=inf_a_lower,
        epsilon=EPSILON_SAFETY * inf_a_lower,
        search_radius=radius,
        index_count=count,
    )


def report_to_dict(report: PositivityReport) -> dict:
    return {
        "condition337": report.condition337,
        "leading_coeffs": [float(v) for v in report.leading_coeffs],
        "inf_b": report.inf_b,
        "inf_a_lower": report.inf_a_lower,
        "epsilon": report.epsilon,
        "search_radius": report.search_radius,
        "index_count": report.index_count,
    }
