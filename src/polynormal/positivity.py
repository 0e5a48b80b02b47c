"""Eligibility conditions for density polynomials.

For an even-degree polynomial Q of degree 2m in d variables, the central
check is the axis condition ("condition 337" throughout this package):
the coefficient of x_j^{2m} must be strictly positive for every axis j.
When it holds, a computable chain of norm inequalities turns the infimum

    inf_x Q(x) / (1 + sum_j x_j^{2m})

into a lower bound for inf_x Q(x) / (1 + sum_{|a|<=2m} |x^a|), and 90% of
that bound is a perturbation radius: moving every coefficient of Q by
less than epsilon keeps the polynomial strictly positive.  The infimum
itself is estimated by the global minimum scan (``pnd._scan``) run on
the ratio, which is smooth because its denominator is at least 1: the
local searches from every seed a scan of the same budget draws, each in
its own round's box.  In one variable those are the ratio's critical
points, the real parts of the roots of Q' (1 + x^{2m}) - 2m x^{2m-1} Q,
and the box ends where it falls outward, whatever the budget's ``starts``
and ``seed``.  The lowest ratio found is the estimate.  All of this is
numerical estimation, not certification; downstream users re-verify
positivity directly where it matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polymul, polysub

from .errors import ConditionFailed
from .pnd import SearchBudget, _scan
from .polyalg import Polynomial

# Leading coefficients at or below this are treated as zero.
LEADING_COEFF_TOL = 1e-12
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


class _Ratio:
    """R = Q / (1 + sum_j x_j^{2m}) as a scan target (``pnd._scan``).

    The jet follows from Q's by the quotient rule; its rounding bound is
    Q's divided by the denominator.
    """

    def __init__(self, q: Polynomial):
        self.q, self.dim, self.degree = q, q.dim, q.degree

    def _jet(self, pts: np.ndarray):
        f, g, H, mag = self.q._jet(pts)
        two_m = self.degree
        den = 1.0 + np.sum(pts**two_m, axis=1)
        r = f / den
        # The denominator's gradient; its Hessian is diagonal.  The exponents
        # stop at 0, where a constant Q (2m = 0) has a zero factor in front.
        dden = two_m * pts ** max(two_m - 1, 0)
        gr = (g - r[:, None] * dden) / den[:, None]
        cross = gr[:, :, None] * dden[:, None, :]
        Hr = H - (cross + cross.transpose(0, 2, 1))
        axes = np.arange(self.dim)
        Hr[:, axes, axes] -= r[:, None] * (two_m * (two_m - 1) * pts ** max(two_m - 2, 0))
        return r, gr, Hr / den[:, None, None], mag / den

    def _slope_numerator(self) -> np.ndarray:
        """The ascending coefficients of Q' (1 + x^{2m}) - 2m x^{2m-1} Q (one
        variable only), R' times the squared denominator: R's stationary
        points and the sign of R'.  Its x^{4m-1} terms cancel exactly."""
        two_m = self.degree
        den = np.zeros(two_m + 1)
        den[0] += 1.0
        den[two_m] += 1.0
        num = polymul(self.q._slope_numerator(), den)
        if two_m:
            num = polysub(num, np.concatenate([np.zeros(two_m - 1), two_m * self.q.terms.dense()]))
        return num


def estimate_inf_b(p: Polynomial, budget: SearchBudget | None = None):
    """Estimate of inf Q / (1 + sum_j x_j^{2m}) and the half-width of the
    widest box searched, 2**doublings of the budget.

    The lowest of the local minima of the ratio (``_Ratio``) that the
    budget's global scan finds; a witness, not a certificate.
    Requires the axis condition; the caller is responsible for having
    checked positivity of Q (for example with a minimum scan).
    """
    coeffs = leading_axis_coeffs(p)
    if not np.all(coeffs > LEADING_COEFF_TOL):
        raise ConditionFailed(f"axis-leading coefficients {coeffs} are not all positive")
    budget = budget or SearchBudget()
    _, values, radii = _scan(_Ratio(p), budget)
    return float(values.min()), float(radii[-1])


def epsilon_bound(p: Polynomial, budget: SearchBudget | None = None) -> PositivityReport:
    """Full positivity report with the perturbation radius; ``budget`` sets
    the infimum's search (``estimate_inf_b``).

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
    inf_b, radius = estimate_inf_b(p, budget)
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
