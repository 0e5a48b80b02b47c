"""Gaussian-factor decomposition of polynomial-normal densities.

Pipeline: center (shift moves into the Gaussian factor), whiten, expand
the normalized polynomial in the Hermite basis, rescale by theta, and
split the characteristic function

    phi(t) = [sum beta_a (i t)^a e^{-theta^2 |t|^2 / 2}] * e^{-(1-theta^2) |t|^2 / 2}

in whitened coordinates.  The first factor is again a polynomial-normal
density as long as the rescaled polynomial stays nonnegative; its
admissible range is an interval reaching up to theta = 1, so the minimal
admissible theta is found by bisection.  Each midpoint is decided by
local polishes from stored witness points, where the rescaled polynomial
went negative before; global minimum scans run only at the start and to
confirm the end point, and a confirmation that finds a negative point
adds it as a witness and runs the bisection again.

The reported theta_floor is the minimal isotropic-whitened theta found by
this search, not a claim about every conceivable factorization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .charfn import cf_multiply, forward_cf, gaussian_cf
from .errors import NoAdmissibleTheta, NotEligible, ThetaInadmissible
from .pnd import (
    PND,
    SearchBudget,
    _build_pnd,
    find_min_poly,
    minimize_polynomial,
    pnd_to_dict,
    polish_minimum,
)
from .polyalg import HermiteCoeffs, affine_substitute, theta_rescale
from .positivity import PositivityReport, epsilon_bound, report_to_dict

VERDICT_HAS_REAL_ZERO = "HasRealZero"
VERDICT_FAILS_CONDITION_337 = "FailsCondition337"
VERDICT_ELIGIBLE = "Eligible"

# A scanned minimum at or below this counts as a zero of the density.
ZERO_TOL = 1e-9
# The rescaled polynomial may dip this far below zero and still be accepted.
RESCALE_TOL = -1e-12
DEFAULT_THETA_TOL = 1e-6

# Budget for the global scans of the theta search; each only needs the sign
# and the point of its minimum, not a tight value.
PROBE_BUDGET = SearchBudget(doublings=4, grid_points=7)


@dataclass(frozen=True)
class Diagnosis:
    """Outcome of the decomposability precheck.

    ``FailsCondition337`` is not a proof of indecomposability -- only the
    applicability gate of the constructive split.  ``HasRealZero`` is
    conclusive: a density zero rules out any nontrivial factorization.
    """

    verdict: str
    witness_point: np.ndarray | None
    witness_value: float | None
    infimum: float
    infimum_point: np.ndarray
    attained: bool
    report: PositivityReport


@dataclass(frozen=True)
class GaussianFactor:
    mean: np.ndarray
    cov: np.ndarray


@dataclass(frozen=True)
class Decomposition:
    """A split f = factor_Y * factor_Z and the precheck it was decided on."""

    theta: float
    factor_Y: PND
    factor_Z: GaussianFactor
    min_p_theta: float
    cf_error: float
    diagnosis: Diagnosis


def precheck(pnd: PND, budget: SearchBudget | None = None) -> Diagnosis:
    """Zero detection, then the axis condition on the whitened polynomial.

    The zero scan is the one ``make_pnd`` made when the budgets match; the
    infimum grid of the report refines to ``positivity.GRID_REFINE_TOL``.
    """
    scan = find_min_poly(pnd, budget)
    report = epsilon_bound(pnd.whitened)
    if scan.value <= ZERO_TOL and scan.attained:
        return Diagnosis(
            VERDICT_HAS_REAL_ZERO,
            scan.point,
            scan.value,
            scan.value,
            scan.point,
            scan.attained,
            report,
        )
    verdict = VERDICT_ELIGIBLE if report.condition337 else VERDICT_FAILS_CONDITION_337
    return Diagnosis(verdict, None, None, scan.value, scan.point, scan.attained, report)


def theta_floor(
    h: HermiteCoeffs,
    tol: float = DEFAULT_THETA_TOL,
    budget: SearchBudget | None = None,
) -> float:
    """Smallest admissible theta found by bisection, to absolute tolerance tol.

    Admissible means the theta-rescaled polynomial scans no lower than the
    rescale tolerance.  Admissibility near 1 is guaranteed for eligible
    inputs, so the returned value is at most any workable theta below 1.

    A global scan at theta = 1 - 1e-9 checks that start and gives the
    first witness point.  A midpoint is inadmissible only when a local
    polish from a witness (inside the scan budget's box; all witnesses are
    polished together) reaches a point below the rescale tolerance; the
    first such point then replaces its witness.
    The bisection's end point is confirmed by one more global scan.  If
    that scan finds a negative point, the point becomes a witness, every
    theta up to the end point counts as inadmissible, and the bisection
    runs again from the start; where polishes and scans agree, it takes
    the midpoints of a bisection that scans every one.  So the returned
    theta is always confirmed by a global scan, and unless the search ran
    down to 0, a theta at most tol below it has an explicit negative point.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    budget = budget or PROBE_BUDGET
    if h.degree == 0:
        return tol
    start = 1.0 - 1e-9
    scan = minimize_polynomial(theta_rescale(h, start), budget)
    if scan.value < RESCALE_TOL:
        raise NoAdmissibleTheta(
            "rescaled polynomial scans negative even at theta = 1 - 1e-9"
        )
    witnesses = [scan.point]
    refuted_at = 0.0  # the highest theta a global scan found inadmissible

    def refuted(theta: float) -> bool:
        if theta <= refuted_at:
            return True
        points, values = polish_minimum(theta_rescale(h, theta), np.array(witnesses), budget)
        below = np.flatnonzero(values < RESCALE_TOL)
        if below.size:
            witnesses[below[0]] = points[below[0]]
        return bool(below.size)

    while True:
        lo, hi = 0.0, start
        while hi - lo > tol:
            mid = 0.5 * (hi + lo)
            if refuted(mid):
                lo = mid
            else:
                hi = mid
        if hi == start:
            return hi
        scan = minimize_polynomial(theta_rescale(h, hi), budget)
        if scan.value >= RESCALE_TOL:
            return hi
        witnesses.append(scan.point)
        refuted_at = hi


def decompose(
    pnd: PND,
    theta: float | None = None,
    tol: float = DEFAULT_THETA_TOL,
    budget: SearchBudget | None = None,
) -> Decomposition:
    """Split a PND into a polynomial-normal factor and a Gaussian factor.

    Raises ``NotEligible`` unless ``precheck`` finds the density Eligible;
    the result carries that diagnosis.  With no explicit theta, picks
    theta_floor + tol: the largest Gaussian factor this search, seeded by
    ``budget`` like every scan here, can certify.  The shift lands in the
    Gaussian factor; factor_Y is centered.
    """
    budget = budget or SearchBudget()
    diag = precheck(pnd, budget)
    if diag.verdict != VERDICT_ELIGIBLE:
        raise NotEligible(diag)
    if theta is None:
        floor = theta_floor(pnd.hermite, tol, replace(PROBE_BUDGET, seed=budget.seed))
        theta = min(floor + tol, 1.0 - 1e-9)
    elif not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    p_theta = theta_rescale(pnd.hermite, theta)
    scan = minimize_polynomial(p_theta, budget)
    if scan.value < RESCALE_TOL:
        raise ThetaInadmissible(scan.value)
    L = pnd.form.whitener
    Linv = np.linalg.inv(L)
    # No second scan: factor_Y's polynomial is p_theta in other coordinates,
    # and the scan above has gated it with the stricter RESCALE_TOL.
    factor_y = _build_pnd(
        affine_substitute(p_theta, Linv, np.zeros(pnd.dim)),
        pnd.form.matrix / theta**2,
        np.zeros(pnd.dim),
        budget=None,
    )
    factor_z = GaussianFactor(
        mean=np.array(pnd.shift), cov=(1.0 - theta**2) * (L @ L.T)
    )
    cf_error = _cf_product_error(pnd, factor_y, factor_z)
    if cf_error > 1e-9:
        raise RuntimeError(
            f"internal factorization check failed: coefficient error {cf_error:.3e}"
        )
    return Decomposition(theta, factor_y, factor_z, float(scan.value), cf_error, diag)


def _cf_product_error(pnd: PND, factor_y: PND, factor_z: GaussianFactor) -> float:
    """Coefficient-wise gap between the original cf and the factor product."""
    original = forward_cf(pnd)
    product = cf_multiply(forward_cf(factor_y), gaussian_cf(factor_z.mean, factor_z.cov))
    return max(
        product.beta.max_abs_coeff_diff(original.beta),
        float(np.max(np.abs(product.sigma - original.sigma))),
        float(np.max(np.abs(product.shift - original.shift))),
    )


def diagnosis_to_dict(diag: Diagnosis) -> dict:
    witness = None
    if diag.witness_point is not None:
        witness = {
            "point": [float(v) for v in diag.witness_point],
            "value": float(diag.witness_value),
        }
    return {
        "verdict": diag.verdict,
        "witness": witness,
        "infimum": float(diag.infimum),
        "infimum_point": [float(v) for v in diag.infimum_point],
        "attained": bool(diag.attained),
        "report": report_to_dict(diag.report),
    }


def gaussian_to_dict(z: GaussianFactor) -> dict:
    return {
        "mean": [float(v) for v in z.mean],
        "cov": [[float(v) for v in row] for row in z.cov],
    }


def decomposition_to_dict(dec: Decomposition) -> dict:
    return {
        "theta": float(dec.theta),
        "factor_Y": pnd_to_dict(dec.factor_Y),
        "factor_Z": gaussian_to_dict(dec.factor_Z),
        "min_p_theta": float(dec.min_p_theta),
        "cf_error": float(dec.cf_error),
        "diagnosis": diagnosis_to_dict(dec.diagnosis),
    }
