"""Gaussian-factor decomposition of polynomial-normal densities.

Pipeline: center (shift moves into the Gaussian factor), whiten, expand
the normalized polynomial in the Hermite basis, rescale by theta, and
split the characteristic function

    phi(t) = [sum beta_a (i t)^a e^{-theta^2 |t|^2 / 2}] * e^{-(1-theta^2) |t|^2 / 2}

in whitened coordinates.  The first factor is again a polynomial-normal
density as long as the rescaled polynomial stays nonnegative; its
admissible range is an interval reaching up to theta = 1 (a larger theta
adds an independent Gaussian to the first factor), so the minimal
admissible theta is found by bisection.  Each midpoint is decided by
the stored witness points, where the rescaled polynomial went negative
before: by their values when one is still negative, else by local
polishes from them.  Both read the search's theta family
(``polyalg._ThetaFamily``), whose jet rows are polynomials in theta^-2,
planned once per search; ``theta_rescale`` forms only the polynomials a
global scan reads.  Global minimum scans run only at the start and to
confirm the theta the split takes, the bisection's end point plus its
tolerance.  A confirmation that finds a negative point, or a minimum it
does not attain, adds it as a witness, refutes every theta up to its own
(and past it, after a run of positive minima not attained), and runs the
bisection again.  A
split needs an attained, nonnegative gate scan at its theta: with no
explicit theta, that is the search's confirmation, and no scan repeats it.

The reported theta_floor is the minimal isotropic-whitened theta found by
this search, not a claim about every conceivable factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charfn import forward_cf
from .errors import NoAdmissibleTheta, NotEligible, ThetaInadmissible
from .pnd import (
    PND,
    MinimizationResult,
    SearchBudget,
    _build_pnd,
    find_min_poly,
    minimize_polynomial,
    pnd_to_dict,
    polish_minimum,
)
from .polyalg import HermiteCoeffs, Polynomial, _ThetaFamily, affine_substitute, theta_rescale
from .positivity import PositivityReport, epsilon_bound, report_to_dict

VERDICT_HAS_REAL_ZERO = "HasRealZero"
VERDICT_FAILS_CONDITION_337 = "FailsCondition337"
VERDICT_ELIGIBLE = "Eligible"

# A scanned minimum at or below this counts as a zero of the density.
ZERO_TOL = 1e-9
# The rescaled polynomial may dip this far below zero and still be accepted.
RESCALE_TOL = -1e-12
DEFAULT_THETA_TOL = 1e-6
# Floats below 1 lie at most 2**-53 apart, so a bisection in (0, 1) whose
# interval is wider than this always has a midpoint strictly inside it.
MIN_THETA_TOL = 2.0**-52


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
class ThetaFloor:
    """Outcome of ``theta_floor``: the floor, the theta a split takes
    (floor + tol), and the rescaled polynomial at that theta with the
    attained, nonnegative global scan that confirmed it, or None for both
    when no scan was made there (theta >= 1, the search ending at its
    start, or a constant polynomial)."""

    floor: float
    theta: float
    p_theta: Polynomial | None
    scan: MinimizationResult | None


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
    report's infimum is searched from the same budget's seeds.
    """
    scan = find_min_poly(pnd, budget)
    report = epsilon_bound(pnd.whitened, budget)
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


def check_theta_tol(tol: float):
    """A ValueError unless tol is finite and at least ``MIN_THETA_TOL``."""
    if not MIN_THETA_TOL <= tol < np.inf:
        raise ValueError(f"tolerance must be finite and positive, at least 2**-52, got {tol}")


def theta_floor(
    h: HermiteCoeffs,
    tol: float = DEFAULT_THETA_TOL,
    budget: SearchBudget | None = None,
) -> ThetaFloor:
    """Smallest admissible theta found by bisection, to absolute tolerance
    tol, with the theta a split takes, floor + tol, confirmed by a global scan.

    Admissible means the theta-rescaled polynomial scans no lower than the
    rescale tolerance.  Admissibility near 1 is guaranteed for eligible
    inputs, so the returned floor is at most any workable theta below 1.

    A global scan at theta = 1 - 1e-9 checks that start and gives the
    first witness point; ``NoAdmissibleTheta`` when it is negative or its
    minimum is not attained (the polynomial may fall below zero outside
    the box).  A midpoint is inadmissible only when a stored witness is
    already below the rescale tolerance there, or, failing that, a local
    polish from a witness (inside the scan budget's box; all witnesses are
    polished together) reaches a point below it; the first such point then
    replaces its witness.  A polish never ends above its start, so a
    negative witness decides the midpoint as its polish would.  Midpoints
    are evaluated on the theta family of h, planned once per call: its jet
    rows at the midpoint are one product of the powers of theta^-2 with
    the planned rows, with no rescaled polynomial formed; ``theta_rescale``
    runs once per global scan.  A ValueError when tol is below 2**-52, at
    which the bisection's ends could become adjacent floats and it would
    never end.
    The bisection's end point, plus tol, is confirmed by one more global
    scan, the gate scan of ``decompose``.  If that scan finds a negative
    point, or a minimum it does not attain, the point becomes a witness,
    every theta up to the scanned one counts as inadmissible (a smaller
    theta is never more admissible), and the bisection runs again from the
    start, to end above the scanned theta; where polishes and scans agree,
    it takes the midpoints of a bisection that scans every one.  A
    confirmation that reads nonnegative but not attained leaves a witness
    that refutes no theta past its own, so a run of them would move the
    search by only tol per scan: the k-th such confirmation refutes
    (2^(k-1) - 1) tol past its theta as well, and at most about
    log2(1 / tol) of them run.  So floor + tol is confirmed by an attained,
    nonnegative global scan (the floor itself is not scanned), and unless
    the search ran down to 0, a theta at most tol below the floor (at most
    2^(k-1) tol after k confirmations not attained) has an explicit
    negative point or a scan whose minimum is not attained.  No
    confirmation runs when floor + tol >= 1, where no split is possible,
    or when the bisection ends at its start, which its own scan confirms;
    nor for a constant polynomial, whose floor is tol.
    """
    check_theta_tol(tol)
    budget = budget or SearchBudget()
    if h.degree == 0:
        return ThetaFloor(tol, tol + tol, None, None)
    start = 1.0 - 1e-9
    scan = minimize_polynomial(theta_rescale(h, start), budget)
    if scan.value < RESCALE_TOL:
        raise NoAdmissibleTheta(
            "rescaled polynomial scans negative even at theta = 1 - 1e-9"
        )
    if not scan.attained:
        raise NoAdmissibleTheta(
            f"rescaled polynomial at theta = 1 - 1e-9 scans {scan.value:.6g} at "
            f"{scan.point}, a minimum not attained in the scan's box"
        )
    family, witnesses = _ThetaFamily(h), [scan.point]
    refuted_at = 0.0  # the highest theta counted inadmissible
    skip = 0.0  # how far past its theta the next positive, unattained confirmation refutes

    def refuted(theta: float) -> bool:
        if theta <= refuted_at:
            return True
        p_theta, stored = family.at(theta), np.array(witnesses)
        # A polish never ends above its start, so a witness already negative
        # decides the midpoint as its polish would; it is kept as it is.
        jet = p_theta._jet(stored)
        if (jet[0] < RESCALE_TOL).any():
            return True
        points, values = polish_minimum(p_theta, stored, budget, _start_jet=jet)
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
        theta = hi + tol
        if hi == start or theta >= 1.0:
            return ThetaFloor(hi, theta, None, None)
        p_theta = theta_rescale(h, theta)
        scan = minimize_polynomial(p_theta, budget)
        if scan.value >= RESCALE_TOL and scan.attained:
            return ThetaFloor(hi, theta, p_theta, scan)
        witnesses.append(scan.point)
        refuted_at = theta
        if scan.value >= RESCALE_TOL:  # its point refutes no theta past its own
            refuted_at, skip = theta + skip, 2.0 * skip + tol


def decompose(
    pnd: PND,
    theta: float | None = None,
    tol: float = DEFAULT_THETA_TOL,
    budget: SearchBudget | None = None,
) -> Decomposition:
    """Split a PND into a polynomial-normal factor and a Gaussian factor.

    Raises ``NotEligible`` unless ``precheck`` finds the density Eligible;
    the result carries that diagnosis.  With no explicit theta, picks
    theta_floor + tol; ``NoAdmissibleTheta`` if that is not below 1.  Every
    scan uses ``budget``; ``ThetaInadmissible`` unless the one at theta is
    attained and no lower than ``RESCALE_TOL``.  That gate scan is the
    theta search's confirmation when the search made one at theta, and a
    scan of its own otherwise (always for an explicit theta).  The shift
    lands in the Gaussian factor; factor_Y is centered.
    """
    budget = budget or SearchBudget()
    diag = precheck(pnd, budget)
    if diag.verdict != VERDICT_ELIGIBLE:
        raise NotEligible(diag)
    p_theta = scan = None
    if theta is None:
        found = theta_floor(pnd.hermite, tol, budget)
        theta, p_theta, scan = found.theta, found.p_theta, found.scan
        if theta >= 1.0:
            raise NoAdmissibleTheta(f"no theta below 1 found admissible at tolerance {tol:g}")
    elif not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    if scan is None:
        p_theta = theta_rescale(pnd.hermite, theta)
        scan = minimize_polynomial(p_theta, budget)
    if scan.value < RESCALE_TOL or not scan.attained:
        raise ThetaInadmissible(scan.value, scan.point, negative=scan.value < RESCALE_TOL)
    L = pnd.form.whitener
    # No second scan: factor_Y's polynomial is p_theta(L^{-1} x), L^{-1} = root',
    # and the scan above has gated p_theta with the stricter RESCALE_TOL.
    factor_y = _build_pnd(
        affine_substitute(p_theta, pnd.form.root.T, np.zeros(pnd.dim)),
        pnd.form.scaled(theta),
        np.zeros(pnd.dim),
        budget=None,
    )
    factor_z = GaussianFactor(
        mean=np.array(pnd.shift), cov=(1.0 - theta**2) * (L @ L.T)
    )
    # Coefficient-wise gap between the original cf and the factors' product,
    # whose polynomial part is factor_Y's: factor_Z adds its covariance and
    # mean to the exponent and the phase.
    original, cf_y = forward_cf(pnd), forward_cf(factor_y)
    cf_error = max(
        cf_y.beta.max_abs_coeff_diff(original.beta),
        float(np.max(np.abs(cf_y.sigma + factor_z.cov - original.sigma))),
        float(np.max(np.abs(cf_y.shift + factor_z.mean - original.shift))),
    )
    if cf_error > 1e-9:
        raise RuntimeError(
            f"internal factorization check failed: coefficient error {cf_error:.3e}"
        )
    return Decomposition(theta, factor_y, factor_z, float(scan.value), cf_error, diag)


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
