"""Precheck, theta search, and the Gaussian-factor split."""

import math
import sys

import numpy as np
import pytest

from polynormal.decompose import (
    PROBE_BUDGET,
    RESCALE_TOL,
    VERDICT_ELIGIBLE,
    VERDICT_FAILS_CONDITION_337,
    VERDICT_HAS_REAL_ZERO,
    decompose,
    diagnosis_to_dict,
    precheck,
    theta_floor,
)
from polynormal.errors import NoAdmissibleTheta, NotEligible, ThetaInadmissible
from polynormal.pnd import SearchBudget, make_pnd, minimize_polynomial
from polynormal.polyalg import (
    HermiteCoeffs,
    Polynomial,
    affine_substitute,
    from_hermite,
    theta_rescale,
    to_hermite,
)
from polynormal.positivity import check_condition_337, epsilon_bound

from conftest import (
    FAST_BUDGET,
    all_multiindices,
    eligible_quartic_poly,
    example4_poly,
    random_pd_matrix,
)


def desk_quartic_poly():
    """(x1 x2 - 1)^2 + x2^2 + 0.1 (x1^4 + x2^4): positive with positive axis terms."""
    return example4_poly() + Polynomial.from_terms(2, {(4, 0): 0.1, (0, 4): 0.1})


def test_precheck_reference_quartic_fails_condition(example4_pnd):
    diag = precheck(example4_pnd)
    assert diag.verdict == VERDICT_FAILS_CONDITION_337
    assert diag.witness_point is None
    assert diag.infimum <= 1e-3
    assert not diag.attained
    assert not diag.report.condition337


def test_precheck_zero_polynomial():
    pnd = make_pnd(Polynomial.from_terms(1, {(2,): 1.0}), [[1.0]], [0.0])
    diag = precheck(pnd)
    assert diag.verdict == VERDICT_HAS_REAL_ZERO
    assert diag.witness_value <= 1e-9
    assert np.max(np.abs(diag.witness_point)) <= 1e-5


def test_precheck_reuses_the_scan_of_make_pnd(scan_calls):
    pnd = make_pnd(eligible_quartic_poly(), np.eye(2), np.zeros(2))
    assert len(scan_calls) == 1
    assert precheck(pnd).verdict == VERDICT_ELIGIBLE
    assert len(scan_calls) == 1
    precheck(pnd, SearchBudget(seed=1))
    assert len(scan_calls) == 2


def test_precheck_eligible_quartic():
    pnd = make_pnd(eligible_quartic_poly(), np.eye(2), np.zeros(2))
    diag = precheck(pnd)
    assert diag.verdict == VERDICT_ELIGIBLE
    assert diag.witness_point is None
    assert diag.report.condition337
    assert diag.report.epsilon > 0.0


def test_theta_floor_closed_form():
    h = HermiteCoeffs.from_coeffs(1, {(2,): 0.5, (0,): 1.0})  # (x^2 + 1)/2
    floor = theta_floor(h, tol=1e-6)
    assert floor == pytest.approx(math.sqrt(0.5), abs=1e-6)


def test_theta_floor_constant_returns_tol():
    h = HermiteCoeffs.from_coeffs(2, {(0, 0): 1.0})
    assert theta_floor(h, tol=1e-4) == pytest.approx(1e-4, abs=1e-12)


def test_theta_floor_eligible_quartic_regression():
    pnd = make_pnd(eligible_quartic_poly(), np.eye(2), np.zeros(2))
    h = pnd.hermite
    floor = theta_floor(h, tol=1e-6)
    assert 0.0 < floor < 1.0
    assert minimize_polynomial(theta_rescale(h, floor), FAST_BUDGET).value >= -1e-12
    # regression pin from the first verified run of the bisection
    assert floor == pytest.approx(0.867983, abs=1e-4)


def reference_theta_floor(h, tol, budget=PROBE_BUDGET):
    """The bisection that scans every midpoint, with the epsilon shortcut."""
    base = from_hermite(h)
    report = epsilon_bound(base) if check_condition_337(base) else None
    epsilon = report.epsilon if report is not None and report.condition337 else 0.0

    def admissible(theta):
        p_theta = theta_rescale(h, theta)
        if epsilon > 0.0 and p_theta.max_abs_coeff_diff(base) < epsilon:
            return True
        return minimize_polynomial(p_theta, budget).value >= RESCALE_TOL

    hi = 1.0 - 1e-9
    assert admissible(hi)
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (hi + lo)
        if admissible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def rotated_oracle_pnd():
    """prod_j (((R'x)_j)^2 + c_j) with A = R diag(1, 2) R', R the rotation by
    pi/6: the minimal theta is max_j (1 + a_j c_j)^(-1/2) = 1/sqrt(1.5)."""
    R = np.array([[math.cos(math.pi / 6), -math.sin(math.pi / 6)],
                  [math.sin(math.pi / 6), math.cos(math.pi / 6)]])
    x = [Polynomial.variable(2, k) for k in range(2)]
    p = Polynomial.constant(2, 1.0)
    for j, c in enumerate((0.5, 1.0)):
        y = R[0, j] * x[0] + R[1, j] * x[1]
        p = p * (y * y + c)
    return make_pnd(p, R @ np.diag([1.0, 2.0]) @ R.T, np.zeros(2))


def test_theta_floor_rotated_oracle():
    # Below the floor this rescaled polynomial is unbounded below; a polish
    # left to run off to huge |x| collects witnesses that read negative by
    # rounding alone, and the answer lands near 0.86 instead of 0.816.
    pnd = rotated_oracle_pnd()
    assert precheck(pnd).verdict == VERDICT_ELIGIBLE
    floor = theta_floor(pnd.hermite, tol=1e-6)
    assert floor == pytest.approx(1.0 / math.sqrt(1.5), abs=1e-6)


def _reference_cases():
    rng = np.random.default_rng(5)
    cases = [
        ("closed form", HermiteCoeffs.from_coeffs(1, {(2,): 0.5, (0,): 1.0})),
        ("eligible quartic", make_pnd(eligible_quartic_poly(), np.eye(2), np.zeros(2)).hermite),
        ("rotated oracle", rotated_oracle_pnd().hermite),
    ]
    for k in range(3):
        pnd = make_pnd(_random_eligible_poly(rng), random_pd_matrix(rng, 2), np.zeros(2), FAST_BUDGET)
        cases.append((f"random quartic {k}", pnd.hermite))
    return cases


def test_theta_floor_matches_the_scan_every_midpoint_bisection():
    tol = 1e-6
    for name, h in _reference_cases():
        assert theta_floor(h, tol) == pytest.approx(reference_theta_floor(h, tol), abs=tol), name


def test_theta_floor_rejects_nonpositive_input():
    # x^2 touches zero: every rescaling below 1 dips negative
    h = to_hermite(Polynomial.from_terms(1, {(2,): 1.0}))
    with pytest.raises(NoAdmissibleTheta):
        theta_floor(h, tol=1e-4)


@pytest.mark.parametrize("tol", [0.0, -1e-6, math.inf, math.nan])
def test_theta_floor_rejects_tolerances_not_finite_and_positive(tol):
    h = to_hermite(Polynomial.from_terms(1, {(2,): 1.0, (0,): 1.0}))
    with pytest.raises(ValueError, match="finite and positive"):
        theta_floor(h, tol=tol)


def test_decompose_1d_closed_form():
    pnd = make_pnd(Polynomial.from_terms(1, {(2,): 1.0, (0,): 1.0}), [[1.0]], [0.0])
    theta = math.sqrt(0.5)
    dec = decompose(pnd, theta=theta)
    eff = dec.factor_Y.norm_const * dec.factor_Y.poly
    assert eff.max_abs_coeff_diff(Polynomial.from_terms(1, {(2,): 2.0})) <= 1e-9
    assert dec.factor_Z.cov[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert dec.factor_Z.mean[0] == 0.0
    assert dec.factor_Y.form.matrix[0, 0] == pytest.approx(2.0, abs=1e-12)
    assert dec.min_p_theta >= -1e-12
    assert dec.cf_error <= 1e-9


def test_decompose_pure_gaussian_split():
    pnd = make_pnd(Polynomial.constant(1, 1.0), [[1.0]], [0.0])
    dec = decompose(pnd, theta=0.6)
    assert dec.factor_Y.poly.degree == 0
    assert dec.factor_Y.form.matrix[0, 0] == pytest.approx(1.0 / 0.36, rel=1e-12)
    assert dec.factor_Z.cov[0, 0] == pytest.approx(0.64, rel=1e-12)


def test_decompose_reference_quartic_not_eligible(example4_pnd):
    with pytest.raises(NotEligible) as err:
        decompose(example4_pnd)
    assert err.value.diagnosis.verdict == VERDICT_FAILS_CONDITION_337


def test_decompose_zero_not_eligible():
    pnd = make_pnd(Polynomial.from_terms(1, {(2,): 1.0}), [[1.0]], [0.0])
    with pytest.raises(NotEligible) as err:
        decompose(pnd)
    assert err.value.diagnosis.verdict == VERDICT_HAS_REAL_ZERO


def test_decompose_inadmissible_theta_rejected():
    pnd = make_pnd(Polynomial.from_terms(1, {(2,): 1.0, (0,): 1.0}), [[1.0]], [0.0])
    with pytest.raises(ThetaInadmissible):
        decompose(pnd, theta=0.5)  # below the sqrt(1/2) floor


def test_decompose_default_theta_is_near_floor():
    pnd = make_pnd(Polynomial.from_terms(1, {(2,): 1.0, (0,): 1.0}), [[1.0]], [0.0])
    dec = decompose(pnd, tol=1e-6)
    assert dec.theta == pytest.approx(math.sqrt(0.5), abs=3e-6)
    assert dec.min_p_theta >= -1e-12


def test_decompose_carries_its_precheck(monkeypatch):
    module = sys.modules["polynormal.decompose"]  # the package re-exports the function
    calls = []

    def counting(q):
        calls.append(q)
        return epsilon_bound(q)

    monkeypatch.setattr(module, "epsilon_bound", counting)
    pnd = make_pnd(desk_quartic_poly(), np.eye(2), np.zeros(2))
    dec = decompose(pnd, tol=1e-4)
    assert len(calls) == 1
    assert diagnosis_to_dict(dec.diagnosis) == diagnosis_to_dict(precheck(pnd))
    assert dec.diagnosis.verdict == VERDICT_ELIGIBLE


def test_decompose_shift_equivariance():
    # translating a density by b must shift only the Gaussian factor's mean
    p = desk_quartic_poly()
    b = np.array([0.3, -0.2])
    theta = 0.95
    translated = affine_substitute(p, np.eye(2), -b)  # x -> p(x - b)
    dec0 = decompose(make_pnd(p, np.eye(2), np.zeros(2)), theta=theta)
    decb = decompose(make_pnd(translated, np.eye(2), b), theta=theta)
    assert np.array_equal(dec0.factor_Y.shift, np.zeros(2))
    assert np.array_equal(decb.factor_Y.shift, np.zeros(2))
    assert np.array_equal(decb.factor_Z.mean, b)
    assert np.max(np.abs(decb.factor_Z.cov - dec0.factor_Z.cov)) <= 1e-12
    effY0 = dec0.factor_Y.norm_const * dec0.factor_Y.poly
    effYb = decb.factor_Y.norm_const * decb.factor_Y.poly
    assert effYb.max_abs_coeff_diff(effY0) <= 1e-9


def test_decompose_whitening_equivariance():
    p = desk_quartic_poly()
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    theta = 0.95
    pnd = make_pnd(p, A, np.zeros(2))
    dec = decompose(pnd, theta=theta)
    # decompose the explicitly whitened density and transport back through L
    L = pnd.form.whitener
    q = pnd.whitened
    pnd_w = make_pnd(q, np.eye(2), np.zeros(2))
    dec_w = decompose(pnd_w, theta=theta)
    eff = dec.factor_Y.norm_const * dec.factor_Y.poly
    eff_w = dec_w.factor_Y.norm_const * dec_w.factor_Y.poly
    transported = affine_substitute(eff_w, np.linalg.inv(L), np.zeros(2))
    scale = max(abs(c) for c in eff.terms.values())
    assert eff.max_abs_coeff_diff(transported) <= 1e-8 * max(1.0, scale)
    assert np.max(np.abs(dec.factor_Y.form.matrix - A / theta**2)) <= 1e-12
    assert np.max(np.abs(dec.factor_Z.cov - (1 - theta**2) * np.linalg.inv(A))) <= 1e-10


def _random_eligible_poly(rng):
    """Positive polynomial with positive axis quartics: eligible by construction."""
    terms = {}
    for alpha in all_multiindices(2, 4):
        if sum(alpha) == 4 and all(a % 2 == 0 for a in alpha):
            terms[alpha] = rng.uniform(0.3, 1.5)
    base = Polynomial.from_terms(2, terms)
    q = Polynomial.from_terms(
        2, {alpha: rng.uniform(-0.5, 0.5) for alpha in all_multiindices(2, 2)}
    )
    return base + q * q + Polynomial.constant(2, rng.uniform(0.3, 1.0))


def test_monotone_admissibility_on_random_eligible_polys():
    rng = np.random.default_rng(17)
    probe = SearchBudget(doublings=3, starts=3, grid_points=7)
    for _ in range(20):
        p = _random_eligible_poly(rng)
        pnd = make_pnd(p, np.eye(2), np.zeros(2), FAST_BUDGET)
        h = pnd.hermite
        floor = theta_floor(h, tol=1e-3, budget=probe)
        assert 0.0 < floor < 1.0
        for theta in np.linspace(floor, 1.0 - 1e-9, 5):
            assert minimize_polynomial(theta_rescale(h, theta), probe).value >= -1e-9
