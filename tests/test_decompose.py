"""Precheck, theta search, and the Gaussian-factor split."""

import importlib
import json
import math
import sys

import numpy as np
import pytest

from polynormal.decompose import (
    RESCALE_TOL,
    VERDICT_ELIGIBLE,
    VERDICT_FAILS_CONDITION_337,
    VERDICT_HAS_REAL_ZERO,
    decompose,
    decomposition_to_dict,
    diagnosis_to_dict,
    precheck,
    theta_floor,
)
from polynormal.errors import NoAdmissibleTheta, NotEligible, ThetaInadmissible
from polynormal.pnd import MinimizationResult, SearchBudget, make_pnd, minimize_polynomial
from polynormal.polyalg import (
    HermiteCoeffs,
    Polynomial,
    affine_substitute,
    from_hermite,
    theta_rescale,
    to_hermite,
)
from polynormal.positivity import check_condition_337, epsilon_bound

import polyref
from conftest import (
    FAST_BUDGET,
    all_multiindices,
    deadline,
    eligible_quartic_poly,
    example4_poly,
    indefinite_top_form_poly,
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
    floor = theta_floor(h, tol=1e-6).floor
    assert floor == pytest.approx(math.sqrt(0.5), abs=1e-6)


def test_theta_floor_constant_returns_tol():
    h = HermiteCoeffs.from_coeffs(2, {(0, 0): 1.0})
    assert theta_floor(h, tol=1e-4).floor == pytest.approx(1e-4, abs=1e-12)


def test_theta_floor_eligible_quartic_regression():
    pnd = make_pnd(eligible_quartic_poly(), np.eye(2), np.zeros(2))
    h = pnd.hermite
    floor = theta_floor(h, tol=1e-6).floor
    assert 0.0 < floor < 1.0
    assert minimize_polynomial(theta_rescale(h, floor), FAST_BUDGET).value >= -1e-12
    # regression pin from the first verified run of the bisection
    assert floor == pytest.approx(0.867983, abs=1e-4)


def reference_theta_floor(h, tol, budget=SearchBudget()):
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
    floor = theta_floor(pnd.hermite, tol=1e-6).floor
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
        assert theta_floor(h, tol).floor == pytest.approx(reference_theta_floor(h, tol), abs=tol), name


def test_theta_floor_polishes_no_midpoint_that_a_stored_witness_refutes(monkeypatch):
    # A midpoint where a stored witness is already below RESCALE_TOL is
    # refuted without a polish, and the bisection ends on the same bits as
    # the one that polishes at every midpoint (``polyref``).
    module = importlib.import_module("polynormal.decompose")
    polishes, ref_polishes = [], []

    def recording(record, original):
        def polish(p, starts, budget, **start_jet):
            record.append(p._jet(np.asarray(starts))[0])
            return original(p, starts, budget, **start_jet)

        return polish

    monkeypatch.setattr(module, "polish_minimum", recording(polishes, module.polish_minimum))
    monkeypatch.setattr(polyref, "polish_minimum", recording(ref_polishes, polyref.polish_minimum))
    budget, tol = SearchBudget(), 1e-6
    for name, h in _reference_cases():
        floor = theta_floor(h, tol, budget).floor
        ref = polyref.theta_floor_ref(h, tol, budget)
        assert np.float64(floor).tobytes() == np.float64(ref).tobytes(), name
    assert polishes and all(np.all(start >= RESCALE_TOL) for start in polishes)
    # The reference polishes from a negative witness at some midpoints.
    assert any(np.any(start < RESCALE_TOL) for start in ref_polishes)
    assert len(polishes) < len(ref_polishes)


def test_theta_floor_rescales_once_per_global_scan(monkeypatch, scan_calls):
    # The midpoints read the search's theta family; theta_rescale forms only
    # the polynomials the search scans: the start and each confirmation.
    module = importlib.import_module("polynormal.decompose")
    rescaled = []

    def recording(h, theta):
        rescaled.append(theta)
        return theta_rescale(h, theta)

    monkeypatch.setattr(module, "theta_rescale", recording)
    for name, h in _reference_cases():
        del scan_calls[:], rescaled[:]
        theta_floor(h, 1e-6)
        assert len(rescaled) == len(scan_calls) >= 1, name
        for p, theta in zip(scan_calls, rescaled):
            assert p.terms.dense().tobytes() == theta_rescale(h, theta).terms.dense().tobytes(), name


def _quartic_1d_hermite():
    """x^4 + x^2 + 1 with A = [[1]], b = [0]."""
    return make_pnd(Polynomial.from_terms(1, {(4,): 1.0, (2,): 1.0, (0,): 1.0}), [[1.0]], [0.0]).hermite


def test_theta_floor_runs_at_the_smallest_tolerance():
    with deadline(20.0):
        found = theta_floor(_quartic_1d_hermite(), tol=2.0**-52)
    assert 0.0 < found.floor < found.theta < 1.0 and found.scan.attained


@pytest.mark.parametrize("tol", [1e-17, 1e-20])
def test_theta_floor_rejects_a_tolerance_below_float_resolution(tol):
    # Below 2**-52 the bisection's ends can become adjacent floats, and
    # hi - lo > tol would hold forever; the deadline bounds such a search.
    with deadline(20.0), pytest.raises(ValueError, match=r"at least 2\*\*-52"):
        theta_floor(_quartic_1d_hermite(), tol=tol)


def test_theta_floor_rejects_nonpositive_input():
    # x^2 touches zero: every rescaling below 1 dips negative
    h = to_hermite(Polynomial.from_terms(1, {(2,): 1.0}))
    with pytest.raises(NoAdmissibleTheta):
        theta_floor(h, tol=1e-4)


def test_theta_floor_rejects_a_start_scan_not_attained():
    # (x1^2 - x2^2)^2 + 1 is positive, but every p_theta with theta < 1
    # falls below zero along the diagonals outside the scan's box; at
    # 1 - 1e-9 the scan's minimum sits at a corner of the box.
    h = make_pnd(indefinite_top_form_poly(), np.eye(2), np.zeros(2)).hermite
    scan = minimize_polynomial(theta_rescale(h, 1.0 - 1e-9), SearchBudget())
    assert scan.value >= RESCALE_TOL and not scan.attained
    with pytest.raises(NoAdmissibleTheta, match="not attained") as err:
        theta_floor(h, tol=1e-6)
    assert f"{scan.value:.6g}" in str(err.value) and str(scan.point) in str(err.value)


def test_theta_floor_replays_after_a_confirmation_not_attained(monkeypatch):
    # The first confirmation scan, at floor + tol, is made to report a
    # nonnegative minimum it does not attain: that refutes its theta like a
    # negative scan, and every theta below.  So the replayed bisection spends
    # no midpoint at or below floor + tol and ends above it, at most tol
    # higher, confirmed by a third scan.
    module = importlib.import_module("polynormal.decompose")
    scans = []

    def unattained_once(p, budget=None):
        result = minimize_polynomial(p, budget)
        scans.append(result)
        if len(scans) == 2:
            return MinimizationResult(result.point, result.value, attained=False)
        return result

    monkeypatch.setattr(module, "minimize_polynomial", unattained_once)
    h = HermiteCoeffs.from_coeffs(1, {(2,): 0.5, (0,): 1.0})  # floor sqrt(1/2)
    tol = 1e-6
    replayed = theta_floor(h, tol).floor
    assert len(scans) == 3
    monkeypatch.undo()
    floor = theta_floor(h, tol).floor
    assert floor + tol < replayed <= floor + 2 * tol


def test_a_run_of_confirmations_not_attained_moves_the_search_geometrically(monkeypatch):
    # Every scan below theta = 0.9 is made to report its positive minimum
    # as not attained.  Refuting only up to its own theta, each confirmation
    # would move the search by tol, some 2e5 scans; the k-th refutes
    # (2^(k-1) - 1) tol past it as well, so about log2((0.9 - floor) / tol)
    # of them run, and the floor passes 0.9 by less than it travelled.
    module = importlib.import_module("polynormal.decompose")
    h = HermiteCoeffs.from_coeffs(1, {(2,): 0.5, (0,): 1.0})  # floor sqrt(1/2); p_theta(0) grows with theta
    tol, cut = 1e-6, 0.9
    below_cut = theta_rescale(h, cut).eval(np.zeros(1))
    scans = []

    def unattained_below_cut(p, budget=None):
        result = minimize_polynomial(p, budget)
        if p.eval(np.zeros(1)) < below_cut:
            result = MinimizationResult(result.point, result.value, attained=False)
        scans.append(result)
        return result

    monkeypatch.setattr(module, "minimize_polynomial", unattained_below_cut)
    found = theta_floor(h, tol)
    unattained = [r for r in scans[1:] if not r.attained]
    assert all(r.value >= RESCALE_TOL for r in unattained)
    assert len(unattained) <= 20 and len(scans) == len(unattained) + 2
    assert found.scan.attained and cut - tol <= found.floor <= cut + (cut - math.sqrt(0.5))


def test_decompose_gates_on_the_theta_searchs_confirmation(scan_calls):
    # The start scan and the confirmation at floor + tol, which is the gate:
    # no third scan at the theta of the split.
    pnd, tol = rotated_oracle_pnd(), 1e-6
    scan_calls.clear()
    dec = decompose(pnd, tol=tol)
    assert len(scan_calls) == 2
    found = theta_floor(pnd.hermite, tol)
    assert len(scan_calls) == 4  # no replay: a confirmation that failed would add one
    assert dec.theta == found.theta == found.floor + tol
    assert dec.theta == pytest.approx(1.0 / math.sqrt(1.5), abs=2 * tol)
    assert scan_calls[1].terms.dense().tobytes() == theta_rescale(pnd.hermite, dec.theta).terms.dense().tobytes()


@pytest.mark.parametrize("name", ["rotated oracle", "eligible quartic", "desk quartic"])
def test_a_split_on_the_confirmation_equals_a_split_on_a_fresh_gate_scan(name):
    pnd = {
        "rotated oracle": rotated_oracle_pnd,
        "eligible quartic": lambda: make_pnd(eligible_quartic_poly(), np.eye(2), np.zeros(2)),
        "desk quartic": lambda: make_pnd(desk_quartic_poly(), np.array([[2.0, 0.3], [0.3, 1.0]]), np.array([0.2, -0.1])),
    }[name]()
    dec = decompose(pnd, tol=1e-6)
    fresh = minimize_polynomial(theta_rescale(pnd.hermite, dec.theta), SearchBudget())
    assert np.float64(dec.min_p_theta).tobytes() == np.float64(fresh.value).tobytes()
    # An explicit theta is gated by a scan of its own.
    again = decompose(pnd, theta=dec.theta)
    assert json.dumps(decomposition_to_dict(again)) == json.dumps(decomposition_to_dict(dec))
    assert np.float64(again.factor_Y.norm_const).tobytes() == np.float64(dec.factor_Y.norm_const).tobytes()


def test_an_explicit_theta_is_gated_by_its_own_scan(scan_calls):
    pnd = make_pnd(Polynomial.from_terms(1, {(2,): 1.0, (0,): 1.0}), [[1.0]], [0.0])
    scan_calls.clear()
    decompose(pnd, theta=0.8)
    assert len(scan_calls) == 1
    with pytest.raises(ThetaInadmissible):
        decompose(pnd, theta=0.5)  # below the sqrt(1/2) floor
    assert len(scan_calls) == 2


def _near_one_floor_pnd(c):
    """x^2 + c: the floor of its theta search is 1 / sqrt(1 + c)."""
    return make_pnd(Polynomial.from_terms(1, {(2,): 1.0, (0,): c}), [[1.0]], [0.0])


@pytest.mark.parametrize(
    "c, tol, ends_at_start",
    [(3e-9, 1e-6, True), (3e-3, 1e-3, False)],
    ids=["bisection ends at its start", "floor + tol at least 1"],
)
def test_no_confirmation_where_no_split_is_possible(scan_calls, c, tol, ends_at_start):
    # Only the start scan runs: floor + tol >= 1, so no theta below 1 is left
    # to confirm, and decompose refuses as before.
    pnd = _near_one_floor_pnd(c)
    assert precheck(pnd).verdict == VERDICT_ELIGIBLE
    scan_calls.clear()
    found = theta_floor(pnd.hermite, tol)
    assert len(scan_calls) == 1
    assert (found.floor == 1.0 - 1e-9) == ends_at_start
    assert found.floor < 1.0 <= found.theta == found.floor + tol
    assert found.p_theta is None and found.scan is None
    assert found.floor == pytest.approx(1.0 / math.sqrt(1.0 + c), abs=tol)
    with pytest.raises(NoAdmissibleTheta):
        decompose(pnd, tol=tol)


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
    with pytest.raises(ThetaInadmissible, match="rescaled polynomial reaches") as err:
        decompose(pnd, theta=0.5)  # below the sqrt(1/2) floor
    assert err.value.negative and err.value.value < RESCALE_TOL


def test_decompose_rejects_a_gate_minimum_not_attained():
    # At theta = 0.99999 the scan is positive in the box, but its minimum
    # sits at the box corner and the polynomial falls below zero further out.
    pnd = make_pnd(indefinite_top_form_poly(), np.eye(2), np.zeros(2))
    with pytest.raises(ThetaInadmissible, match="is not attained") as err:
        decompose(pnd, theta=0.99999)
    assert not err.value.negative and err.value.value >= RESCALE_TOL
    assert theta_rescale(pnd.hermite, 0.99999).eval(np.array([1e4, 1e4])) < 0.0


def test_decompose_default_theta_is_near_floor():
    pnd = make_pnd(Polynomial.from_terms(1, {(2,): 1.0, (0,): 1.0}), [[1.0]], [0.0])
    dec = decompose(pnd, tol=1e-6)
    assert dec.theta == pytest.approx(math.sqrt(0.5), abs=3e-6)
    assert dec.min_p_theta >= -1e-12


def test_decompose_carries_its_precheck(monkeypatch):
    module = sys.modules["polynormal.decompose"]  # the package re-exports the function
    calls = []

    def counting(q, budget):
        calls.append(q)
        return epsilon_bound(q, budget)

    monkeypatch.setattr(module, "epsilon_bound", counting)
    pnd = make_pnd(desk_quartic_poly(), np.eye(2), np.zeros(2))
    dec = decompose(pnd, tol=1e-4)
    assert len(calls) == 1
    assert diagnosis_to_dict(dec.diagnosis) == diagnosis_to_dict(precheck(pnd))
    assert dec.diagnosis.verdict == VERDICT_ELIGIBLE


def test_precheck_searches_the_infimum_with_its_budget():
    pnd = make_pnd(desk_quartic_poly(), np.eye(2), np.zeros(2))
    for doublings in (3, 6):
        assert precheck(pnd, SearchBudget(doublings=doublings)).report.search_radius == 2.0**doublings


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
    probe = SearchBudget(doublings=3, starts=3)
    for _ in range(20):
        p = _random_eligible_poly(rng)
        pnd = make_pnd(p, np.eye(2), np.zeros(2), FAST_BUDGET)
        h = pnd.hermite
        found = theta_floor(h, tol=1e-3, budget=probe)
        assert 0.0 < found.floor < found.theta == found.floor + 1e-3 < 1.0
        # A global scan confirms floor + tol, not the floor: at rng 17 the
        # probe budget scans -5.4e-4 at the floor 0.9160156.
        for theta in np.linspace(found.theta, 1.0 - 1e-9, 5):
            assert minimize_polynomial(theta_rescale(h, theta), probe).value >= -1e-9
