"""The batched local searches of the minimum scan.

``pnd._local_minima`` runs one projected Newton search per start, all
starts at once.  For d = 1..3 and degree <= 8: every point returned lies
in the box, no value is above the start's, every result is stationary in
the box up to the square root of rounding (where Newton's predicted
decrease falls below rounding), and a start's result does not depend on
the other starts of its batch.  The scan built on it must go no higher
than the scan with one scipy L-BFGS-B search per start (``polyref``) on the
regression inputs of the theta search.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polynormal.pnd import SearchBudget, _local_minima, minimize_polynomial, polish_minimum
from polynormal.polyalg import Polynomial, theta_rescale

from conftest import FAST_BUDGET, eligible_quartic_poly, example4_poly, polynomials
from polyref import minimize_polynomial_ref
from test_decompose import _reference_cases

FAST = settings(max_examples=40, deadline=None)
STATIONARY_TOL = 1e-6


def _starts(rng, d, radius):
    """Random starts, some outside the box, plus the origin and a corner."""
    return np.vstack([rng.uniform(-1.2 * radius, 1.2 * radius, size=(6, d)), np.zeros(d), np.full(d, radius)])


def _gradient_scale(p: Polynomial, radius: float) -> float:
    """A bound on |dp/dx_j| over the box."""
    r = max(1.0, radius)
    return max(1.0, p.degree) * max(1.0, sum(abs(c) * r ** sum(a) for a, c in p.terms.items()))


@FAST
@given(polynomials(), st.sampled_from([0.5, 1.0, 4.0]))
def test_local_minima_stay_in_the_box_descend_and_are_stationary(case, radius):
    p, rng = case
    starts = _starts(rng, p.dim, radius)
    pts, vals = _local_minima(p, starts, radius)
    assert pts.shape == starts.shape and vals.shape == (len(starts),)
    assert np.all(np.abs(pts) <= radius)
    assert np.all(vals <= p._jet(np.clip(starts, -radius, radius))[0])
    grads = p._jet(pts)[1]
    projected = np.abs(pts - np.clip(pts - grads, -radius, radius))
    assert np.max(projected) <= STATIONARY_TOL * _gradient_scale(p, radius)


@FAST
@given(polynomials(), st.sampled_from([0.5, 1.0, 4.0]))
def test_each_start_gives_its_single_start_result_in_a_batch(case, radius):
    p, rng = case
    starts = _starts(rng, p.dim, radius)
    pts, vals = _local_minima(p, starts, radius)
    for start, pt, val in zip(starts, pts, vals):
        one_pt, one_val = _local_minima(p, start[None, :], radius)
        assert abs(one_val[0] - val) <= 1e-12 * max(1.0, abs(val))
        assert np.max(np.abs(one_pt[0] - pt)) <= 1e-12 * max(1.0, radius)


def test_saddle_at_the_start_is_left_downhill():
    # x1^4 + x2^4 + x1^2 x2^2 - x1^2: the origin is a stationary point with
    # Hessian diag(-2, 0); the minima are -1/4 at (+-1/sqrt(2), 0).
    p = Polynomial.from_terms(2, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): 1.0, (2, 0): -1.0})
    for radius in (1.0, 64.0):
        pts, vals = _local_minima(p, np.zeros((1, 2)), radius)
        assert vals[0] < 0.0
        assert vals[0] == pytest.approx(-0.25, abs=1e-12)
    pts, vals = polish_minimum(p, np.zeros((1, 2)), FAST_BUDGET)
    assert vals[0] < 0.0


@pytest.mark.parametrize("corner", [1.0, -1.0])
def test_level_start_on_a_bound_with_negative_curvature_moves_into_the_box(corner):
    # -(x - c)^2 on [-1, 1] from x = c: no slope, curvature -2; the minimum
    # is -4 at the opposite bound.
    p = Polynomial.from_terms(1, {(2,): -1.0, (1,): 2.0 * corner, (0,): -1.0})
    pts, vals = _local_minima(p, np.array([[corner]]), 1.0)
    assert pts[0, 0] == -corner and vals[0] == pytest.approx(-4.0)


@pytest.mark.parametrize(
    "terms",
    [{}, {(0, 0): 2.0}, {(1, 0): 1.0, (0, 1): -2.0}, {(2, 0): 1.0, (0, 1): 1.0}, {(1, 1): 1.0}],
    ids=["zero", "constant", "linear", "flat in x2", "bilinear"],
)
def test_flat_and_linear_pieces_give_finite_points(terms):
    # Warnings are errors in the suite, so a 0/0 or an overflow fails here too.
    p = Polynomial.from_terms(2, terms)
    starts = np.array([[0.0, 0.0], [0.3, -0.2], [3.0, 3.0]])
    pts, vals = _local_minima(p, starts, 3.0)
    assert np.all(np.isfinite(pts)) and np.all(np.isfinite(vals))
    assert np.all(vals <= p.eval_many(starts))
    if terms == {(1, 0): 1.0, (0, 1): -2.0}:
        assert np.allclose(pts, [-3.0, 3.0]) and np.allclose(vals, -9.0)


def _regression_polynomials():
    """The theta search's regression inputs at theta near 1, where they are
    positive, and below their floors, where they dip negative or are
    unbounded below in the box, plus the CLI reference densities."""
    out = [("reference density", example4_poly()), ("eligible quartic", eligible_quartic_poly())]
    for name, h in _reference_cases():
        for theta in (1.0 - 1e-9, 0.9, 0.7, 0.4):
            out.append((f"{name} at theta {theta}", theta_rescale(h, theta)))
    return out


def test_scan_is_no_higher_than_the_lbfgsb_scan():
    for budget in (FAST_BUDGET, SearchBudget(doublings=4, grid_points=7)):
        for name, p in _regression_polynomials():
            ref = minimize_polynomial_ref(p, budget)
            value = minimize_polynomial(p, budget).value
            assert value <= ref + 1e-10 * max(1.0, abs(ref)), name
