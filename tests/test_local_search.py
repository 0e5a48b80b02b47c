"""The batched local searches of the minimum scan.

``pnd._local_minima`` runs one projected Newton search per start, all
starts at once.  For d = 1..3 and degree <= 8: every point returned lies
in the box, no value is above the start's, every result is stationary in
the box up to the square root of rounding (where Newton's predicted
decrease falls below rounding), and a start's result is bit for bit its
result alone, whatever the other starts of its batch and their boxes.
The halvings of the Armijo line search are tested in blocks, one
evaluation per block, after one evaluation of every full step when all
the starts still searching try one; in one dimension the step is taken
without an eigensolver.  All of it must give exactly the points and
values of the search that evaluates one halving at a time (``polyref``).
``pnd.minimize_polynomial`` is one such call on every round's seeds, drawn
in one call of the generator and bit for bit those drawn round by round
(``polyref``), so it
must equal the scan that searches its rounds one after another
(``polyref``) exactly, and it must go no higher than the scan with one scipy
L-BFGS-B search per start, which also restarts each round from the best
point so far (``polyref``), on the regression inputs of the theta search.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polynormal import pnd
from polynormal.pnd import SearchBudget, _local_minima, _scan_seeds, make_pnd, minimize_polynomial, polish_minimum
from polynormal.polyalg import Polynomial, theta_rescale

from conftest import (
    FAST_BUDGET,
    eligible_quartic_poly,
    example4_poly,
    polynomials,
    random_signed_poly,
    valley_poly,
)
from polyref import local_minima_ref, minimize_polynomial_ref, minimize_polynomial_rounds_ref, scan_seeds_ref
from test_cli import _quartic_family
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


def _assert_each_start_alone(p, starts, radii, pts, vals):
    """Each start's batched result is bit for bit its single-start result."""
    for start, radius, pt, val in zip(starts, radii, pts, vals):
        one_pt, one_val = _local_minima(p, start[None, :], float(radius))
        assert one_val.tobytes() == val.tobytes()
        assert one_pt.tobytes() == pt.tobytes()


def _assert_same_as_one_halving_at_a_time(p, starts, radius):
    pts, vals = _local_minima(p, starts, radius)
    ref_pts, ref_vals = local_minima_ref(p, starts, radius)
    assert np.array_equal(pts, ref_pts) and pts.tobytes() == ref_pts.tobytes()
    assert np.array_equal(vals, ref_vals) and vals.tobytes() == ref_vals.tobytes()


@FAST
@given(polynomials(), st.sampled_from([0.5, 1.0, 4.0]))
def test_each_start_gives_its_single_start_result_in_a_batch(case, radius):
    p, rng = case
    starts = _starts(rng, p.dim, radius)
    pts, vals = _local_minima(p, starts, radius)
    _assert_each_start_alone(p, starts, [radius] * len(starts), pts, vals)


@FAST
@given(polynomials())
def test_each_start_in_its_own_box_gives_its_single_start_result(case):
    p, rng = case
    boxes = [0.5, 1.0, 4.0, 64.0]
    starts = np.vstack([_starts(rng, p.dim, r) for r in boxes])
    radii = np.repeat(boxes, len(starts) // len(boxes))
    pts, vals = _local_minima(p, starts, radii)
    assert np.all(np.abs(pts) <= radii[:, None])
    _assert_each_start_alone(p, starts, radii, pts, vals)
    order = rng.permutation(len(starts))  # boxes mixed within the batch
    _assert_same_as_one_halving_at_a_time(p, starts[order], radii[order])


def test_saddle_at_the_start_is_left_downhill():
    # x1^4 + x2^4 + x1^2 x2^2 - x1^2: the origin is a stationary point with
    # Hessian diag(-2, 0); the minima are -1/4 at (+-1/sqrt(2), 0).
    p = Polynomial.from_terms(2, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): 1.0, (2, 0): -1.0})
    for radius in (1.0, 64.0):
        pts, vals = _local_minima(p, np.zeros((1, 2)), radius)
        assert vals[0] < 0.0
        assert vals[0] == pytest.approx(-0.25, abs=1e-12)
        _assert_same_as_one_halving_at_a_time(p, np.zeros((1, 2)), radius)
    pts, vals = polish_minimum(p, np.zeros((1, 2)), FAST_BUDGET)
    assert vals[0] < 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("doublings", [0, 30, 40, 60, 127])
def test_saddle_at_the_start_is_left_in_a_wide_box(doublings):
    # x1^8 + x2^8 - x1 x2: the origin is a saddle; the minima are -3/8 at
    # +-(1, 1)/sqrt(2).  The first step along the negative curvature is as
    # long as the box's diameter, up to 2**128.5 here.
    p = Polynomial.from_terms(2, {(8, 0): 1.0, (0, 8): 1.0, (1, 1): -1.0})
    _, vals = polish_minimum(p, np.zeros((1, 2)), SearchBudget(doublings=doublings))
    assert vals[0] == pytest.approx(-0.375, abs=1e-12)
    _assert_same_as_one_halving_at_a_time(p, np.zeros((1, 2)), 2.0**doublings)


@pytest.mark.parametrize("corner", [1.0, -1.0])
def test_level_start_on_a_bound_with_negative_curvature_moves_into_the_box(corner):
    # -(x - c)^2 on [-1, 1] from x = c: no slope, curvature -2; the minimum
    # is -4 at the opposite bound.
    p = Polynomial.from_terms(1, {(2,): -1.0, (1,): 2.0 * corner, (0,): -1.0})
    pts, vals = _local_minima(p, np.array([[corner]]), 1.0)
    assert pts[0, 0] == -corner and vals[0] == pytest.approx(-4.0)
    _assert_same_as_one_halving_at_a_time(p, np.array([[corner]]), 1.0)


@pytest.mark.parametrize(
    "dim, terms",
    [
        (2, {}),
        (2, {(0, 0): 2.0}),
        (2, {(1, 0): 1.0, (0, 1): -2.0}),
        (2, {(2, 0): 1.0, (0, 1): 1.0}),
        (2, {(1, 1): 1.0}),
        (1, {}),
        (1, {(0,): 2.0}),
        (1, {(1,): -2.0, (0,): 1.0}),
        (1, {(2,): -1.0, (4,): 1.0}),
    ],
    ids=["zero", "constant", "linear", "flat in x2", "bilinear",
         "1-D zero", "1-D constant", "1-D linear", "1-D double well from its maximum"],
)
def test_flat_and_linear_pieces_give_finite_points(dim, terms):
    # Warnings are errors in the suite, so a 0/0 or an overflow fails here too.
    p = Polynomial.from_terms(dim, terms)
    starts = np.array([[0.0, 0.0], [0.3, -0.2], [3.0, 3.0]])[:, :dim]
    pts, vals = _local_minima(p, starts, 3.0)
    assert np.all(np.isfinite(pts)) and np.all(np.isfinite(vals))
    assert np.all(vals <= p.eval_many(starts))
    if terms == {(1, 0): 1.0, (0, 1): -2.0}:
        assert np.allclose(pts, [-3.0, 3.0]) and np.allclose(vals, -9.0)
    if terms == {(1,): -2.0, (0,): 1.0}:
        assert np.all(pts == 3.0) and np.all(vals == -5.0)
    if terms == {(2,): -1.0, (4,): 1.0}:  # -x^2 + x^4 leaves its maximum 0
        assert vals == pytest.approx(-0.25, abs=1e-12)
    _assert_same_as_one_halving_at_a_time(p, starts, 3.0)


def test_a_1d_start_at_a_local_maximum_is_left_in_boxes_of_every_width():
    # -x^2 + x^4 from x = 0: slope 0 and curvature -2, so the search turns,
    # with a first step as long as the box's diameter, 2**128 at the widest.
    p = Polynomial.from_terms(1, {(2,): -1.0, (4,): 1.0})
    for doublings in range(128):
        radius = 2.0**doublings
        pts, vals = _local_minima(p, np.zeros((1, 1)), radius)
        assert vals[0] == pytest.approx(-0.25, abs=1e-12), doublings
        _assert_same_as_one_halving_at_a_time(p, np.zeros((1, 1)), radius)


def test_the_1d_step_calls_no_eigensolver(monkeypatch):
    calls = []
    original = np.linalg.eigh

    def counting(a):
        calls.append(a.shape)
        return original(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    quartic = Polynomial.from_terms(1, {(4,): 1.0, (3,): -2.0, (1,): 0.5, (0,): 1.0})
    minimize_polynomial(quartic, SearchBudget())
    polish_minimum(quartic, np.array([[-3.0], [0.2], [5.0]]), FAST_BUDGET)
    assert calls == []
    minimize_polynomial(eligible_quartic_poly(), SearchBudget())
    assert calls and all(shape[1:] == (2, 2) for shape in calls)


def _jet_sizes(monkeypatch, p, starts, radius, search=_local_minima):
    """The number of points of each evaluation that a search makes."""
    sizes = []
    original = Polynomial._jet

    def recording(q, pts):
        sizes.append(len(pts))
        return original(q, pts)

    monkeypatch.setattr(Polynomial, "_jet", recording)
    search(p, starts, radius)
    monkeypatch.setattr(Polynomial, "_jet", original)
    return sizes


def test_a_polish_from_the_callers_jet_equals_one_that_evaluates_it(monkeypatch):
    # The theta search hands its witnesses' jet to the polish.  Inside the
    # box it is read, not evaluated again, and left as it was; a start
    # outside the box is clipped, and then the jet is evaluated afresh.
    rng = np.random.default_rng(11)
    radius = 2.0**FAST_BUDGET.doublings
    for name, p in _regression_polynomials():
        inside = rng.uniform(-radius, radius, size=(5, p.dim))
        outside = np.vstack([inside, np.full(p.dim, 2.0 * radius)])
        for starts, saved in ((inside, 1), (outside, 0)):
            jet = p._jet(starts)
            kept = [a.copy() for a in jet]
            pts, vals = polish_minimum(p, starts, FAST_BUDGET, _start_jet=jet)
            ref_pts, ref_vals = polish_minimum(p, starts, FAST_BUDGET)
            assert pts.tobytes() == ref_pts.tobytes() and vals.tobytes() == ref_vals.tobytes(), name
            assert all(a.tobytes() == b.tobytes() for a, b in zip(jet, kept)), name
            from_jet = _jet_sizes(
                monkeypatch, p, starts, FAST_BUDGET, search=lambda q, s, b: polish_minimum(q, s, b, _start_jet=jet)
            )
            assert len(from_jet) == len(_jet_sizes(monkeypatch, p, starts, FAST_BUDGET, search=polish_minimum)) - saved


def test_the_full_step_falls_back_to_the_halving_blocks(monkeypatch):
    # (x1 x2 - 1)^2 + x2^2 in [-4, 4]^2.  On the edge x1 = 4 with 0 < x2 < 1/4
    # the gradient holds x1 on its bound, and p is the convex quadratic
    # 17 x2^2 - 8 x2 + 1: one full step reaches its minimum 4/17, where a
    # start is settled at once.  Starts inside walk the curved valley out to
    # the edge and halve their steps on the way.
    p, radius = valley_poly(1, 1.0, 1.0, 0.0), 4.0
    edge = np.array([[4.0, 0.1], [4.0, 0.2], [-4.0, -0.2]])
    valley = np.array([[1.0, 1.0], [0.5, 2.0], [-3.0, 3.0], [0.0, 0.0]])
    settled = _local_minima(p, edge[:1], radius)[0]
    assert _jet_sizes(monkeypatch, p, edge, radius) == [3, 3]
    assert _jet_sizes(monkeypatch, p, settled, radius) == [1]
    assert all(max(_jet_sizes(monkeypatch, p, start[None, :], radius)) > 1 for start in valley)
    batch = np.vstack([edge, valley, settled])
    for starts in (batch, batch[::-1]):
        _assert_same_as_one_halving_at_a_time(p, starts, radius)
        _assert_each_start_alone(p, starts, [radius] * len(starts), *_local_minima(p, starts, radius))


def test_a_batch_of_full_steps_evaluates_once_per_iteration(monkeypatch):
    # (x1^2 + x2^2)^2 from four symmetric starts: each Newton step takes the
    # starts from radius rho to 2 rho / 3, the full step always passes, and
    # all four stop in the same iteration.
    p = Polynomial.from_terms(2, {(4, 0): 1.0, (2, 2): 2.0, (0, 4): 1.0})
    starts = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
    sizes = _jet_sizes(monkeypatch, p, starts, 2.0)
    # The reference evaluates once per halving tested, so once per iteration here.
    ref_sizes = _jet_sizes(monkeypatch, p, starts, 2.0, search=local_minima_ref)
    assert len(sizes) > 10 and sizes == ref_sizes == [4] * len(sizes)


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
    for budget in (FAST_BUDGET, SearchBudget(doublings=4)):
        for name, p in _regression_polynomials():
            ref = minimize_polynomial_ref(p, budget)
            value = minimize_polynomial(p, budget).value
            assert value <= ref + 1e-10 * max(1.0, abs(ref)), name


SCAN_BUDGETS = [SearchBudget(), SearchBudget(doublings=4), FAST_BUDGET, SearchBudget(doublings=0)]


def _assert_same_scan(p, budget, name=""):
    ref = minimize_polynomial_rounds_ref(p, budget)
    res = minimize_polynomial(p, budget)
    assert res.point.tobytes() == ref.point.tobytes(), name
    assert np.float64(res.value).tobytes() == np.float64(ref.value).tobytes(), name
    assert res.attained == ref.attained, name


@settings(max_examples=60, deadline=None)
@given(polynomials(), st.sampled_from(SCAN_BUDGETS), st.integers(0, 3))
def test_scan_equals_the_round_by_round_scan(case, budget, seed):
    _assert_same_scan(case[0], replace(budget, seed=seed))


def _late_well_polynomials():
    """p_theta of the density whose confirmation scans find their well only
    in the last round (``test_cli``), deep inside the earlier rounds' boxes:
    attained, though the last round still improved."""
    p, A, b, _ = _quartic_family(3, False, 170)
    h = make_pnd(p, A, b).hermite
    return [(f"late well at theta {theta}", theta_rescale(h, theta)) for theta in (0.88, 0.9, 0.91)]


@pytest.mark.parametrize("budget", SCAN_BUDGETS, ids=["default", "probe", "fast", "one round"])
def test_scan_equals_the_round_by_round_scan_on_the_regression_inputs(budget):
    # Below their floors these polynomials dip negative near the box
    # fringe, so the best point moves with the box and is often not attained.
    for name, p in _regression_polynomials() + _late_well_polynomials():
        _assert_same_scan(p, budget, name)


class _ScanTarget:
    """Only what a scan reads of a polynomial p (``pnd._scan``)."""

    __slots__ = ("dim", "degree", "_jet", "_slope_numerator")

    def __init__(self, p: Polynomial):
        self.dim, self.degree, self._jet, self._slope_numerator = p.dim, p.degree, p._jet, p._slope_numerator


@pytest.mark.parametrize("budget", [SearchBudget(), SearchBudget(doublings=0)], ids=["default", "one round"])
@pytest.mark.parametrize(
    "p",
    [Polynomial.from_terms(1, {(4,): 1.0, (2,): -2.0, (1,): 0.3, (0,): 0.5}), example4_poly()],
    ids=["d=1", "d=2"],
)
def test_a_scan_reads_only_the_scan_target_of_a_polynomial(p, budget):
    res, ref = minimize_polynomial(_ScanTarget(p), budget), minimize_polynomial(p, budget)
    assert res.point.tobytes() == ref.point.tobytes()
    assert np.float64(res.value).tobytes() == np.float64(ref.value).tobytes()
    assert res.attained == ref.attained


@pytest.mark.parametrize("p", [example4_poly(), eligible_quartic_poly()], ids=["best moves", "best at origin"])
def test_a_scan_searches_every_rounds_seeds_in_its_first_call(monkeypatch, p):
    budget = SearchBudget()
    calls = []
    original = pnd._local_minima

    def recording(q, starts, radius):
        calls.append((len(starts), np.broadcast_to(radius, (len(starts),))))
        return original(q, starts, radius)

    monkeypatch.setattr(pnd, "_local_minima", recording)
    minimize_polynomial(p, budget)
    # Per round: the origin and 2d + 1 random points.
    per_round = 1 + 2 * p.dim + 1
    radii = 2.0 ** np.arange(budget.doublings + 1)
    assert len(calls) == 1
    rows, call_radii = calls[0]
    assert rows == (budget.doublings + 1) * per_round
    assert np.array_equal(call_radii, np.repeat(radii, per_round))


# grid_points 0 is the one value a budget accepts, and it draws no seed.
@pytest.mark.parametrize("grid_points", [0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_scan_seeds_equal_the_seeds_drawn_round_by_round(d, grid_points):
    p = random_signed_poly(np.random.default_rng(d), d, 4)
    for starts in (None, 0, 3):
        for doublings in (0, 3, 6):
            for seed in range(5):
                budget = SearchBudget(doublings=doublings, starts=starts, grid_points=grid_points, seed=seed)
                seeds, radii = _scan_seeds(p, budget)
                ref_seeds, ref_radii = scan_seeds_ref(p, budget)
                assert seeds.shape == ref_seeds.shape and seeds.tobytes() == ref_seeds.tobytes(), budget
                assert radii.dtype == ref_radii.dtype and radii.tobytes() == ref_radii.tobytes(), budget


@st.composite
def one_variable_cases(draw):
    """(p, kind): a polynomial in one variable of degree 1..8 with random
    coefficients, or one of the shapes a scan in one variable must not miss:
    a quartic floor (x - a)^4 + c, whose stationary point is a triple root
    of p'; a double well ((x - a)^2 - b)^2, double where b is 0 or tiny; a
    tilted well near x = 40, which only the last box (half-width 64) holds;
    and a polynomial that falls away, of odd degree or with a negative
    leading coefficient that outweighs the others."""
    kind = draw(st.sampled_from(["random", "quartic floor", "double well", "far well", "falls away"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = Polynomial.variable(1, 0)
    if kind == "random":
        scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
        coeffs = rng.uniform(-scale, scale, size=draw(st.integers(1, 8)) + 1)
    elif kind == "quartic floor":
        return (x - rng.uniform(-60.0, 60.0)) ** 4 + rng.uniform(-1.0, 1.0), kind
    elif kind == "double well":
        b = draw(st.sampled_from([0.0, 1e-12, 1e-6, float(rng.uniform(0.0, 4.0))]))
        return ((x - rng.uniform(-40.0, 40.0)) ** 2 - b) ** 2, kind
    elif kind == "far well":
        well = (x - rng.uniform(-2.0, 2.0)) * (x - rng.uniform(36.0, 44.0))
        return well * well + rng.uniform(-1.0, -0.01) * x, kind
    else:
        degree = draw(st.integers(1, 8))
        coeffs = rng.uniform(-1.0, 1.0, size=degree + 1)
        sign = -1.0 if degree % 2 == 0 else rng.choice([-1.0, 1.0])
        coeffs[-1] = sign * rng.uniform(0.5, 1.0)
    return Polynomial.from_terms(1, {(k,): c for k, c in enumerate(coeffs)}), kind


@settings(max_examples=100, deadline=None)
@given(one_variable_cases())
def test_a_one_variable_scan_finds_the_minimum_of_its_last_box(case):
    # p's minimum on a box is a root of p' or an end of the box, and the
    # scan seeds every one; a dense grid of the last box can only read higher.
    p, kind = case
    budget = SearchBudget()
    last = 2.0**budget.doublings
    res = minimize_polynomial(p, budget)
    grid = np.linspace(-last, last, 2**16 + 1)[:, None]
    values = p.eval_many(grid)
    lowest = int(np.argmin(values))
    rounding = 32.0 * np.finfo(float).eps * p._jet(grid[lowest:lowest + 1])[3][0]
    assert abs(res.point[0]) <= last
    assert res.value <= values[lowest] + rounding, (kind, res, grid[lowest], values[lowest])
    if kind == "falls away":
        assert not res.attained


def test_a_one_variable_scan_seeds_each_root_of_the_slope_once_in_its_first_box():
    # p' = 4 (x - 3)(x - 40)(x + 0.5): p has minima at -0.5 (round 0) and
    # 40 (round 6), the lower, and a maximum at 3 (round 2).  p falls
    # outward only at the right ends +4 .. +32, on its way down to 40.
    x = Polynomial.variable(1, 0)
    slope = (x - 3.0) * (x - 40.0) * (x + 0.5)
    p = Polynomial.from_terms(1, {(k + 1,): 4.0 * slope.coefficient((k,)) / (k + 1) for k in range(4)})
    seeds, radii = _scan_seeds(p, SearchBudget())
    expected = [
        (0.0, 1.0), (-0.5, 1.0),
        (0.0, 2.0),
        (0.0, 4.0), (3.0, 4.0), (4.0, 4.0),
        (0.0, 8.0), (8.0, 8.0),
        (0.0, 16.0), (16.0, 16.0),
        (0.0, 32.0), (32.0, 32.0),
        (0.0, 64.0), (40.0, 64.0),
    ]
    assert radii.tolist() == [r for _, r in expected]
    assert seeds[:, 0] == pytest.approx([s for s, _ in expected], abs=1e-12)
    res = minimize_polynomial(p, SearchBudget())
    assert res.point[0] == pytest.approx(40.0) and not res.attained  # only the last round holds it


def test_a_one_variable_scan_ignores_the_seed_starts_and_grid():
    rng = np.random.default_rng(7)
    cases = [
        Polynomial.from_terms(1, {(4,): 1.0, (2,): -2.0, (0,): 0.5}),
        Polynomial.from_terms(1, {(3,): 1.0, (1,): -3.0}),
        random_signed_poly(rng, 1, 6),
        random_signed_poly(rng, 1, 8),
    ]
    for p in cases:
        for doublings in (0, 3, 6):
            seeds, radii = _scan_seeds(p, SearchBudget(doublings=doublings))
            base = minimize_polynomial(p, SearchBudget(doublings=doublings))
            for seed, starts in itertools.product((0, 7, 123), (None, 0, 5)):
                budget = SearchBudget(doublings=doublings, starts=starts, seed=seed)
                other_seeds, other_radii = _scan_seeds(p, budget)
                assert other_seeds.tobytes() == seeds.tobytes() and other_radii.tobytes() == radii.tobytes()
                res = minimize_polynomial(p, budget)
                assert res.point.tobytes() == base.point.tobytes(), budget
                assert np.float64(res.value).tobytes() == np.float64(base.value).tobytes(), budget
                assert res.attained == base.attained, budget


@pytest.mark.parametrize("power", [1, 2])
@pytest.mark.parametrize("radius", [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
def test_halving_blocks_equal_one_halving_at_a_time_in_a_valley(power, radius):
    # (x1 x2^k - c)^2 + w x2^2 + e: the infimum e lies at infinity along a
    # curved valley, which long ladders of halvings walk out to the box edge.
    rng = np.random.default_rng(power * 100 + int(radius))
    for c, w, e in [(1.0, 1.0, 0.0), (0.5, 0.1, 1.0), (2.0, 1.0, 1e-3)]:
        _assert_same_as_one_halving_at_a_time(valley_poly(power, c, w, e), _starts(rng, 2, radius), radius)


def test_halving_blocks_stop_at_each_starts_own_cap(monkeypatch):
    # At d = 2 and half-width 2**10 the box's diameter is about 2896, so a
    # start halves at most ceil(log2(2896)) + 32 = 44 times, past the 40 of
    # smaller boxes.  A ladder that reaches the block of halvings 31..62
    # evaluates only 31..43 there: 13 points for a start searched alone.
    p, radius = valley_poly(2, 1.0, 1.0, 0.0), 2.0**10
    starts = np.random.default_rng(5).uniform(-radius, radius, size=(20, 2))
    _assert_same_as_one_halving_at_a_time(p, starts, radius)
    sizes = []
    original = Polynomial._jet

    def recording(q, pts):
        sizes.append(len(pts))
        return original(q, pts)

    monkeypatch.setattr(Polynomial, "_jet", recording)
    for start in starts:
        _local_minima(p, start[None, :], radius)
    assert 13 in sizes and max(sizes) <= 16
    # 2**115 t^4 - t from t = 0: the step is the box's diameter, and only
    # halvings k >= 40 pass.  In the box [-1, 1] the cap is 40 halvings, so
    # the start stays at 0, even while a start in a box of half-width 2**10
    # (cap 43) tests halvings 31..42 in the same evaluation.
    quartic = Polynomial.from_terms(1, {(4,): 2.0**115, (1,): -1.0})
    pts, vals = _local_minima(quartic, np.zeros((2, 1)), np.array([1.0, 2.0**10]))
    assert np.array_equal(pts, np.zeros((2, 1))) and np.array_equal(vals, np.zeros(2))
    _assert_same_as_one_halving_at_a_time(quartic, np.zeros((2, 1)), np.array([1.0, 2.0**10]))


@pytest.mark.parametrize(
    "p, most",
    [(example4_poly(), 136), (valley_poly(2, 1.0, 1.0, 0.0), 236)],
    ids=["example 4", "x1 x2^2 valley"],
)
def test_a_valley_scan_makes_at_most_half_the_evaluations_of_one_halving_at_a_time(monkeypatch, p, most):
    # One evaluation per halving made 272 and 473 evaluations in these scans.
    calls = []
    original = Polynomial._jet

    def counting(q, pts):
        calls.append(len(pts))
        return original(q, pts)

    monkeypatch.setattr(Polynomial, "_jet", counting)
    minimize_polynomial(p, SearchBudget())
    assert len(calls) <= most
