"""Polynomial-normal densities: whitening, normalization, evaluation, minima.

A density here is norm_const * sqrt(det A) / (2 pi)^{d/2} * p(x)
* exp(-(x-b)' A (x-b) / 2) with p a nonnegative polynomial of even degree
and A positive definite.  The normalizing constant comes from the constant
Hermite coefficient of the whitened polynomial: under x = L u + b with
L'AL = I, only the constant term of the Hermite expansion survives the
Gaussian integral, so norm_const = 1 / beta_0.  A PND keeps that whitening,
normalized, with its Hermite coefficients; ``integral_quadrature``
recomputes p(L u + b) as an independent cross-check of the normalization.

Nonnegativity is checked by a multi-start minimum scan over growing boxes
(``minimize_polynomial`` through ``_scan``, the one global scan of every
search): one batch of projected Newton searches on the exact values,
gradients and Hessians of the polynomial, which holds the seeds of every
round, each start in its own round's box.  In one variable the seeds are
the critical points of p and the box ends where p falls outward, which
hold every minimum on the boxes; in more, random points.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import InitVar, dataclass, field

import numpy as np
from numpy.polynomial import hermite_e
from numpy.polynomial.polynomial import polyroots, polyval

from .errors import (
    DimensionMismatch,
    NegativeDensity,
    NotPositiveDefinite,
    NotSymmetric,
    ZeroIntegral,
)
from .polyalg import (
    HermiteCoeffs,
    Polynomial,
    _wrap,
    affine_substitute,
    polynomial_from_dict,
    polynomial_to_dict,
    tensor_grid,
    to_hermite,
)

SYMMETRY_TOL = 1e-12
WHITEN_TOL = 1e-10
# A scan result this far below zero rejects the polynomial as a density.
NEGATIVITY_TOL = -1e-9


@dataclass(frozen=True)
class QuadForm:
    """Positive definite quadratic form A with its one factorization.

    A = K K' with K = ``root``, and ``whitener`` is L = K^{-T}: L' A L = I,
    L^{-1} = K' and A^{-1} = L L'; ``sqrt_det`` is sqrt(det A).  Only
    ``make_quadform`` factors a form, choosing K = A^{1/2}, the symmetric
    square root; ``inverse`` and ``scaled`` read the forms of A^{-1} and
    A / s^2 from these factors.  Every K gives the same density,
    characteristic function and normalization, and readers rely on the
    identities above alone, never on K's shape.
    The axis condition of ``precheck`` is not distributional: it reads the
    whitened polynomial's coordinates, which A^{1/2} permutes with A's.
    """

    dim: int
    matrix: np.ndarray
    root: np.ndarray
    whitener: np.ndarray
    sqrt_det: float

    def inverse(self) -> "QuadForm":
        """The form of A^{-1} = L L', factored by L, whitened by K; no new factorization."""
        S = self.whitener @ self.whitener.T
        S = 0.5 * (S + S.T)
        S.setflags(write=False)
        return QuadForm(self.dim, S, self.whitener, self.root, 1.0 / self.sqrt_det)

    def scaled(self, s: float) -> "QuadForm":
        """The form of A / s^2 (s > 0), factored by K / s, whitened by L s; no new factorization."""
        M, K, L = self.matrix / s**2, self.root / s, self.whitener * s
        for a in (M, K, L):
            a.setflags(write=False)
        return QuadForm(self.dim, M, K, L, self.sqrt_det / s**self.dim)


def make_quadform(A) -> QuadForm:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise NotPositiveDefinite("matrix has an entry that is not finite")
    asym = float(np.max(np.abs(A - A.T))) if A.size else 0.0
    if asym > SYMMETRY_TOL:
        raise NotSymmetric(f"asymmetry {asym:.3e} exceeds {SYMMETRY_TOL}")
    A = 0.5 * (A + A.T)
    try:
        w, V = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"matrix is not positive definite: {exc}") from exc
    if not w[0] > 0.0:
        raise NotPositiveDefinite(f"matrix is not positive definite: smallest eigenvalue {w[0]:.3e}")
    root_w = np.sqrt(w)
    K = (V * root_w) @ V.T
    L = np.linalg.inv(K).T
    resid = float(np.max(np.abs(L.T @ A @ L - np.eye(A.shape[0]))))
    if resid > WHITEN_TOL:
        raise NotPositiveDefinite(f"whitening residual {resid:.3e} exceeds {WHITEN_TOL}")
    for a in (A, K, L):
        a.setflags(write=False)
    return QuadForm(A.shape[0], A, K, L, float(np.prod(root_w)))


@dataclass(frozen=True)
class PND:
    """Polynomial-normal density model, built only by ``_build_pnd``.

    ``form`` is the precision A, factored once by ``make_quadform``; the
    covariance A^{-1} of the characteristic function is ``form.inverse()``.
    ``scan`` is the (budget, result) of the minimum scan of ``poly`` that
    validated it, or None; ``find_min_poly`` reuses it for the same budget.
    ``whitened`` is norm_const * p(L u + b) and ``hermite`` its Hermite
    coefficients (the beta_a of the characteristic function): norm_const
    times the one expansion that ``_build_pnd`` made for beta_0.
    """

    poly: Polynomial
    form: QuadForm
    shift: np.ndarray
    norm_const: float
    scan: tuple | None = field(compare=False, repr=False)
    whitened: Polynomial = field(compare=False, repr=False)
    hermite: HermiteCoeffs = field(compare=False, repr=False)

    @property
    def dim(self) -> int:
        return self.form.dim


@dataclass(frozen=True)
class SearchBudget:
    """Configuration for multi-start minimization over expanding boxes.

    Round k (k = 0..doublings) searches the box [-2**k, 2**k]^d from the
    origin and ``starts`` uniform random points (default 2*dim + 1) with
    box-constrained Newton searches; the seeds of all rounds are searched
    in one batch.  Deterministic for a fixed seed.  A scan in one variable
    seeds each round at the critical points of p and the box ends where p
    falls outward instead (``pnd._critical_seeds``), and ignores ``starts``
    and ``seed``.  ``grid_points`` is init-only and must be 0, for callers
    that still pass it; nothing reads it.  A malformed field is a
    ValueError naming it; so is, at scan time, a ``doublings`` whose last
    box is too wide for the polynomial's degree and dimension (see
    ``_last_radius``).
    """

    doublings: int = 6
    starts: int | None = None
    grid_points: InitVar[int] = 0
    seed: int = 0

    def __post_init__(self, grid_points):
        for name in ("doublings", "starts", "seed"):
            value = getattr(self, name)
            if value is None and name == "starts":
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
                raise ValueError(f"SearchBudget.{name} must be a whole number >= 0, got {value!r}")
        if isinstance(grid_points, bool) or not isinstance(grid_points, numbers.Integral) or grid_points != 0:
            raise ValueError(f"SearchBudget.grid_points must be 0, got {grid_points!r}")


@dataclass(frozen=True)
class MinimizationResult:
    point: np.ndarray
    value: float
    attained: bool


# Local searches: projected-gradient tolerance, iteration cap, Armijo
# fraction, step halvings before a line search gives up (at least; more
# until a step as long as the box's diameter is at most 2**-32), and the
# widest gap to a bound (a fraction of the box's half-width) at which the
# gradient holds a coordinate there.
_GTOL = 1e-12
_MAX_ITER = 500
_ARMIJO = 1e-4
_HALVINGS = 40
_HOLD_GAP = 1e-6
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _clip(a, lo, hi):
    """``np.clip(a, lo, hi)`` for finite a and bounds lo < hi, in two ufunc calls."""
    return np.minimum(np.maximum(a, lo), hi)


def _local_minima(p: Polynomial, starts, radius, start_jet=None):
    """Local minima (points (n, d), values (n,)) of p from each of n starts,
    all searched at once, each inside its box [-r, r]^d, where r is
    ``radius``: one half-width for every start, or an (n,) array of one per
    start.  ``start_jet``, when given, is ``p._jet(starts)``, already
    computed by the caller; it is read (not changed) when the starts lie in
    their boxes, and evaluated again otherwise.

    Projected Newton (Bertsekas, SIAM J. Control Optim. 1982).  Coordinates
    that the gradient pushes out of the box and that lie within
    min(_HOLD_GAP * r, projected gradient) of a bound are held: they step
    onto the bound.  On the others the step is Newton's with each Hessian
    eigenvalue replaced by its magnitude, floored so that no eigencomponent
    of the step is longer than the box's diameter (no inf or NaN on flat or
    linear pieces); in one dimension the Hessian is its own eigenvalue, with
    eigenvector 1, and no eigensolver is called.  The step, projected onto
    the box, is halved until it gives an Armijo decrease.  When every start
    still searching tries a step, the full step is tested for all of them
    at once, and where all pass it is taken with no selection of starts.
    The step lengths 2**-k not yet tested are tested in blocks of doubling
    width, k in {0}, {1, 2}, {3..6}, {7..14}, ..., with one evaluation of p
    per block for all the starts still trying; each start takes the first
    k of the block that passes, so the accepted step is still the first
    halving that passes Armijo, as when the halvings are tested one at a
    time.  A start stops when its projected gradient is at most _GTOL, or
    when the decrease the step predicts is below the rounding of p, or
    after _MAX_ITER steps -- except where the reduced Hessian has a
    negative eigenvalue: there (a saddle) it steps along that eigenvector
    and stops only when no such step lowers p past rounding.  A start's
    iterates do not depend on the other starts or their boxes, so its
    result is bit for bit that of a call with it alone; no value returned
    is above that at the start (clipped into its box).
    """
    d = p.dim
    given = np.asarray(starts, dtype=float).reshape(-1, d)
    rad = np.full(len(given), radius, dtype=float)
    x = _clip(given, -rad[:, None], rad[:, None])
    if start_jet is not None and np.array_equal(x, given):
        # The search updates its jet in place.
        f, g, H, mag = (a.copy() for a in start_jet)
    else:
        f, g, H, mag = p._jet(x)
    points, values = x.copy(), f.copy()
    # The starts still searching; x, f, g, H, mag and the box arrays are theirs.
    ids = np.arange(len(x))
    reach = 2.0 * rad * math.sqrt(d)  # the box's diameter
    halvings = np.maximum(np.ceil(np.log2(reach)) + 32, _HALVINGS).astype(int)
    alphas = np.ldexp(1.0, -np.arange(halvings.max(initial=0)))  # 0.5**k, exactly
    squares = alphas * alphas
    # The box's bounds, 1 / reach and the holding gap, kept until the starts shrink.
    hi = rad[:, None]
    lo, inv_reach, hold_gap = -hi, (1.0 / reach)[:, None], _HOLD_GAP * rad
    eye = np.eye(d)
    for _ in range(_MAX_ITER):
        if ids.size == 0:
            break
        pg = np.abs(x - _clip(x - g, lo, hi))
        pg = pg[:, 0] if d == 1 else pg.max(axis=1)
        gap = hi - np.abs(x)
        held = gap <= np.minimum(hold_gap, pg)[:, None]
        any_held = held.any()
        if any_held:  # only near a bound does the gradient's direction matter
            held &= x * g < 0.0
            any_held = held.any()
        free, gf, Hf, snap = ~held, g, H, 0.0
        if any_held:
            gf = g * free
            Hf = H * (free[:, :, None] & free[:, None, :]) + eye * held[:, None, :]
            # First-order decrease of moving the held coordinates onto their bounds.
            snap = np.einsum("mi,mi->m", np.abs(g) * held, gap)
        if d == 1:  # the eigenvalue is Hf itself and the eigenvector 1, exactly
            w, c = Hf[:, :, 0], gf
        else:
            w, V = np.linalg.eigh(Hf)
            c = np.einsum("mij,mi->mj", V, gf)
        curv = np.maximum(np.maximum(np.abs(w), np.abs(c) * inv_reach), _TINY)
        q = c / curv
        if d == 1:
            step, gain = -q, (c * q)[:, 0]
        else:
            step = np.einsum("mij,mj->mi", V, -q)
            gain = np.einsum("mj,mj->m", c, q)  # -g.step on the free coordinates
        if any_held:
            step = step * free + np.copysign(reach[:, None], x) * held
        err = (4.0 * _EPS) * mag
        # The terms snap, bend and floor are left out where they are 0.0:
        # adding +0.0 changes no comparison.
        settled = (pg <= _GTOL) | ((0.5 * gain + snap if any_held else 0.5 * gain) <= err)
        # Where settled with negative curvature, step along the eigenvector
        # (downhill, or into the box where level) as far as the box allows;
        # the decrease must beat rounding.
        turn = settled & (w[:, 0] < 0.0)
        bend = floor = 0.0
        any_turn = turn.any()
        if any_turn:
            v = free[turn] * 1.0 if d == 1 else V[turn, :, 0] * free[turn]
            slope, outward = np.einsum("mi,mi->m", gf[turn], v), np.einsum("mi,mi->m", x[turn], v)
            up = (slope > 0.0) | ((slope == 0.0) & (outward > 0.0))
            step[turn] = np.where(up, -reach[turn], reach[turn])[:, None] * v
            gain[turn] = np.abs(np.einsum("mi,mi->m", gf[turn], step[turn]))
            bend = np.where(turn, -0.5 * reach**2 * w[:, 0], 0.0)
            floor = np.where(turn, err, 0.0)
        trying = ~settled | turn
        if trying.all():
            # The full step for every start: the block k = 0, with alpha = 1 left out.
            trial = _clip(x + step, lo, hi)
            ft, gt, Ht, mt = p._jet(trial)
            need = gain + bend if any_turn else gain
            if any_held:
                need = need + snap
            need = _ARMIJO * need + floor if any_turn else _ARMIJO * need
            stepped = ft <= f - need
            if stepped.all():
                x, f, g, H, mag = trial, ft, gt, Ht, mt
                continue
            x[stepped], f[stepped], g[stepped], H[stepped], mag[stepped] = (
                trial[stepped], ft[stepped], gt[stepped], Ht[stepped], mt[stepped]
            )
            trying, first = (~stepped).nonzero()[0], 1
        else:
            trying, stepped, first = trying.nonzero()[0], np.zeros(ids.size, dtype=bool), 0
        while trying.size:
            # Halvings first .. 2 * first; past _HALVINGS, each start stops at its own cap.
            last, cap = 2 * first + 1, None
            if last > _HALVINGS:
                cap = halvings[trying]
                last = min(last, cap.max())
            alpha = alphas[first:last]
            trial = _clip(
                x[trying, None] + alpha[:, None] * step[trying, None], lo[trying, None], hi[trying, None]
            ).reshape(-1, d)
            ft, gt, Ht, mt = p._jet(trial)
            need = alpha * gain[trying, None]
            if any_turn:
                need = need + squares[first:last] * bend[trying, None]
            if any_held:
                need = need + snap[trying, None]
            need = _ARMIJO * need + floor[trying, None] if any_turn else _ARMIJO * need
            passed = ft.reshape(trying.size, -1) <= f[trying, None] - need
            if cap is not None:
                passed &= np.arange(first, last) < cap[:, None]
            hit = passed.any(axis=1)
            sel = hit.nonzero()[0]
            pos = sel * (last - first) + passed.argmax(axis=1)[sel]  # each start's first pass
            i = trying[sel]
            x[i], f[i], g[i], H[i], mag[i] = trial[pos], ft[pos], gt[pos], Ht[pos], mt[pos]
            stepped[i] = True
            first = last
            trying = trying[~hit if cap is None else ~hit & (cap > last)]
        if not stepped.all():
            done = ~stepped
            points[ids[done]], values[ids[done]] = x[done], f[done]
            ids, x, f, g, H, mag = ids[stepped], x[stepped], f[stepped], g[stepped], H[stepped], mag[stepped]
            reach, halvings, hi, lo = reach[stepped], halvings[stepped], hi[stepped], lo[stepped]
            inv_reach, hold_gap = inv_reach[stepped], hold_gap[stepped]
    points[ids], values[ids] = x, f
    return points, values


def _last_radius(p: Polynomial, budget: SearchBudget) -> float:
    """Half-width r = 2**doublings of the budget's last box.

    A ValueError when r**degree overflows (the monomials of p at the box's
    corners would evaluate to inf), or when the box's diameter 2 r sqrt(d)
    does (the local search's longest step), or, for degree >= 2, its square
    (the curvature term of a step along negative curvature).
    """
    doublings, degree = budget.doublings, max(p.degree, 1)
    if doublings * degree >= sys.float_info.max_exp:
        raise ValueError(
            f"SearchBudget.doublings={doublings} is too large for a polynomial of "
            f"degree {p.degree}: (2**{doublings})**{degree} overflows"
        )
    radius = 2.0**doublings
    reach = 2.0 * radius * math.sqrt(p.dim)
    if not math.isfinite(reach if degree == 1 else reach * reach):
        power = "" if degree == 1 else " squared"
        raise ValueError(
            f"SearchBudget.doublings={doublings} is too large for a polynomial of "
            f"degree {p.degree} in {p.dim} variables: the box's diameter "
            f"2 * 2**{doublings} * sqrt({p.dim}){power} overflows"
        )
    return radius


def polish_minimum(p: Polynomial, starts, budget: SearchBudget, _start_jet=None):
    """Local minima (points (n, d), values (n,)) of p from an (n, d) array of
    starts, inside the box of the budget's last scan round.

    The box matters when p is unbounded below: an unbounded descent runs
    off to points so large that rounding in the monomial evaluation makes
    a nonnegative polynomial read negative there.  ``_start_jet`` is
    ``p._jet(starts)`` when the caller has it (see ``_local_minima``).
    """
    return _local_minima(p, starts, _last_radius(p, budget), _start_jet)


def _critical_seeds(p, radii: np.ndarray):
    """The seeds of a scan in one variable and the half-width of each one's
    box: per round k, the origin, the distinct real parts of the roots of
    p' that round k's box holds and round k - 1's does not (ascending), and
    each end of the box where p decreases outward.

    p' is ``p._slope_numerator()``: for a ratio, the numerator of its
    derivative.  A minimum of p on a round's box is a root of p' or an end
    of that box, so every one is seeded in its own round or an earlier one;
    the real part seeds a double root that rounds to a complex pair.  The
    search holds a seeded end at once.  A p' that overflows has no roots
    to seed; the scan's values are not finite then either, and the caller's
    checks report it.
    """
    slope = p._slope_numerator()
    roots = np.unique(polyroots(slope).real) if np.isfinite(slope).all() else np.zeros(0)
    rounds = np.searchsorted(radii, np.abs(roots))  # the first box that holds each
    keep = rounds < radii.size
    ends = np.stack([-radii, radii], axis=1)
    downhill = (polyval(ends, slope) * ends < 0.0).reshape(-1)
    seeds = np.concatenate([np.zeros(radii.size), roots[keep], ends.reshape(-1)[downhill]])
    k = np.concatenate([np.arange(radii.size), rounds[keep], np.repeat(np.arange(radii.size), 2)[downhill]])
    order = np.argsort(k, kind="stable")
    return seeds[order, None], radii[k[order]]


def _scan_seeds(p, budget: SearchBudget):
    """Every round's seeds (an (n, d) array) and the half-width of each one's
    box (n,).  In one variable, the critical points of p and the ends of the
    boxes (``_critical_seeds``), whatever the budget's ``starts`` and
    ``seed``.  Otherwise, per round, the origin and the random points; one
    generator draws the random points of every round in one call, round by
    round."""
    d = p.dim
    radii = 2.0 ** np.arange(budget.doublings + 1)
    if d == 1:
        return _critical_seeds(p, radii)
    n_starts = budget.starts if budget.starts is not None else 2 * d + 1
    r = radii[:, None, None]
    draws = np.random.default_rng(budget.seed).uniform(-r, r, size=(radii.size, n_starts, d))
    seeds = np.concatenate([np.zeros((radii.size, 1, d)), draws], axis=1)
    return seeds.reshape(-1, d), np.repeat(radii, seeds.shape[1])


def _scan(p, budget: SearchBudget):
    """The global scan of every search: local minima (points (n, d), values
    (n,)) from every round's seeds (``_scan_seeds``), searched in one
    ``_local_minima`` call, and each seed's box half-width (n,), ascending.

    p is a scan target: a ``Polynomial``, or any object with what the scan
    reads of one -- ``dim``, ``degree``, ``_jet`` and, in one variable,
    ``_slope_numerator`` (``positivity._Ratio``, ``polyalg._ThetaMember``).
    A ValueError when the budget's last box is too wide for p
    (``_last_radius``).
    """
    _last_radius(p, budget)
    seeds, radii = _scan_seeds(p, budget)
    points, values = _local_minima(p, seeds, radii)
    return points, values, radii


def minimize_polynomial(p: Polynomial, budget: SearchBudget | None = None) -> MinimizationResult:
    """Best-effort global minimum of a scan target p (``_scan``); a witness,
    not a certificate.

    The result is the lowest point of the scan, the first in seed order on
    ties.  In one variable the seeds are the critical points of p and the
    box ends where p falls outward, so the scan finds p's minimum on every
    box up to the local search's stopping rule, whatever the budget's
    ``starts`` and ``seed``; in more variables it is a multi-start search
    from random points.

    ``attained`` is False when the best point sits at the box fringe, or
    when the last round still improved on the earlier ones with a point
    outside the interior of their largest box -- the signature of an
    infimum approached only at infinity.  A best point inside that interior
    is a local minimum the earlier boxes hold: it is attained, however
    late a seed fell into its well.
    """
    budget = budget or SearchBudget()
    pts, vals, radii = _scan(p, budget)
    last = float(radii[-1])
    # The first seed is the origin, and its search ends there or below p(0).
    i = int(np.argmin(vals))
    best_pt, best_val = pts[i], float(vals[i])
    at_origin = float(p._jet(np.zeros((1, p.dim)))[0][0])
    prev = float(vals[radii < last].min(initial=at_origin))  # the best before the last round
    still_improving = (prev - best_val) > 1e-10 * max(1.0, abs(prev))
    reach = float(np.max(np.abs(best_pt)))
    held_before = budget.doublings > 0 and reach <= 0.9 * (0.5 * last)  # the earlier boxes' interior
    attained = held_before or (not still_improving and reach <= 0.9 * last)
    return MinimizationResult(best_pt, best_val, attained=attained)


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
    return _build_pnd(p, make_quadform(A), b, budget or SearchBudget())


def _build_pnd(p: Polynomial, form: QuadForm, b, budget: SearchBudget | None) -> PND:
    """``make_pnd``'s checks and normalization on an already factored form;
    with budget None, no scan.

    Skipping the scan is only for callers that have already gated the
    nonnegativity of p themselves.  The whitening made for beta_0 and its
    Hermite expansion are kept, normalized (``PND.whitened``, ``PND.hermite``).
    """
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
    hermite = to_hermite(whitened)
    beta0 = hermite.coefficient((0,) * form.dim)
    if beta0 <= 0.0:
        raise ZeroIntegral(f"constant Hermite coefficient is {beta0:.6g}")
    b.setflags(write=False)
    norm_const = 1.0 / beta0
    hermite = _wrap(HermiteCoeffs, norm_const * hermite.coeffs.dense())
    return PND(p, form, b, norm_const, scan, norm_const * whitened, hermite)


def _gauss_scale(pnd: PND) -> float:
    return pnd.norm_const * pnd.form.sqrt_det / (2.0 * math.pi) ** (pnd.dim / 2.0)


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
    pts = tensor_grid([x] * dim)
    wts = np.prod(tensor_grid([w] * dim), axis=1)
    return pts, wts


def integral_quadrature(pnd: PND) -> float:
    """Integral of the density by Gauss-Hermite quadrature in whitened coords.

    Exact for the polynomial degree whenever nodes > degree / 2; it takes
    degree + 20 nodes per axis so it doubles as a rounding cross-check of
    the Hermite normalization path.
    """
    u, w = gauss_hermite_nodes(pnd.dim, pnd.poly.degree + 20)
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
