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

outside of which the leading axis terms dominate.  The grid's best point is
polished by Nelder-Mead (Nelder & Mead 1965) and the tail radius is a
Brent root (Brent 1973); both are ports of scipy's ``minimize(method=
"Nelder-Mead")`` and ``brentq`` in the one configuration used here, step
for step, so they return scipy's bits without importing it (``tests/
polyref.py`` keeps the scipy calls as the reference).  All of this is
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

# Brent's root: absolute and relative tolerance, iteration cap (brentq's).
_BRENT_XTOL = 1e-9
_BRENT_RTOL = 1e-12
_BRENT_ITER = 100
# Nelder-Mead: reflection, expansion, contraction and shrink coefficients,
# the relative and the zero-coordinate steps of the first simplex, and the
# tolerances on the simplex's spread in x and in f (scipy's defaults but
# the last two).
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_NONZDELT = 0.05
_ZDELT = 0.00025
_XATOL = 1e-10
_FATOL = 1e-12


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


def _signbit(v: float) -> bool:
    return math.copysign(1.0, v) < 0.0


def _brent_root(f, a: float, b: float) -> float:
    """Root of f in [a, b] by Brent's method.

    A port of scipy's ``brentq`` kernel (``Zeros/brentq.c``) with xtol 1e-9,
    rtol 1e-12 and 100 iterations: the same steps in the same order, so it
    returns the same bits.  Ends of the same sign are a ``ValueError``, and
    no convergence within 100 iterations a ``RuntimeError``.
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_ITER):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
    raise RuntimeError(f"Brent's method did not converge in {_BRENT_ITER} iterations, value is {xcur}")


class _Exhausted(Exception):
    """Raised by a Nelder-Mead evaluation past the budget of 200 N calls."""


def _nelder_mead(f, x0):
    """Minimize f from x0 by the Nelder-Mead simplex method; returns (x, f(x)).

    A port of scipy's ``minimize(method="Nelder-Mead")`` without bounds, not
    adaptive, with xatol 1e-10 and fatol 1e-12: the same first simplex, the
    same steps, the same re-sorting by ``np.argsort`` and the same budget of
    200 N iterations and 200 N evaluations (an evaluation past it ends the
    iteration it is in), so it returns the same bits.  f is given each
    point as a view into the simplex and must not change it.
    """
    x0 = np.asarray(x0, dtype=float).flatten()
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = x0.copy()
        y[k] = (1 + _NONZDELT) * y[k] if y[k] != 0 else _ZDELT
        sim[k + 1] = y
    maxiter = maxfev = 200 * n
    calls = 0

    def fun(x):
        nonlocal calls
        if calls >= maxfev:
            raise _Exhausted
        calls += 1
        return f(x)

    fsim = np.array([fun(v) for v in sim], dtype=float)
    # Sorted twice, as scipy does: argsort need not keep the order of ties.
    ind = np.argsort(fsim)
    sim = np.take(sim, ind, 0)
    fsim = np.take(fsim, ind, 0)
    ind = np.argsort(fsim)
    fsim = np.take(fsim, ind, 0)
    sim = np.take(sim, ind, 0)

    iterations = 1
    while calls < maxfev and iterations < maxiter:
        try:
            if (np.max(np.abs(sim[1:] - sim[0])) <= _XATOL
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= _FATOL):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = (1 + _RHO) * xbar - _RHO * sim[-1]
            fxr = fun(xr)
            if fxr < fsim[0]:
                xe = (1 + _RHO * _CHI) * xbar - _RHO * _CHI * sim[-1]
                fxe = fun(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                shrink = False
                if fxr < fsim[-1]:  # outside contraction
                    xc = (1 + _PSI * _RHO) * xbar - _PSI * _RHO * sim[-1]
                    fxc = fun(xc)
                    if fxc <= fxr:
                        sim[-1], fsim[-1] = xc, fxc
                    else:
                        shrink = True
                else:  # inside contraction
                    xcc = (1 - _PSI) * xbar + _PSI * sim[-1]
                    fxcc = fun(xcc)
                    if fxcc < fsim[-1]:
                        sim[-1], fsim[-1] = xcc, fxcc
                    else:
                        shrink = True
                if shrink:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + _SIGMA * (sim[j] - sim[0])
                        fsim[j] = fun(sim[j])
            iterations += 1
        except _Exhausted:
            pass
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return sim[0], np.min(fsim)


def _tail_radius(p: Polynomial, b0: float) -> float:
    """Smallest R with the lower-order tail bound at most b0 / 3 (a Brent
    root, ``_brent_root``)."""
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
    return float(_brent_root(lambda r: tail(r) - target, 0.0, hi))


def _ratio_min_on_ball(p: Polynomial, radius: float, two_m: int) -> float:
    """Grid-refined minimum of Q / (1 + sum x_j^{2m}) over the closed l1 ball,
    polished by Nelder-Mead (``_nelder_mead``) from the grid's best point."""

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
    x, fun = _nelder_mead(ratio_one, best_pt)
    if fun < best_val and np.sum(np.abs(x)) <= radius + 1e-9:
        best_val = float(fun)
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
