"""Reference implementations of the polynomial kernels, as sparse loops.

These are the term-by-term loops the dense kernels in ``polynormal.polyalg``
replaced.  They are slow but transparent, and the property tests in
``test_polykernels.py`` compare the kernels against them.  The multi-start
minimum scan that ran one scipy L-BFGS-B search per start is kept as the
reference for the batched local searches of ``polynormal.pnd``
(``test_local_search.py``), and so is the scan that searched its rounds one
after another, one batch of local searches per round, as the reference for
``pnd.minimize_polynomial``, which searches every round's seeds at once.
The seeds drawn round by round, one random draw per round, are the
bit-exact reference for ``pnd._scan_seeds``, which draws every round's
random points in one call; in one variable, the seeds a round picks from
all the roots of p' and its own box ends are the reference for the seeds
of every round picked at once.  The theta bisection that polishes from the
witnesses at every midpoint is the bit-exact reference for
``decompose.theta_floor``, which refutes a midpoint without a polish when a
stored witness is already negative there.
The batched local searches that evaluated one step halving at a time are
kept as the bit-exact reference for ``pnd._local_minima``, which tests the
halvings in blocks of doubling width.  The jet that multiplied each
monomial's gathered powers with ``prod`` is the bit-exact reference for
``Polynomial._jet``, which multiplies them in axis by axis.
The convolution check that solved for the weight's center at every grid point,
with 8 more quadrature nodes per axis than exactness needs, is the reference
for ``verify.convolution_check`` (``test_verify.py``).
The recursive Horner substitution, one coefficient slice at a time, is kept as
the bit-exact reference for ``polyalg.affine_substitute``, which substitutes
every slice of a variable at once.  The biquadratic factor probe that ran one
scipy least-squares search per start, its residual summing the 36
coefficient products in a loop and its Jacobian taken by finite
differences, is kept as the reference for ``verify.biquadratic_factor_probe``
(``test_verify.py``), which searches every start at once with the scan's
local search.  The tail radius
and the polished infimum grid that called scipy's ``brentq`` and Nelder-Mead
are kept as the bound that ``positivity``'s search of the infimum, the scan's
local search run on the ratio, must not exceed, and as the search that
``positivity.epsilon_bound`` must turn into the same report bits when it is
put back (``test_positivity.py``).
The Example-4 probe curve written out for each reader, one point at a time,
with all four coordinate reflections of the curve of |a12| probed when
a12 < 0, is kept as the bit-exact reference for ``verify._probe_points``,
which holds the case analysis once (``test_verify.py``).
"""

import functools
import itertools
import math

import numpy as np
from scipy.optimize import brentq, least_squares
from scipy.optimize import minimize as scipy_minimize

from polynormal.decompose import RESCALE_TOL
from polynormal.errors import NoAdmissibleTheta
from polynormal.pnd import (
    _ARMIJO,
    _EPS,
    _GTOL,
    _HALVINGS,
    _HOLD_GAP,
    _MAX_ITER,
    _TINY,
    MinimizationResult,
    SearchBudget,
    _local_minima,
    gauss_hermite_nodes,
    minimize_polynomial,
    polish_minimum,
)
from polynormal.polyalg import HermiteCoeffs, Polynomial, _hessian_rows, tensor_grid, theta_rescale
from polynormal.positivity import _even_degree, leading_axis_coeffs
from polynormal.verify import (
    _QUAD_EXPS,
    _QUARTIC_EXPS,
    _QUARTIC_POS,
    Example4Params,
    ProbeResult,
    _as_pnd,
    _quadratic_from_vector,
)


@functools.lru_cache(maxsize=None)
def hermite_monomial_coeffs(k: int) -> tuple:
    """Monomial coefficients of He_k: He_k(x) = sum_r out[r] x^r."""
    if k == 0:
        return (1.0,)
    if k == 1:
        return (0.0, 1.0)
    prev = hermite_monomial_coeffs(k - 1)
    prev2 = hermite_monomial_coeffs(k - 2)
    out = [0.0] * (k + 1)
    for r, c in enumerate(prev):
        out[r + 1] += c
    for r, c in enumerate(prev2):
        out[r] -= (k - 1) * c
    return tuple(out)


@functools.lru_cache(maxsize=None)
def monomial_hermite_coeffs(k: int) -> tuple:
    """Hermite coefficients of x^k: x^k = sum_j out[j] He_j(x)."""
    if k == 0:
        return (1.0,)
    prev = monomial_hermite_coeffs(k - 1)
    # x * He_j = He_{j+1} + j He_{j-1}
    out = [0.0] * (k + 1)
    for j, c in enumerate(prev):
        out[j + 1] += c
        if j >= 1:
            out[j - 1] += j * c
    return tuple(out)


def eval_ref(p: Polynomial, x) -> float:
    total = 0.0
    for alpha, c in p.terms.items():
        v = c
        for xi, ai in zip(x, alpha):
            if ai:
                v *= xi**ai
        total += v
    return total


def jet_ref(p: Polynomial, pts: np.ndarray):
    """``Polynomial._jet`` on monomials gathered as one (n, columns, dim) array
    and multiplied by ``prod`` over its last axis: the bit-exact reference for
    the monomial kernel that multiplies the axes' gathered powers in turn."""
    powers, positions, rows = p._eval_table
    table = (pts[..., None] ** powers).reshape(pts.shape[:-1] + (-1,))
    mono = table[..., np.stack(positions, axis=-1)].prod(axis=-1)
    out = np.einsum("nk,rk->nr", mono, rows)
    mag = np.einsum("nk,k->n", np.abs(mono), np.abs(rows[0]))
    return out[:, 0], out[:, 1:p.dim + 1], out[:, _hessian_rows(p.dim)], mag


def grad_eval_ref(p: Polynomial, x) -> np.ndarray:
    g = np.zeros(p.dim)
    for alpha, c in p.terms.items():
        for j, aj in enumerate(alpha):
            if aj == 0:
                continue
            v = c * aj
            for k, ak in enumerate(alpha):
                e = ak - 1 if k == j else ak
                if e:
                    v *= x[k] ** e
            g[j] += v
    return g


def hessian_eval_ref(p: Polynomial, x) -> np.ndarray:
    H = np.zeros((p.dim, p.dim))
    for alpha, c in p.terms.items():
        for i, j in itertools.product(range(p.dim), repeat=2):
            e = list(alpha)
            v = c * e[i]
            e[i] -= 1
            v *= e[j]
            e[j] -= 1
            if v:
                for xk, ek in zip(x, e):
                    if ek:
                        v *= xk**ek
                H[i, j] += v
    return H


def _expand(coeffs: dict, table, theta: float = 1.0) -> dict:
    """sum_a c_a theta^{-|a|} prod_j B_{a_j}(x_j / theta), with B_k = sum_i table(k)[i] x^i."""
    out: dict = {}
    for alpha, c in coeffs.items():
        tables = [table(aj) for aj in alpha]
        for idx in itertools.product(*(range(len(t)) for t in tables)):
            w = c * theta ** (-(sum(alpha) + sum(idx)))
            for tab, i in zip(tables, idx):
                w *= tab[i]
            if w != 0.0:
                out[idx] = out.get(idx, 0.0) + w
    return out


def to_hermite_ref(p: Polynomial) -> HermiteCoeffs:
    return HermiteCoeffs.from_coeffs(p.dim, _expand(p.terms, monomial_hermite_coeffs))


def from_hermite_ref(h: HermiteCoeffs) -> Polynomial:
    return Polynomial.from_terms(h.dim, _expand(h.coeffs, hermite_monomial_coeffs))


def theta_rescale_ref(h: HermiteCoeffs, theta: float) -> Polynomial:
    return Polynomial.from_terms(h.dim, _expand(h.coeffs, hermite_monomial_coeffs, theta))


def mul_ref(a: dict, b: dict) -> dict:
    """Product of two coefficient maps, term by term."""
    out: dict = {}
    for a1, c1 in a.items():
        for a2, c2 in b.items():
            k = tuple(x + y for x, y in zip(a1, a2))
            out[k] = out.get(k, 0.0) + c1 * c2
    return out


def affine_substitute_ref(p: Polynomial, M, c) -> Polynomial:
    """x -> p(M x + c) from products of powers of the linear forms M[j] . x + c[j],
    in dict arithmetic of its own."""
    d = p.dim
    one = {(0,) * d: 1.0}
    powers = []
    for j in range(d):
        form = {tuple(int(i == k) for i in range(d)): M[j, k] for k in range(d)}
        form[(0,) * d] = c[j]
        powers.append([one])
        for _ in range(max((a[j] for a in p.terms), default=0)):
            powers[j].append(mul_ref(powers[j][-1], form))
    out: dict = {}
    for alpha, coef in p.terms.items():
        term = {(0,) * d: coef}
        for j, aj in enumerate(alpha):
            term = mul_ref(term, powers[j][aj])
        for k, v in term.items():
            out[k] = out.get(k, 0.0) + v
    return Polynomial.from_terms(d, out)


def horner_recursive_ref(q: np.ndarray, M: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Dense coefficients of x -> q(M x + c), q a polynomial in the last q.ndim
    variables of y = M x + c: Horner's rule in the first of them, with each of
    its coefficients (a slice of q) substituted recursively, one slice at a time."""
    d, j = len(c), len(c) - q.ndim
    out = np.zeros((q.shape[0],) * d)
    for k in reversed(range(q.shape[0])):
        if out.any():  # out *= M[j] . x + c[j]: a shift-and-add along each axis
            prev, out = out, c[j] * out
            for i in np.flatnonzero(M[j]):
                lead = (slice(None),) * i
                out[lead + (slice(1, None),)] += M[j, i] * prev[lead + (slice(None, -1),)]
        if q.ndim == 1:
            out[(0,) * d] += q[k]
        elif q[k].any():
            out += horner_recursive_ref(q[k], M, c)
    return out


def cf_eval_ref(cf, t) -> complex:
    """Characteristic function at t, with the polynomial part in complex arithmetic."""
    t = np.asarray(t, dtype=float)
    it = 1j * t
    z = 0j
    for alpha, c in cf.beta.terms.items():
        v = complex(c)
        for ti, ai in zip(it, alpha):
            if ai:
                v *= ti**ai
        z += v
    return z * np.exp(-0.5 * t @ cf.sigma @ t) * np.exp(1j * (cf.shift @ t))


def real_imag_parts_ref(cf):
    """(re, im) with sum beta_a (i t)^a = re(t) + i * im(t), term by term."""
    re: dict = {}
    im: dict = {}
    for alpha, c in cf.beta.terms.items():
        k = sum(alpha)  # i^k = (-1)^(k // 2), times i when k is odd
        (im if k % 2 else re)[alpha] = c * (-1.0) ** (k // 2)
    return Polynomial.from_terms(cf.dim, re), Polynomial.from_terms(cf.dim, im)


def convolution_check_ref(f, g1, g2, grid):
    """``verify.convolution_check`` as it solved S m = A1 r + A2 b2 at each
    grid point, took det A and det S apart, and used 8 more Gauss-Hermite
    nodes per axis than exactness needs.  Returns (values of g1 * g2 on the
    grid, largest gap to f there, quadrature order)."""
    g1, g2 = _as_pnd(g1), _as_pnd(g2)
    d = f.dim
    grid = np.asarray(grid, dtype=float).reshape(-1, d)

    def scale(g):
        return g.norm_const * math.sqrt(np.linalg.det(g.form.matrix)) / (2.0 * math.pi) ** (d / 2.0)

    order = (g1.poly.degree + g2.poly.degree) // 2 + 1 + 8
    A1, b1 = g1.form.matrix, g1.shift
    A2, b2 = g2.form.matrix, g2.shift
    S = A1 + A2
    W = np.linalg.inv(np.linalg.cholesky(S)).T  # W' S W = I
    u, wts = gauss_hermite_nodes(d, order)
    values, target = np.empty(len(grid)), np.empty(len(grid))
    for i, x in enumerate(grid):
        r = x - b1
        m = np.linalg.solve(S, A1 @ r + A2 @ b2)
        expo = -0.5 * (r @ A1 @ r + b2 @ A2 @ b2 - m @ S @ m)
        y = m + u @ W.T
        mean_val = float(wts @ (g1.poly.eval_many(x - y) * g2.poly.eval_many(y)))
        values[i] = scale(g1) * scale(g2) * math.exp(expo) * (2.0 * math.pi) ** (d / 2.0) / math.sqrt(np.linalg.det(S)) * mean_val
        rf = x - f.shift
        target[i] = scale(f) * f.poly.eval(x) * math.exp(-0.5 * rf @ f.form.matrix @ rf)
    return values, float(np.max(np.abs(values - target))), order


def lbfgsb_ref(p: Polynomial, start, radius: float):
    """Local L-BFGS-B minimum (point, value) of p from start, inside [-radius, radius]^d."""
    res = scipy_minimize(
        p.eval,
        np.clip(np.asarray(start, dtype=float), -radius, radius),
        jac=p.grad_eval,
        method="L-BFGS-B",
        bounds=[(-radius, radius)] * p.dim,
        options={"maxiter": 500, "ftol": 1e-16, "gtol": 1e-12},
    )
    return np.asarray(res.x), float(res.fun)


# The batched local searches with one evaluation per step halving: the
# Armijo ladder that ``pnd._local_minima`` now tests in doubling blocks.
def local_minima_ref(p: Polynomial, starts, radius):
    """Local minima (points (n, d), values (n,)) of p from each of n starts,
    all searched at once, each inside its box [-r, r]^d, where r is
    ``radius``: one half-width for every start, or an (n,) array of one per
    start.

    Projected Newton (Bertsekas, SIAM J. Control Optim. 1982).  Coordinates
    that the gradient pushes out of the box and that lie within
    min(_HOLD_GAP * r, projected gradient) of a bound are held: they step
    onto the bound.  On the others the step is Newton's with each Hessian
    eigenvalue replaced by its magnitude, floored so that no eigencomponent
    of the step is longer than the box's diameter (no inf or NaN on flat or
    linear pieces).  The step, projected onto the box, is halved until it
    gives an Armijo decrease.  A start stops when its projected gradient is
    at most _GTOL, or when the decrease the step predicts is below the
    rounding of p, or after _MAX_ITER steps -- except where the reduced
    Hessian has a negative eigenvalue: there (a saddle) it steps along that
    eigenvector and stops only when no such step lowers p past rounding.  A
    start's iterates do not depend on the other starts or their boxes, so
    its result is bit for bit that of a call with it alone; no value
    returned is above that at the start (clipped into its box).
    """
    d = p.dim
    x = np.asarray(starts, dtype=float).reshape(-1, d)
    rad = np.full(len(x), radius, dtype=float)
    x = np.clip(x, -rad[:, None], rad[:, None])
    f, g, H, mag = p._jet(x)
    points, values = x.copy(), f.copy()
    # The starts still searching; x, f, g, H, mag, rad, reach and halvings are theirs.
    ids = np.arange(len(x))
    reach = 2.0 * rad * math.sqrt(d)  # the box's diameter
    halvings = np.maximum(np.ceil(np.log2(reach)) + 32, _HALVINGS).astype(int)
    eye = np.eye(d)
    for _ in range(_MAX_ITER):
        if ids.size == 0:
            break
        r = rad[:, None]
        pg = np.abs(x - np.clip(x - g, -r, r)).max(axis=1)
        gap = r - np.abs(x)
        held = (gap <= np.minimum(_HOLD_GAP * rad, pg)[:, None]) & (x * g < 0.0)
        free, gf, Hf, snap = ~held, g, H, 0.0
        if held.any():
            gf = g * free
            Hf = H * (free[:, :, None] & free[:, None, :]) + eye * held[:, None, :]
            # First-order decrease of moving the held coordinates onto their bounds.
            snap = np.einsum("mi,mi->m", np.abs(g) * held, gap)
        w, V = np.linalg.eigh(Hf)
        c = np.einsum("mij,mi->mj", V, gf)
        curv = np.maximum(np.maximum(np.abs(w), np.abs(c) * (1.0 / reach)[:, None]), _TINY)
        step = np.einsum("mij,mj->mi", V, c / -curv) * free + np.copysign(reach[:, None], x) * held
        gain = np.einsum("mj,mj->m", c, c / curv)  # -g.step on the free coordinates
        err = (4.0 * _EPS) * mag
        settled = (pg <= _GTOL) | (0.5 * gain + snap <= err)
        # Where settled with negative curvature, step along the eigenvector
        # (downhill, or into the box where level) as far as the box allows;
        # the decrease must beat rounding.
        turn = settled & (w[:, 0] < 0.0)
        bend = floor = 0.0
        if turn.any():
            v = V[turn, :, 0] * free[turn]
            slope, outward = np.einsum("mi,mi->m", gf[turn], v), np.einsum("mi,mi->m", x[turn], v)
            up = (slope > 0.0) | ((slope == 0.0) & (outward > 0.0))
            step[turn] = np.where(up, -reach[turn], reach[turn])[:, None] * v
            gain[turn] = np.abs(np.einsum("mi,mi->m", gf[turn], step[turn]))
            bend = np.where(turn, -0.5 * reach**2 * w[:, 0], 0.0)
            floor = np.where(turn, err, 0.0)
        trying = np.flatnonzero(~settled | turn)
        done = np.ones(ids.size, dtype=bool)  # all but the starts that step
        alpha = 1.0
        for k in range(halvings.max()):
            if k >= _HALVINGS:  # only starts in the widest boxes halve further
                trying = trying[halvings[trying] > k]
            if trying.size == 0:
                break
            need = _ARMIJO * (alpha * gain + alpha * alpha * bend + snap) + floor
            trial = np.clip(x[trying] + alpha * step[trying], -r[trying], r[trying])
            ft, gt, Ht, mt = p._jet(trial)
            ok = ft <= f[trying] - need[trying]
            i = trying[ok]
            x[i], f[i], g[i], H[i], mag[i] = trial[ok], ft[ok], gt[ok], Ht[ok], mt[ok]
            done[i] = False
            trying = trying[~ok]
            alpha *= 0.5
        if done.any():
            points[ids[done]], values[ids[done]] = x[done], f[done]
            keep = ~done
            ids, x, f, g, H, mag = ids[keep], x[keep], f[keep], g[keep], H[keep], mag[keep]
            rad, reach, halvings = rad[keep], reach[keep], halvings[keep]
    points[ids], values[ids] = x, f
    return points, values



def _slope_ref(p: Polynomial) -> np.ndarray:
    """Ascending coefficients of p' for a polynomial in one variable, from its terms."""
    out = np.zeros(max(p.degree, 1))
    for (e,), c in p.terms.items():
        if e:
            out[e - 1] = e * c
    return out


def critical_round_seeds_ref(p: Polynomial, k: int) -> list:
    """Round k's seeds of a scan in one variable: the origin, the distinct real
    parts of the roots of p' in (2**(k - 1), 2**k] in magnitude ([0, 1] for
    k = 0), ascending, and the ends of [-2**k, 2**k] where p decreases outward."""
    radius, inner = 2.0**k, (2.0 ** (k - 1) if k else -1.0)
    slope = _slope_ref(p)
    seeds = [0.0]
    for x in np.unique(np.polynomial.polynomial.polyroots(slope).real):
        if inner < abs(x) <= radius:
            seeds.append(x)
    for end in (-radius, radius):
        if np.polynomial.polynomial.polyval(end, slope) * end < 0.0:
            seeds.append(end)
    return [np.array([x]) for x in seeds]


def scan_seeds_ref(p, budget: SearchBudget):
    """``pnd._scan_seeds`` round by round, collected as rows: in one variable
    the round's critical seeds, otherwise the origin and one random draw
    per round."""
    d = p.dim
    rng = np.random.default_rng(budget.seed)
    n_starts = budget.starts if budget.starts is not None else 2 * d + 1
    radii = [2.0**k for k in range(budget.doublings + 1)]
    seeds, sizes = [], []
    for k, radius in enumerate(radii):
        if d == 1:
            round_seeds = critical_round_seeds_ref(p, k)
        else:
            round_seeds = [np.zeros(d)]
            if n_starts > 0:
                round_seeds.extend(rng.uniform(-radius, radius, size=(n_starts, d)))
        seeds.extend(round_seeds)
        sizes.append(len(round_seeds))
    return np.array(seeds), np.repeat(radii, sizes)


def theta_floor_ref(h: HermiteCoeffs, tol: float, budget: SearchBudget):
    """``decompose.theta_floor`` with a polish from the witnesses at every
    midpoint not refuted by a confirmation scan, even where a stored
    witness is already negative."""
    start = 1.0 - 1e-9
    scan = minimize_polynomial(theta_rescale(h, start), budget)
    if scan.value < RESCALE_TOL or not scan.attained:
        raise NoAdmissibleTheta("the start scan is negative or not attained")
    witnesses = [scan.point]
    refuted_at = 0.0

    def refuted(theta):
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
        if scan.value >= RESCALE_TOL and scan.attained:
            return hi
        witnesses.append(scan.point)
        refuted_at = hi


def minimize_polynomial_ref(p: Polynomial, budget: SearchBudget) -> float:
    """Lowest value of the multi-start scan with one L-BFGS-B search per start:
    the seeds of ``pnd.minimize_polynomial``, round by round, plus the best
    point so far in each round."""
    d = p.dim
    rng = np.random.default_rng(budget.seed)
    n_starts = budget.starts if budget.starts is not None else 2 * d + 1
    best_pt, best_val = np.zeros(d), p.eval(np.zeros(d))
    for k in range(budget.doublings + 1):
        radius = 2.0**k
        seeds = [np.zeros(d), best_pt]
        if n_starts > 0:
            seeds.extend(rng.uniform(-radius, radius, size=(n_starts, d)))
        for s in seeds:
            pt, val = lbfgsb_ref(p, s, radius)
            if val < best_val:
                best_val, best_pt = val, pt
    return best_val


def minimize_polynomial_rounds_ref(p: Polynomial, budget: SearchBudget) -> MinimizationResult:
    """The multi-start scan round by round: each round draws its seeds (in
    one variable its critical seeds, otherwise the origin and the random
    points) and searches them in one batch in its own box; a round's best
    point replaces the best so far when it is lower.  The best point is
    attained when it lies inside the interior of the box before the last,
    or when the last round did not improve on the earlier ones and it lies
    inside the interior of the last box."""
    d = p.dim
    rng = np.random.default_rng(budget.seed)
    n_starts = budget.starts if budget.starts is not None else 2 * d + 1
    best_pt = np.zeros(d)
    best_val = float(p.eval(best_pt))
    history = [best_val]
    for k in range(budget.doublings + 1):
        radius = 2.0**k
        if d == 1:
            seeds = critical_round_seeds_ref(p, k)
        else:
            seeds = [np.zeros(d)]
            if n_starts > 0:
                seeds.extend(rng.uniform(-radius, radius, size=(n_starts, d)))
        pts, vals = _local_minima(p, np.array(seeds), radius)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val, best_pt = float(vals[i]), pts[i]
        history.append(best_val)
    prev = history[-2]
    still_improving = (prev - best_val) > 1e-10 * max(1.0, abs(prev))
    reach = np.max(np.abs(best_pt))
    held_before = budget.doublings > 0 and reach <= 0.9 * (0.5 * radius)
    interior = reach <= 0.9 * radius
    return MinimizationResult(best_pt, best_val, attained=bool(held_before or (not still_improving and interior)))


def product_residual_ref(z, target) -> np.ndarray:
    """Coefficients of the product of the quadratics z[:6] and z[6:], minus
    target, one coefficient product at a time."""
    out = -np.asarray(target, dtype=float).copy()
    for i, e1 in enumerate(_QUAD_EXPS):
        for j, e2 in enumerate(_QUAD_EXPS):
            out[_QUARTIC_POS[(e1[0] + e2[0], e1[1] + e2[1])]] += z[i] * z[6 + j]
    return out


def biquadratic_factor_probe_ref(P: Polynomial, starts: int = 200, seed: int = 0) -> ProbeResult:
    """The probe with the looped residual and a finite-difference Jacobian:
    the same start draws, the same target divided by its largest
    coefficient, solver settings and choice of the best start."""
    target = np.zeros(len(_QUARTIC_EXPS))
    for alpha, c in P.terms.items():
        target[_QUARTIC_POS[alpha]] = c
    largest = float(np.abs(target).max()) or 1.0
    target = target / largest
    rng = np.random.default_rng(seed)
    best_ssq, best_z = math.inf, None
    for _ in range(starts):
        z0 = rng.standard_normal(12)
        res = least_squares(
            product_residual_ref, z0, args=(target,),
            method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=2000,
        )
        ssq = float(np.sum(res.fun**2))
        if ssq < best_ssq:
            best_ssq, best_z = ssq, res.x
    best_z = best_z * math.sqrt(largest)
    return ProbeResult(best_ssq, _quadratic_from_vector(best_z[:6]), _quadratic_from_vector(best_z[6:]))


def tail_radius_ref(p: Polynomial, b0: float) -> float:
    """Smallest R with the lower-order tail bound at most b0 / 3, by scipy's brentq."""
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


# Relative-change target for the grid refinement of the infimum.
GRID_REFINE_TOL = 1e-4


def ratio_min_on_ball_ref(p: Polynomial, radius: float, two_m: int) -> float:
    """Grid-refined minimum of Q / (1 + sum x_j^{2m}) over the closed l1 ball,
    polished by scipy's Nelder-Mead: the infimum search that ``positivity``
    ran before its ratio search, kept as the value that search must not
    exceed."""

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
    res = scipy_minimize(ratio_one, best_pt, method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-12})
    if res.fun < best_val and np.sum(np.abs(res.x)) <= radius + 1e-9:
        best_val = float(res.fun)
    return best_val


def estimate_inf_b_ref(p: Polynomial, budget=None):
    """The infimum and search radius ``positivity.estimate_inf_b`` gave
    before its ratio search: the grid on the l1 ball of the tail radius
    (at least 1).  ``budget`` is taken and ignored, as the grid had none."""
    b0 = float(np.min(leading_axis_coeffs(p)))
    radius = max(tail_radius_ref(p, b0), 1.0)
    return ratio_min_on_ball_ref(p, radius, p.degree), radius


def _curve_point(params: Example4Params, n: float) -> np.ndarray:
    """Probe-curve point in original coordinates, defined for a12 > 0."""
    a11, a12, a22 = params.a11, params.a12, params.a22
    det = a11 * a22 - a12**2
    t = float(n)
    y = (t - 1.0 / t) * math.sqrt(a12)
    big_x = t * math.sqrt(det / a12)
    x2 = math.sqrt(a22) * y
    x1 = math.sqrt(a11 - a12**2 / a22) * big_x + (a12 / a22) * x2
    return np.array([x1, x2])


def _witness_candidates(params: Example4Params, n: int) -> list:
    a12 = params.a12
    if a12 == 0.0:
        # Quartic axis term vanishes and the quadratic one is negative, so
        # the polynomial goes negative along the first axis.
        x1 = math.sqrt(params.a11) * n
        return [np.array([x1, 0.0])]
    base = _curve_point(Example4Params(params.a11, abs(a12), params.a22), n)
    if a12 > 0.0:
        return [base]
    # Mirrored exponent: probe the coordinate reflections of the curve.
    return [
        base * np.array([1.0, -1.0]),
        base * np.array([-1.0, 1.0]),
        base,
        -base,
    ]
