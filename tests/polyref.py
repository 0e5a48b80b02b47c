"""Reference implementations of the polynomial kernels, as sparse loops.

These are the term-by-term loops the dense kernels in ``polynormal.polyalg``
replaced.  They are slow but transparent, and the property tests in
``test_polykernels.py`` compare the kernels against them.  The multi-start
minimum scan that ran one scipy L-BFGS-B search per start is kept as the
reference for the batched local searches of ``polynormal.pnd``
(``test_local_search.py``), and so is the scan that searched its rounds one
after another, one batch of local searches per round, as the reference for
``pnd.minimize_polynomial``, which searches every round's seeds at once.
The recursive Horner substitution, one coefficient slice at a time, is kept as
the bit-exact reference for ``polyalg.affine_substitute``, which substitutes
every slice of a variable at once.
"""

import functools
import itertools

import numpy as np
from scipy.optimize import minimize as scipy_minimize

from polynormal.pnd import MinimizationResult, SearchBudget, _grid_candidates, _local_minima
from polynormal.polyalg import HermiteCoeffs, Polynomial


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
        seeds = [np.zeros(d), best_pt] + list(_grid_candidates(p, radius, budget.grid_points))
        if n_starts > 0:
            seeds.extend(rng.uniform(-radius, radius, size=(n_starts, d)))
        for s in seeds:
            pt, val = lbfgsb_ref(p, s, radius)
            if val < best_val:
                best_val, best_pt = val, pt
    return best_val


def minimize_polynomial_rounds_ref(p: Polynomial, budget: SearchBudget) -> MinimizationResult:
    """The multi-start scan round by round: each round draws its seeds (the
    origin, the best grid points, the random points) and searches them in
    one batch in its own box; a round's best point replaces the best so far
    when it is lower."""
    d = p.dim
    rng = np.random.default_rng(budget.seed)
    n_starts = budget.starts if budget.starts is not None else 2 * d + 1
    best_pt = np.zeros(d)
    best_val = float(p.eval(best_pt))
    history = [best_val]
    for k in range(budget.doublings + 1):
        radius = 2.0**k
        seeds = [np.zeros(d)]
        seeds.extend(_grid_candidates(p, radius, budget.grid_points))
        if n_starts > 0:
            seeds.extend(rng.uniform(-radius, radius, size=(n_starts, d)))
        pts, vals = _local_minima(p, np.array(seeds), radius)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val, best_pt = float(vals[i]), pts[i]
        history.append(best_val)
    prev = history[-2]
    still_improving = (prev - best_val) > 1e-10 * max(1.0, abs(prev))
    interior = bool(np.max(np.abs(best_pt)) <= 0.9 * radius)
    return MinimizationResult(best_pt, best_val, attained=(not still_improving) and interior)
