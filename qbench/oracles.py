"""Independent computations that the benchmark checks answers against.

Nothing here imports polynormal.  Polynomials are plain ``{alpha: coef}``
maps (the JSON term lists the CLI writes convert directly), Gaussians are
whitened through an eigendecomposition of the precision matrix instead of
the program's Cholesky whitener, and expectations use numpy's
Gauss-Hermite nodes.  Each ``check_*`` function returns a list of
problems; an empty list means the answer passed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from numpy.polynomial import hermite_e

# -- plain polynomial arithmetic ----------------------------------------------


def poly_add(*polys: dict) -> dict:
    out: dict = {}
    for p in polys:
        for a, c in p.items():
            out[a] = out.get(a, 0.0) + c
    return out


def poly_scale(p: dict, s: float) -> dict:
    return {a: s * c for a, c in p.items()}


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for a, c in p.items():
        for b, e in q.items():
            k = tuple(x + y for x, y in zip(a, b))
            out[k] = out.get(k, 0.0) + c * e
    return out


def poly_pow(p: dict, n: int, dim: int) -> dict:
    out = {(0,) * dim: 1.0}
    for _ in range(n):
        out = poly_mul(out, p)
    return out


def linear_form(coeffs, const: float = 0.0) -> dict:
    """sum_k coeffs[k] x_k + const."""
    d = len(coeffs)
    out = {tuple(int(i == k) for i in range(d)): float(c) for k, c in enumerate(coeffs)}
    out[(0,) * d] = float(const)
    return out


def degree(p: dict) -> int:
    return max((sum(a) for a, c in p.items() if c != 0.0), default=0)


def terms_from_json(terms) -> dict:
    return {tuple(int(v) for v in t["alpha"]): float(t["coef"]) for t in terms}


def terms_to_json(p: dict) -> list:
    return [{"alpha": list(a), "coef": float(c)} for a, c in sorted(p.items(), key=lambda kv: (sum(kv[0]), kv[0]))]


def poly_eval(p: dict, pts) -> np.ndarray:
    """Values of p at an (n, d) array of real or complex points."""
    pts = np.asarray(pts)
    alphas = np.array(list(p.keys()), dtype=int)
    coefs = np.array(list(p.values()), dtype=float)
    deg = int(alphas.max()) if alphas.size else 0
    # powers[k][:, j] = pts[:, j] ** k
    powers = [np.ones_like(pts)]
    for _ in range(deg):
        powers.append(powers[-1] * pts)
    table = np.stack(powers)  # (deg+1, n, d)
    mono = np.ones((pts.shape[0], len(alphas)), dtype=pts.dtype)
    for j in range(pts.shape[1]):
        mono = mono * table[alphas[:, j], :, j].T
    return mono @ coefs


# -- Gaussian expectations ------------------------------------------------------


def gauss_rule(precision, mean, nodes: int):
    """Points and weights of the tensor Gauss-Hermite rule for N(mean, precision^-1).

    Exact for polynomials of degree up to 2 * nodes - 1.
    """
    P = np.atleast_2d(np.asarray(precision, dtype=float))
    lam, V = np.linalg.eigh(0.5 * (P + P.T))
    x, w = hermite_e.hermegauss(nodes)
    w = w / math.sqrt(2.0 * math.pi)
    d = P.shape[0]
    u = np.array(list(itertools.product(x, repeat=d)))
    wts = np.prod(np.array(list(itertools.product(w, repeat=d))), axis=1)
    pts = np.asarray(mean, dtype=float) + u @ (V / np.sqrt(lam)).T
    return pts, wts


def gauss_mean(p: dict, precision, mean) -> float:
    """E[p(X)] for X ~ N(mean, precision^-1), exact."""
    pts, wts = gauss_rule(precision, mean, degree(p) // 2 + 2)
    return float(wts @ poly_eval(p, pts))


def gauss_pdf(v, cov) -> np.ndarray:
    """Centered normal density with covariance cov at the rows of v."""
    v = np.atleast_2d(v)
    cov = np.atleast_2d(cov)
    d = cov.shape[0]
    q = np.einsum("ni,ij,nj->n", v, np.linalg.inv(cov), v)
    return np.exp(-0.5 * q) / math.sqrt((2.0 * math.pi) ** d * np.linalg.det(cov))


def density_values(p: dict, A, b, pts) -> np.ndarray:
    """Normalized density p(x) N(x; b, A^-1) / E[p] at the rows of pts."""
    A = np.atleast_2d(A)
    pts = np.atleast_2d(pts)
    return poly_eval(p, pts) * gauss_pdf(pts - b, np.linalg.inv(A)) / gauss_mean(p, A, b)


def convolution_values(pY: dict, AY, bY, mean_z, cov_z, pts) -> np.ndarray:
    """(Y * Z)(x) with Y the density pY(y) N(y; bY, AY^-1) / E[pY], Z ~ N(mean_z, cov_z).

    Product of the two Gaussians in y: N(y; bY, S) N(x - m - y; 0, C)
    = N(x - m - bY; 0, S + C) N(y; mu, (S^-1 + C^-1)^-1), with
    mu = bY + (S^-1 + C^-1)^-1 C^-1 (x - m - bY).  The remaining integral of
    pY is a polynomial Gaussian expectation, exact by Gauss-Hermite.
    """
    AY = np.atleast_2d(AY)
    C = np.atleast_2d(cov_z)
    Cinv = np.linalg.inv(C)
    P = AY + Cinv
    Pinv = np.linalg.inv(P)
    norm = gauss_mean(pY, AY, bY)
    base_pts, wts = gauss_rule(P, np.zeros(AY.shape[0]), degree(pY) // 2 + 2)
    out = []
    for x in np.atleast_2d(pts):
        r = x - mean_z - bY
        mu = bY + Pinv @ Cinv @ r
        inner = float(wts @ poly_eval(pY, base_pts + mu))
        out.append(gauss_pdf(r, np.linalg.inv(AY) + C)[0] * inner / norm)
    return np.array(out)


def cf_values(beta: dict, sigma, shift, ts) -> np.ndarray:
    """sum beta_a (i t)^a exp(-t' sigma t / 2 + i shift . t) at the rows of ts."""
    ts = np.atleast_2d(np.asarray(ts, dtype=float))
    poly = poly_eval(beta, 1j * ts)
    quad = np.einsum("ni,ij,nj->n", ts, np.atleast_2d(sigma), ts)
    return poly * np.exp(-0.5 * quad + 1j * (ts @ np.asarray(shift, dtype=float)))


def cf_by_quadrature(p: dict, A, b, ts, nodes: int = 20) -> np.ndarray:
    """E[exp(i t . X)] for X with density p(x) N(x; b, A^-1) / E[p].

    The integrand is not polynomial, so the rule is not exact; for |t| <= 1
    and unit-scale A, 20 nodes per axis are accurate far below 1e-10.
    """
    pts, wts = gauss_rule(A, b, nodes)
    wp = wts * poly_eval(p, pts)
    phase = np.exp(1j * (pts @ np.atleast_2d(ts).T))
    return (wp @ phase) / wp.sum()


# -- closed forms ---------------------------------------------------------------


def separable_theta(a, c) -> float:
    """Minimal theta for prod_j (y_j^2 + c_j) under precision diag(a) in y.

    Per axis the rescaled factor is w^2 + theta^4 (1 + a c) - theta^2, which
    stays nonnegative exactly when theta >= (1 + a c)^(-1/2).
    """
    return max((1.0 + aj * cj) ** -0.5 for aj, cj in zip(a, c))


def example4_growth(a11: float, a12: float, a22: float) -> float:
    """Closed-form n^2 growth coefficient of the example-4 candidate:
    (a22 - 1)/|a12| - |a12|/det."""
    det = a11 * a22 - a12 * a12
    return (a22 - 1.0) / abs(a12) - abs(a12) / det


# -- checkers -------------------------------------------------------------------


def _rel_gap(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(np.max(np.abs(x - y)) / max(1e-300, float(np.max(np.abs(y)))))


def _coef_gap(p: dict, q: dict) -> float:
    """Largest coefficient gap over max(1, largest coefficient of q).

    This is the package's own round-trip acceptance measure; for a
    normalized density polynomial (mean 1 under its Gaussian) it is an
    absolute bound on the coefficients.
    """
    keys = set(p) | set(q)
    scale = max(1.0, max(abs(c) for c in q.values()))
    return max(abs(p.get(a, 0.0) - q.get(a, 0.0)) for a in keys) / scale


def check_split(q: dict, ans: dict, sample_seed: int) -> list:
    """Decompose-then-verify answer for the density (q["poly"], q["A"], q["b"])."""
    problems = []
    if ans.get("exit") != (0, 0):
        return [f"exit codes {ans.get('exit')}, expected (0, 0)"]
    dec = ans["dec"]
    theta = float(dec["theta"])
    tol = q["tol"]
    A = np.asarray(q["A"], dtype=float)
    b = np.asarray(q["b"], dtype=float)
    if not 0.0 < theta < 1.0:
        return [f"theta {theta} outside (0, 1)"]
    if q.get("oracle_theta") is not None:
        lo, hi = q["oracle_theta"] - tol, q["oracle_theta"] + 3.0 * tol
        if not lo <= theta <= hi:
            problems.append(f"theta {theta:.9f} outside oracle range [{lo:.9f}, {hi:.9f}]")
    z_mean = np.asarray(dec["factor_Z"]["mean"], dtype=float)
    z_cov = np.asarray(dec["factor_Z"]["cov"], dtype=float)
    cov_expected = (1.0 - theta**2) * np.linalg.inv(A)
    if _rel_gap(z_cov, cov_expected) > 1e-9:
        problems.append(f"factor_Z cov off (1-theta^2) A^-1 by {_rel_gap(z_cov, cov_expected):.2e}")
    if np.max(np.abs(z_mean - b)) > 1e-12 * max(1.0, float(np.max(np.abs(b)))):
        problems.append("factor_Z mean differs from the density's shift")
    y = dec["factor_Y"]
    pY = terms_from_json(y["poly"]["terms"])
    AY = np.asarray(y["A"], dtype=float)
    bY = np.asarray(y["b"], dtype=float)
    rng = np.random.default_rng(sample_seed)
    d = A.shape[0]
    lam, V = np.linalg.eigh(AY)
    sample = bY + 2.0 * rng.standard_normal((256, d)) @ (V / np.sqrt(lam)).T
    vals = poly_eval(pY, sample)
    if vals.min() < -1e-9 * max(1.0, float(np.abs(vals).max())):
        problems.append(f"factor_Y polynomial reaches {vals.min():.3e} on the sample")
    lam_a, V_a = np.linalg.eigh(A)
    pts = np.vstack([b, b + rng.standard_normal((4, d)) @ (V_a / np.sqrt(lam_a)).T])
    conv = convolution_values(pY, AY, bY, z_mean, z_cov, pts)
    f = density_values(q["poly"], A, b, pts)
    gap = float(np.max(np.abs(conv - f)))
    if gap > 1e-8 * float(np.max(f)):
        problems.append(f"Y*Z differs from f by {gap:.3e} (max f {np.max(f):.3e})")
    err = ans["verify"]["max_abs_error"]
    if not err <= 1e-8:
        problems.append(f"verify-conv reports max_abs_error {err:.3e}")
    return problems


def check_screen(q: dict, ans: dict) -> list:
    """Verdict by construction, normalization, and the example-4 extras."""
    problems = []
    if ans["outcome"] != q["expected"]:
        problems.append(f"outcome {ans['outcome']}, expected {q['expected']}")
    if ans.get("norm_const") is not None:
        own = 1.0 / gauss_mean(q["poly"], q["A"], q["b"])
        if abs(ans["norm_const"] - own) > 1e-8 * own:
            problems.append(f"norm_const {ans['norm_const']:.12g}, quadrature gives {own:.12g}")
    if q.get("example4") is not None:
        if ans.get("B") is None:
            return problems + ["example-4 growth coefficient missing"]
        B_own = example4_growth(*q["example4"])
        if not B_own < 0.0:
            problems.append(f"closed-form growth coefficient {B_own} is not negative")
        if abs(ans["B"] - B_own) > 1e-6 * max(1.0, abs(B_own)):
            problems.append(f"extracted growth coefficient {ans['B']:.9g}, closed form {B_own:.9g}")
        if not ans["witness_value"] < 0.0:
            problems.append(f"witness value {ans['witness_value']} is not negative")
    return problems


def transform_reference(q: dict):
    """norm_const and E[exp(i t.X)] at the question's |t| <= 1, by quadrature."""
    p, A, b = q["poly"], np.asarray(q["A"], dtype=float), np.asarray(q["b"], dtype=float)
    ts = np.asarray(q["ts"], dtype=float)
    near = np.linalg.norm(ts, axis=1) <= 1.0
    return 1.0 / gauss_mean(p, A, b), near, cf_by_quadrature(p, A, b, ts[near])


def check_transform(q: dict, ans: dict, reference=None) -> list:
    """Round trip, phi(0) = 1, |phi| <= 1, quadrature, and product rule.

    ``reference`` is ``transform_reference(q)``; a caller that checks many
    answers to the same question computes it once.
    """
    problems = []
    p, A, b = q["poly"], np.asarray(q["A"], dtype=float), np.asarray(q["b"], dtype=float)
    nc, near, quad = reference if reference is not None else transform_reference(q)
    poly, A_back, b_back = ans["parts"]
    gap = _coef_gap(poly, poly_scale(p, nc))
    if gap > 1e-8:
        problems.append(f"round-trip polynomial off norm_const * p by {gap:.2e}")
    if _rel_gap(A_back, A) > 1e-8:
        problems.append(f"round-trip A off by {_rel_gap(A_back, A):.2e}")
    if np.max(np.abs(b_back - b)) > 1e-8 * max(1.0, float(np.max(np.abs(b)))):
        problems.append("round-trip shift differs")
    ts = np.asarray(q["ts"], dtype=float)
    vals = np.asarray(ans["vals"])
    if abs(vals[0] - 1.0) > 1e-10:
        problems.append(f"phi(0) = {vals[0]}")
    if np.max(np.abs(vals)) > 1.0 + 1e-10:
        problems.append(f"|phi| reaches {np.max(np.abs(vals)):.12f}")
    if np.max(np.abs(vals[near] - quad)) > 1e-8:
        problems.append(f"cf_eval off quadrature by {np.max(np.abs(vals[near] - quad)):.2e}")
    beta, sigma, shift = ans["cf"]
    own_cf = cf_values(beta, sigma, shift, ts)
    if np.max(np.abs(own_cf - vals)) > 1e-10:
        problems.append("returned characteristic function disagrees with its cf_eval values")
    prod = cf_values(*ans["product"], ts)
    expected = own_cf * cf_values(*q["partner"], ts)
    if np.max(np.abs(prod - expected)) > 1e-10:
        problems.append(f"product cf off the product of values by {np.max(np.abs(prod - expected)):.2e}")
    return problems
