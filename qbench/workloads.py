"""The three question lists and how each question is put to the program.

A workload is a fixed list of questions.  Its make-up (which family, which
dimension, which degree sits in each slot) does not depend on the seed;
the seed draws only the coefficients, matrices, shifts and sample points,
so runs with different seeds ask questions of the same shape and cost.

Inputs are built with the plain polynomial arithmetic of ``oracles`` and
handed to the program through its public constructors, its JSON files and
its command line, so a fault in the program's own algebra cannot leak into
what the benchmark expects.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

import oracles as orc
# Program calls go through the package namespace (pn.make_pnd, ...) and
# cli.main, looked up at call time, so that the tracer's wrappers see them.
import polynormal as pn
from polynormal import cli

THETA_TOL = 1e-6  # the CLI's default --tol


def _rng(seed: int, workload: str, slot: int):
    tag = sum(ord(ch) for ch in workload)
    return np.random.default_rng([seed, tag, slot])


def _rotation(rng, d: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((d, d)))
    return Q * np.sign(np.diag(R))


def _random_A(rng, d: int) -> np.ndarray:
    R = _rotation(rng, d)
    A = R @ np.diag(rng.uniform(0.5, 2.0, size=d)) @ R.T
    return 0.5 * (A + A.T)


def _indices(d: int, max_degree: int):
    return [a for a in itertools.product(range(max_degree + 1), repeat=d) if sum(a) <= max_degree]


def _random_poly(rng, d: int, max_degree: int, scale: float, constant: bool = True) -> dict:
    return {a: rng.normal(0.0, scale) for a in _indices(d, max_degree) if constant or sum(a) > 0}


def _axis_powers(d: int, power: int, weights, center=None) -> dict:
    """sum_j w_j (x_j - center_j)^power."""
    center = np.zeros(d) if center is None else center
    out: dict = {}
    for j in range(d):
        coeffs = [1.0 if k == j else 0.0 for k in range(d)]
        out = orc.poly_add(out, orc.poly_scale(orc.poly_pow(orc.linear_form(coeffs, -center[j]), power, d), weights[j]))
    return out


def _shifted(p: dict, z, d: int) -> dict:
    """x -> p(x - z)."""
    forms = [orc.linear_form([1.0 if k == j else 0.0 for k in range(d)], -z[j]) for j in range(d)]
    out: dict = {}
    for alpha, c in p.items():
        term = {(0,) * d: c}
        for j, aj in enumerate(alpha):
            if aj:
                term = orc.poly_mul(term, orc.poly_pow(forms[j], aj, d))
        out = orc.poly_add(out, term)
    return out


def eligible_poly(rng, d: int, deg: int) -> dict:
    """Positive constant + two random squares + sum_j w_j x_j^deg.

    The top form is positive definite, so the axis condition holds in any
    coordinates, and the polynomial is at least the constant (>= 0.5).
    """
    m = deg // 2
    p = orc.poly_add({(0,) * d: rng.uniform(0.5, 1.5)}, _axis_powers(d, deg, rng.uniform(0.5, 1.5, size=d)))
    for _ in range(2):
        q = _random_poly(rng, d, m, 0.5)
        p = orc.poly_add(p, orc.poly_mul(q, q))
    return p


def zero_poly(rng, d: int, deg: int, z) -> dict:
    """Sum of squares vanishing exactly at z: sum_j w_j (x_j - z_j)^deg, d
    squared linear forms and one squared random polynomial, all zero at z."""
    p = _axis_powers(d, deg, rng.uniform(0.5, 1.5, size=d), z)
    for _ in range(d):
        ell = _shifted(_random_poly(rng, d, 1, 1.0, constant=False), z, d)
        p = orc.poly_add(p, orc.poly_mul(ell, ell))
    q = _shifted(_random_poly(rng, d, deg // 2, 0.3, constant=False), z, d)
    return orc.poly_add(p, orc.poly_mul(q, q))


# -- split: decompose, then verify-conv, through the command line ----------------

# (family, d, degree, count); 60 questions.  The d=1 degree-4 and degree-6
# and the d=2 degree-2 questions cost about the same and fill ranks 18..55,
# so the median and the tail percentile fall inside that group, away from
# the steps to the cheap degree-2 and the dear d=2 degree-4 questions.
SPLIT_MAKEUP = [
    ("oracle", 1, 2, 9), ("eligible", 1, 2, 9),
    ("eligible", 1, 4, 14),
    ("eligible", 1, 6, 10),
    ("eligible", 2, 2, 14),
    ("oracle", 2, 4, 3), ("eligible", 2, 4, 1),
]


def _oracle_question(rng, d: int):
    """Rotated separable product prod_j (((R'(x-b))_j)^2 + c_j), A = R diag(a) R'.

    In d = 2 the rotation is redrawn until both axis-leading coefficients of
    the whitened polynomial (whitener: inverse transpose of the lower
    Cholesky factor of A) are clear of zero, so the axis condition holds.
    """
    a = rng.uniform(0.5, 2.0, size=d)
    c = rng.uniform(0.5, 3.0, size=d) / a
    b = rng.uniform(-1.0, 1.0, size=d)
    while True:
        R = _rotation(rng, d)
        A = R @ np.diag(a) @ R.T
        A = 0.5 * (A + A.T)
        M = R.T @ np.linalg.inv(np.linalg.cholesky(A).T)
        lead = [abs(M[0, j] * M[1, j]) if d == 2 else 1.0 for j in range(d)]
        if min(lead) * math.sqrt(a.prod()) >= 0.15:
            break
    p = {(0,) * d: 1.0}
    for j in range(d):
        y = orc.linear_form(R[:, j], -float(R[:, j] @ b))
        p = orc.poly_mul(p, orc.poly_add(orc.poly_mul(y, y), {(0,) * d: c[j]}))
    return p, A, b, orc.separable_theta(a, c)


class Split:
    name = "split"

    def __init__(self, seed: int, workdir: Path):
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.questions = []
        slot = 0
        for family, d, deg, count in SPLIT_MAKEUP:
            for _ in range(count):
                rng = _rng(seed, self.name, slot)
                if family == "oracle":
                    p, A, b, theta = _oracle_question(rng, d)
                else:
                    p, A, b, theta = eligible_poly(rng, d, deg), _random_A(rng, d), rng.uniform(-1.0, 1.0, size=d), None
                path = self.dir / f"f{slot:02d}.json"
                doc = {"poly": {"dim": d, "terms": orc.terms_to_json(p)}, "A": A.tolist(), "b": b.tolist()}
                path.write_text(json.dumps(doc))
                self.questions.append({
                    "id": slot, "label": f"{family} d={d} deg={deg}", "poly": p, "A": A, "b": b,
                    "oracle_theta": theta, "tol": THETA_TOL, "path": str(path), "known_fault": None,
                })
                slot += 1
        self.seed = seed

    def answer(self, q):
        out = {k: str(self.dir / f"{k}.json") for k in ("dec", "y", "z", "v")}
        rc = cli.main(["decompose", "--input", q["path"], "--out", out["dec"]])
        dec = json.loads(Path(out["dec"]).read_text())
        if rc != 0:
            return {"exit": (rc, None), "dec": dec}
        Path(out["y"]).write_text(json.dumps(dec["factor_Y"]))
        Path(out["z"]).write_text(json.dumps(dec["factor_Z"]))
        rc2 = cli.main(["verify-conv", "--f", q["path"], "--y", out["y"], "--z", out["z"], "--out", out["v"]])
        return {"exit": (rc, rc2), "dec": dec, "verify": json.loads(Path(out["v"]).read_text())}

    def check(self, q, ans):
        return orc.check_split(q, ans, sample_seed=self.seed * 1000 + q["id"])


# -- screen: is it a density, and can a factor be split off ---------------------

# (family, d, degree, count); 96 questions, then the 4 scaled copies.  A
# run answers one pass, or two on a fast host.  Costs fall into groups: six
# dear questions (d=3, or d=2 at degree >= 6), 24 d=2 degree-4 eligible,
# real-zero and degree-6 negative ones, 37 degree-4 condition-337 failures
# and negatives, and 33 cheap d=1 ones, degree-6 condition-337 failures and
# scaled copies.  The tail percentile (p90, 10 answers beyond it) falls
# inside the second group and the median inside the third, away from the
# steps between groups, so the seed's draw of costs moves them little.
SCREEN_MAKEUP = [
    ("eligible", 1, 4, 4), ("eligible", 1, 6, 4), ("eligible", 1, 8, 4),
    ("eligible", 2, 4, 14), ("eligible", 2, 6, 1), ("eligible", 2, 8, 1),
    ("eligible", 3, 4, 1),
    ("zero", 1, 4, 3), ("zero", 1, 6, 2), ("zero", 1, 8, 2),
    ("zero", 2, 4, 8), ("zero", 2, 6, 1), ("zero", 3, 4, 1),
    ("negative", 1, 4, 2), ("negative", 1, 8, 2), ("negative", 2, 4, 2), ("negative", 2, 6, 2),
    ("negative", 3, 4, 1),
    ("fails337", 2, 4, 35), ("fails337", 2, 6, 6),
]

# Scaled copies c * p with c = 1e-10.  They do not depend on the seed: each
# one meets a fault of the program's absolute tolerances on every run.
SCALE = 1e-10
SCALED_COPIES = [
    ("ZERO_TOL", 2, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): 1.0, (0, 0): 1.0}, "Eligible"),
    ("ZERO_TOL", 1, {(4,): 1.0, (2,): 1.0, (0,): 1.0}, "Eligible"),
    # x^4 - 2 x^2 + 0.5: -0.5 at x = 1.
    ("NEGATIVITY_TOL", 1, {(4,): 1.0, (2,): -2.0, (0,): 0.5}, "NegativeDensity"),
    # (x1 x2 - 1)^2 + x2^2 - 0.5: -0.25 at (2, 0.5).
    ("NEGATIVITY_TOL", 2, {(2, 2): 1.0, (1, 1): -2.0, (0, 2): 1.0, (0, 0): 0.5}, "NegativeDensity"),
]


def _example4_params(rng):
    """Admissible (a11, a12, a22): both the split-off part and its complement
    stay positive definite, with margins that keep the extraction well
    conditioned."""
    while True:
        a11, a22 = rng.uniform(0.15, 0.85, size=2)
        a12 = rng.uniform(0.08, 0.45) * rng.choice([-1.0, 1.0])
        if a11 * a22 - a12**2 >= 0.05 and (1.0 - a11) * (1.0 - a22) - a12**2 >= 0.05:
            return float(a11), float(a12), float(a22)


def _fails337_poly(rng, deg: int, slot_parity: int) -> dict:
    """(x1 x2^k - c)^2 + w x2^2 + e: no x1^deg or x2^deg term, infimum >= e.

    k = 1 gives the example-4 family (deg 4), k = 2 its degree-6 relative;
    every other slot keeps e = 0, as in the paper's example.
    """
    k = deg // 2 - 1
    c = rng.uniform(0.5, 1.5)
    w = rng.uniform(0.5, 1.5)
    e = 0.0 if slot_parity == 0 else rng.uniform(0.1, 0.5)
    core = orc.poly_add({(1, k): 1.0}, {(0, 0): -c})
    return orc.poly_add(orc.poly_mul(core, core), {(0, 2): w}, {(0, 0): e})


class Screen:
    name = "screen"

    def __init__(self, seed: int, workdir: Path):
        self.questions = []
        slot = 0
        for family, d, deg, count in SCREEN_MAKEUP:
            for i in range(count):
                rng = _rng(seed, self.name, slot)
                b = rng.uniform(-1.0, 1.0, size=d)
                A, params, expected = _random_A(rng, d), None, "Eligible"
                if family == "eligible":
                    p = eligible_poly(rng, d, deg)
                elif family in ("zero", "negative"):
                    z = rng.uniform(-1.5, 1.5, size=d)
                    p = zero_poly(rng, d, deg, z)
                    expected = "HasRealZero"
                    if family == "negative":
                        p = orc.poly_add(p, {(0,) * d: -rng.uniform(0.05, 0.5)})
                        expected = "NegativeDensity"
                else:
                    p = _fails337_poly(rng, deg, i % 2)
                    A = np.diag(rng.uniform(0.5, 2.0, size=2))
                    b = rng.uniform(-0.5, 0.5, size=2)
                    params = _example4_params(rng)
                    expected = "FailsCondition337"
                self.questions.append(self._question(slot, f"{family} d={d} deg={deg}", p, A, b, expected, params))
                slot += 1
        for fault, d, p, expected in SCALED_COPIES:
            q = self._question(slot, f"scaled {SCALE:g} copy d={d} ({fault})", orc.poly_scale(p, SCALE),
                               np.eye(d), np.zeros(d), expected, None)
            q["known_fault"] = fault
            self.questions.append(q)
            slot += 1

    @staticmethod
    def _question(slot, label, p, A, b, expected, params):
        d = A.shape[0]
        return {
            "id": slot, "label": label, "poly": p, "A": A, "b": b, "expected": expected,
            "example4": params, "program_poly": pn.Polynomial.from_terms(d, p), "known_fault": None,
        }

    def answer(self, q):
        try:
            pnd = pn.make_pnd(q["program_poly"], q["A"], q["b"])
        except pn.NegativeDensity:
            return {"outcome": "NegativeDensity", "norm_const": None}
        out = {"outcome": pn.precheck(pnd).verdict, "norm_const": pnd.norm_const}
        if q["example4"] is not None:
            params = pn.Example4Params(*q["example4"])
            witness = pn.example4_negative_witness(params)
            out["witness_value"] = witness.value
            out["B"] = pn.example4_B_from_density(params)
        return out

    def check(self, q, ans):
        return orc.check_screen(q, ans)


# -- transform: forward and inverse characteristic functions --------------------

# (d, degree, count); 60 questions.  d=2 degree 6 and 8 and d=3 degree 4
# cost about the same and fill ranks 8..42, which hold the median; the
# tail percentile falls inside the d=3 degree-6 group.
TRANSFORM_MAKEUP = [(2, 4, 8), (2, 6, 8), (2, 8, 11), (3, 4, 16), (3, 6, 14), (3, 8, 3)]

# Densities are positive by construction, so set-up validates them with a
# two-start scan instead of the default multi-round search.
SETUP_BUDGET = pn.SearchBudget(doublings=0, starts=0, grid_points=0)


class Transform:
    name = "transform"

    def __init__(self, seed: int, workdir: Path):
        self.questions = []
        partners = {}
        for d in (2, 3):
            rng = _rng(seed, self.name, 1000 + d)
            p2 = eligible_poly(rng, d, 2)
            A2, b2 = _random_A(rng, d), rng.uniform(-1.0, 1.0, size=d)
            partner = pn.forward_cf(pn.make_pnd(pn.Polynomial.from_terms(d, p2), A2, b2, SETUP_BUDGET))
            partners[d] = (partner, (dict(partner.beta.terms), np.array(partner.sigma), np.array(partner.shift)))
        slot = 0
        for d, deg, count in TRANSFORM_MAKEUP:
            for _ in range(count):
                rng = _rng(seed, self.name, slot)
                p = eligible_poly(rng, d, deg)
                A, b = _random_A(rng, d), rng.uniform(-1.0, 1.0, size=d)
                # t = 0, four points with |t| <= 1 (checked by quadrature), three further out.
                near = rng.standard_normal((4, d))
                near *= rng.uniform(0.2, 1.0, size=(4, 1)) / np.linalg.norm(near, axis=1, keepdims=True)
                far = rng.standard_normal((3, d))
                far *= rng.uniform(1.5, 3.0, size=(3, 1)) / np.linalg.norm(far, axis=1, keepdims=True)
                self.questions.append({
                    "id": slot, "label": f"d={d} deg={deg}", "poly": p, "A": A, "b": b,
                    "ts": np.vstack([np.zeros(d), near, far]),
                    "pnd": pn.make_pnd(pn.Polynomial.from_terms(d, p), A, b, SETUP_BUDGET),
                    "partner_cf": partners[d][0], "partner": partners[d][1], "known_fault": None,
                })
                slot += 1

    def answer(self, q):
        cf = pn.forward_cf(q["pnd"])
        parts = pn.inverse_cf_parts(cf)
        vals = [pn.cf_eval(cf, t) for t in q["ts"]]
        return {"cf": cf, "parts": parts, "vals": vals, "product": pn.cf_multiply(cf, q["partner_cf"])}

    def check(self, q, ans):
        if "reference" not in q:
            q["reference"] = orc.transform_reference(q)
        cf, prod = ans["cf"], ans["product"]
        poly, A, b = ans["parts"]
        plain = {
            "cf": (dict(cf.beta.terms), cf.sigma, cf.shift),
            "parts": (dict(poly.terms), A, b),
            "vals": ans["vals"],
            "product": (dict(prod.beta.terms), prod.sigma, prod.shift),
        }
        return orc.check_transform(q, plain, q["reference"])


WORKLOADS = {cls.name: cls for cls in (Split, Screen, Transform)}
