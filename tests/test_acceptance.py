"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import json
import math

import numpy as np

from polynormal.charfn import forward_cf, inverse_cf
from polynormal.cli import main
from polynormal.decompose import (
    VERDICT_ELIGIBLE,
    VERDICT_FAILS_CONDITION_337,
    decompose,
    precheck,
    theta_floor,
)
from polynormal.errors import NoWitnessFound
from polynormal.pnd import integral_quadrature, make_pnd
from polynormal.polyalg import (
    Polynomial,
    affine_substitute,
    from_hermite,
    polynomial_to_dict,
    to_hermite,
)
from polynormal.positivity import check_condition_337, epsilon_bound
from polynormal.verify import (
    biquadratic_factor_probe,
    convolution_check,
    example4_B_exact,
    example4_negative_witness,
)

from conftest import (
    FAST_BUDGET,
    all_multiindices,
    eligible_quartic_poly,
    example4_poly,
    random_pnd,
    random_signed_poly,
    sample_example4_params,
)


def _report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else "")
    print(line)
    assert ok, line


def test_criterion_1_forward_transform(tmp_path, capsys):
    """Forward transform of the bundled counterexample density, via the CLI."""
    pnd_path = tmp_path / "ref.json"
    pnd_path.write_text(
        json.dumps(
            {
                "poly": polynomial_to_dict(example4_poly()),
                "A": [[1.0, 0.0], [0.0, 1.0]],
                "b": [0.0, 0.0],
            }
        )
    )
    out_path = tmp_path / "cf.json"
    code = main(["--out", str(out_path), "charfn", "--input", str(pnd_path)])
    data = json.loads(out_path.read_text())
    beta = {tuple(t["alpha"]): t["coef"] for t in data["beta"]}
    expected = {
        (2, 2): 1.0 / 3.0,
        (1, 1): -2.0 / 3.0,
        (0, 2): 2.0 / 3.0,
        (2, 0): 1.0 / 3.0,
        (0, 0): 1.0,
    }
    err = max(abs(beta.get(a, 0.0) - c) for a, c in expected.items())
    err = max(err, max(abs(c) for a, c in beta.items() if a not in expected), 0.0) if set(beta) - set(expected) else err
    _report(
        "criterion 1: counterexample forward transform (coeff error <= 1e-9)",
        code == 0 and err <= 1e-9,
        f"max coeff error {err:.3e}",
    )


def test_criterion_2_diagnosis():
    """Zero-freeness holds yet the axis condition fails: no attained zero."""
    pnd = make_pnd(example4_poly(), np.eye(2), np.zeros(2))
    diag = precheck(pnd)
    ok = (
        diag.verdict == VERDICT_FAILS_CONDITION_337
        and diag.infimum <= 1e-3
        and not diag.attained
        and diag.witness_point is None
    )
    _report(
        "criterion 2: diagnosis FailsCondition337 with unattained infimum <= 1e-3",
        ok,
        f"verdict {diag.verdict}, infimum {diag.infimum:.3e}, attained {diag.attained}",
    )


def test_criterion_3_1d_decomposition_oracle():
    """theta floor at sqrt(1/2) and an exact convolution of the factors."""
    pnd = make_pnd(Polynomial.from_terms(1, {(2,): 1.0, (0,): 1.0}), [[1.0]], [0.0])
    h = pnd.hermite
    floor = theta_floor(h, tol=1e-6).floor
    floor_err = abs(floor - math.sqrt(0.5))
    dec = decompose(pnd, theta=floor)
    report = convolution_check(pnd, dec.factor_Y, dec.factor_Z, np.linspace(-4.0, 4.0, 21))
    ok = floor_err <= 1e-6 and report.max_abs_error <= 1e-6
    _report(
        "criterion 3: 1D oracle theta_floor = sqrt(1/2) +- 1e-6, conv error <= 1e-6",
        ok,
        f"floor error {floor_err:.3e}, conv error {report.max_abs_error:.3e}",
    )


def test_criterion_4_desk_scale_instance():
    """Eligible quartic with mixed terms decomposes and convolves back."""
    p = example4_poly() + Polynomial.from_terms(2, {(4, 0): 0.1, (0, 4): 0.1})
    pnd = make_pnd(p, np.eye(2), np.zeros(2))
    diag = precheck(pnd)
    dec = decompose(pnd, tol=1e-4)
    axis = np.linspace(-4.0, 4.0, 5)
    grid = np.array(list(itertools.product(axis, axis)))
    report = convolution_check(pnd, dec.factor_Y, dec.factor_Z, grid)
    ok = (
        diag.verdict == VERDICT_ELIGIBLE
        and 0.0 < dec.theta < 1.0
        and dec.min_p_theta >= -1e-12
        and report.max_abs_error <= 1e-5
    )
    _report(
        "criterion 4: desk-scale instance eligible, theta < 1, conv error <= 1e-5",
        ok,
        f"theta {dec.theta:.6f}, min_p_theta {dec.min_p_theta:.3e}, conv {report.max_abs_error:.3e}",
    )


def test_criterion_5_perturbation_suite():
    """200 perturbations within epsilon keep the quartic strictly positive."""
    p = eligible_quartic_poly()
    report = epsilon_bound(p)
    rng = np.random.default_rng(100)
    indices = all_multiindices(2, p.degree)
    radius = report.search_radius
    axis = np.linspace(-radius, radius, 21)
    box = np.array(list(itertools.product(axis, axis)))
    exterior = rng.uniform(-4.0 * radius, 4.0 * radius, size=(50_000, 2))
    exterior = exterior[np.max(np.abs(exterior), axis=1) > radius][:10_000]
    worst = math.inf
    for _ in range(200):
        delta = {a: rng.uniform(-1.0, 1.0) * report.epsilon * 0.999 for a in indices}
        w = p + Polynomial.from_terms(2, delta, eps=0.0)
        worst = min(worst, float(np.min(w.eval_many(box))), float(np.min(w.eval_many(exterior))))
    _report(
        "criterion 5: 200 epsilon-perturbations stay positive on box + exterior",
        worst > 0.0,
        f"epsilon {report.epsilon:.3e}, worst value {worst:.3e}",
    )


def _random_affine(rng, dim, max_cond=10.0):
    q1, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    q2, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    smax = rng.uniform(0.5, 2.0)
    svals = smax * rng.uniform(1.0 / max_cond, 1.0, size=dim)
    svals[0] = smax
    return q1 @ np.diag(svals) @ q2, rng.uniform(-2.0, 2.0, size=dim)


def _random_definite_top_poly(rng, sign):
    terms = {}
    for alpha in all_multiindices(2, 4):
        if sum(alpha) == 4 and all(a % 2 == 0 for a in alpha):
            terms[alpha] = sign * rng.uniform(0.5, 2.0)
        elif sum(alpha) < 4:
            terms[alpha] = rng.uniform(-1.0, 1.0)
    return Polynomial.from_terms(2, terms)


def test_criterion_6_affine_invariance_suite():
    """Axis-condition verdict invariant under well-conditioned affine maps."""
    rng = np.random.default_rng(101)
    polys = [_random_definite_top_poly(rng, +1.0) for _ in range(5)]
    polys += [_random_definite_top_poly(rng, -1.0) for _ in range(5)]
    flips = 0
    for p in polys:
        verdict = check_condition_337(p)
        for _ in range(50):
            F, b = _random_affine(rng, 2)
            if check_condition_337(affine_substitute(p, F, b)) != verdict:
                flips += 1
    _report(
        "criterion 6: condition verdict invariant under 50 affine maps x 10 polys",
        flips == 0,
        f"{flips} verdict flips",
    )


def test_criterion_7_indecomposability_evidence():
    """Growth coefficient sign, negative witnesses, and the probe floor."""
    rng = np.random.default_rng(102)
    b_violations = sum(
        1 for _ in range(500) if not example4_B_exact(sample_example4_params(rng)) < 0.0
    )
    witness_failures = 0
    for _ in range(20):
        try:
            w = example4_negative_witness(sample_example4_params(rng), 50)
            if not w.value < -1e-10:
                witness_failures += 1
        except NoWitnessFound:
            witness_failures += 1
    P = Polynomial.from_terms(
        2, {(2, 2): 1.0, (1, 1): 2.0, (0, 2): -2.0, (2, 0): -1.0, (0, 0): 3.0}
    )
    floor_result = biquadratic_factor_probe(P, starts=200)
    factorable_failures = 0
    done = 0
    while done < 50:
        z = rng.standard_normal(12)
        q1 = Polynomial.from_terms(2, dict(zip([(2, 0), (0, 2), (1, 1), (1, 0), (0, 1), (0, 0)], z[:6])))
        q2 = Polynomial.from_terms(2, dict(zip([(2, 0), (0, 2), (1, 1), (1, 0), (0, 1), (0, 0)], z[6:])))
        prod = q1 * q2
        if prod.degree != 4:
            continue
        done += 1
        if biquadratic_factor_probe(prod, starts=20, seed=int(rng.integers(1 << 31))).residual > 1e-8:
            factorable_failures += 1
    ok = (
        b_violations == 0
        and witness_failures == 0
        and floor_result.residual > 1e-3
        and factorable_failures == 0
    )
    _report(
        "criterion 7: B < 0 x500, witnesses x20, probe floor > 1e-3, 50 factorable <= 1e-8",
        ok,
        f"B violations {b_violations}, witness failures {witness_failures}, "
        f"floor residual {floor_result.residual:.3e}, factorable failures {factorable_failures}",
    )


def test_criterion_8_roundtrip_suite():
    """Transform and basis round trips plus normalization, 50 random instances."""
    rng = np.random.default_rng(103)
    worst_cf = 0.0
    worst_hermite = 0.0
    worst_integral = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 4))
        pnd = random_pnd(rng, d)
        back = inverse_cf(forward_cf(pnd), FAST_BUDGET)
        eff = pnd.norm_const * pnd.poly
        eff_back = back.norm_const * back.poly
        scale = max(1.0, max(abs(c) for c in eff.terms.values()))
        worst_cf = max(
            worst_cf,
            eff_back.max_abs_coeff_diff(eff) / scale,
            float(np.max(np.abs(back.form.matrix - pnd.form.matrix))),
            float(np.max(np.abs(back.shift - pnd.shift))),
        )
        p = random_signed_poly(rng, d, int(rng.integers(0, 7)), scale=10.0)
        worst_hermite = max(worst_hermite, from_hermite(to_hermite(p)).max_abs_coeff_diff(p))
        worst_integral = max(worst_integral, abs(integral_quadrature(pnd) - 1.0))
    ok = worst_cf <= 1e-8 and worst_hermite <= 1e-8 and worst_integral <= 1e-6
    _report(
        "criterion 8: round trips <= 1e-8 and normalization integral <= 1e-6, 50 instances",
        ok,
        f"cf {worst_cf:.3e}, hermite {worst_hermite:.3e}, integral {worst_integral:.3e}",
    )
