"""Command-line interface: schemas, exit codes, determinism."""

import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polynormal
from polynormal.cli import main
from polynormal.pnd import SearchBudget
from polynormal.polyalg import Polynomial, affine_substitute, polynomial_to_dict

from conftest import deadline, eligible_quartic_poly, example4_poly, indefinite_top_form_poly, random_pd_matrix


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _pnd_json(poly, A, b):
    return {
        "poly": polynomial_to_dict(poly),
        "A": [[float(v) for v in row] for row in np.atleast_2d(A)],
        "b": [float(v) for v in np.atleast_1d(b)],
    }


@pytest.fixture
def example4_json(workdir):
    return _write(workdir / "ref.json", _pnd_json(example4_poly(), np.eye(2), np.zeros(2)))


def test_validate_reference_density(workdir, example4_json, capsys):
    code = main(["validate", "--input", example4_json])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["valid"]
    assert report["norm_const"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert report["integral"] == pytest.approx(1.0, abs=1e-9)


def test_validate_negative_polynomial_exits_2(workdir, capsys):
    bad = _write(
        workdir / "bad.json",
        _pnd_json(Polynomial.from_terms(1, {(2,): 1.0, (0,): -1.0}), [[1.0]], [0.0]),
    )
    assert main(["validate", "--input", bad]) == 2


@pytest.mark.parametrize("command", ["validate", "probe"])
def test_validate_negative_seed_exits_2(workdir, example4_json, capsys, command):
    if command == "validate":
        args = ["--input", example4_json]
    else:
        args = ["--poly", _write(workdir / "P.json", polynomial_to_dict(example4_poly())), "--starts", "2"]
    assert main(["--seed", "-1", command, *args]) == 2
    assert "SearchBudget.seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "term",
    [{"alpha": [2.7], "coef": 1.0}, {"alpha": [2], "coef": float("nan")}, {"alpha": [2], "coef": float("inf")}],
)
def test_validate_malformed_terms_exit_2(workdir, capsys, term):
    data = _pnd_json(Polynomial.from_terms(1, {(2,): 1.0, (0,): 1.0}), [[1.0]], [0.0])
    data["poly"]["terms"].append(term)
    assert main(["validate", "--input", _write(workdir / "bad.json", data)]) == 2
    assert capsys.readouterr().out == ""


def test_validate_malformed_json_exits_1(workdir):
    path = workdir / "broken.json"
    path.write_text("{not json")
    assert main(["validate", "--input", str(path)]) == 1


def test_validate_missing_file_exits_1(workdir):
    assert main(["validate", "--input", str(workdir / "absent.json")]) == 1


def _one_variable_json():
    return _pnd_json(Polynomial.from_terms(1, {(2,): 1.0, (0,): 1.0}), [[1.0]], [0.0])


@pytest.mark.parametrize("command", ["validate", "charfn", "invcharfn", "diagnose", "decompose", "probe", "verify-y"])
def test_an_input_that_is_not_utf8_exits_1(workdir, capsys, command):
    path = workdir / "latin1.json"
    path.write_bytes(b'{"dim": 1, "name": "\xe9"}')
    if command == "probe":
        argv = ["probe", "--poly", str(path)]
    elif command == "verify-y":
        f = _write(workdir / "f.json", _one_variable_json())
        argv = ["verify-conv", "--f", f, "--y", str(path), "--z", f]
    else:
        argv = [command, "--input", str(path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: cannot read {path}" in captured.err


@pytest.mark.parametrize("factor", [5, "mean cov", ["mean", "cov"], None])
def test_a_factor_document_that_is_not_an_object_exits_1(workdir, capsys, factor):
    f = _write(workdir / "f.json", _one_variable_json())
    y = _write(workdir / "y.json", factor)
    assert main(["verify-conv", "--f", f, "--y", y, "--z", f]) == 1
    assert "bad factor schema" in capsys.readouterr().err


@pytest.mark.parametrize("dim", [1.5, 0.5, float("inf")])
def test_a_dim_that_is_not_whole_exits_2(workdir, capsys, dim):
    data = _one_variable_json()
    data["poly"]["dim"] = dim
    assert main(["validate", "--input", _write(workdir / "p.json", data)]) == 2
    cf = {"dim": dim, "beta": [{"alpha": [0], "coef": 1.0}], "Sigma": [[1.0]], "b": [0.0]}
    assert main(["invcharfn", "--input", _write(workdir / "cf.json", cf)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("is not whole") == 2


@pytest.mark.parametrize("option", ["--out", "--csv"])
def test_an_output_that_cannot_be_written_exits_2(workdir, capsys, option):
    target = workdir / "missing" / "out"
    argv = ["--out", str(target), "example4"] if option == "--out" else ["example4", "--csv", str(target)]
    assert main(argv) == 2
    assert f"error: cannot write {target}: " in capsys.readouterr().err
    assert not target.parent.exists()


def test_charfn_reference_coefficients(workdir, example4_json, capsys):
    code = main(["charfn", "--input", example4_json])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    beta = {tuple(t["alpha"]): t["coef"] for t in data["beta"]}
    expected = {
        (2, 2): 1.0 / 3.0,
        (1, 1): -2.0 / 3.0,
        (0, 2): 2.0 / 3.0,
        (2, 0): 1.0 / 3.0,
        (0, 0): 1.0,
    }
    assert set(beta) == set(expected)
    for alpha, coef in expected.items():
        assert beta[alpha] == pytest.approx(coef, abs=1e-9)
    # expanded real part carries the sign flips from the i powers
    real = {tuple(t["alpha"]): t["coef"] for t in data["real_part"]}
    assert real[(1, 1)] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert real[(0, 2)] == pytest.approx(-2.0 / 3.0, abs=1e-9)


def test_charfn_then_invcharfn_roundtrip(workdir, example4_json, capsys):
    cf_path = str(workdir / "cf.json")
    assert main(["--out", cf_path, "charfn", "--input", example4_json]) == 0
    out_path = str(workdir / "back.json")
    assert main(["--out", out_path, "invcharfn", "--input", cf_path]) == 0
    back = json.loads(open(out_path).read())
    terms = {tuple(t["alpha"]): t["coef"] for t in back["poly"]["terms"]}
    norm = example4_poly() * (1.0 / 3.0)
    for alpha, coef in norm.terms.items():
        assert terms[alpha] == pytest.approx(coef, abs=1e-9)


def test_invcharfn_rejects_candidate(workdir, capsys):
    cf = {
        "dim": 2,
        "beta": [
            {"alpha": [2, 2], "coef": 1.0 / 3.0},
            {"alpha": [1, 1], "coef": -2.0 / 3.0},
            {"alpha": [0, 2], "coef": 2.0 / 3.0},
            {"alpha": [2, 0], "coef": 1.0 / 3.0},
            {"alpha": [0, 0], "coef": 1.0},
        ],
        "Sigma": [[0.5, 0.1], [0.1, 0.5]],
        "b": [0.0, 0.0],
    }
    path = _write(workdir / "cand.json", cf)
    assert main(["invcharfn", "--input", path]) == 2


def test_diagnose_reference_density(workdir, example4_json, capsys):
    assert main(["diagnose", "--input", example4_json]) == 0
    diag = json.loads(capsys.readouterr().out)
    assert diag["verdict"] == "FailsCondition337"
    assert diag["infimum"] <= 1e-3
    assert not diag["attained"]


def test_diagnose_verbose_prints_verdict_table(workdir, example4_json, capsys):
    assert main(["diagnose", "--input", example4_json, "-v"]) == 0
    err = capsys.readouterr().err
    assert "verdict" in err and "FailsCondition337" in err
    assert "condition337" in err and "epsilon" in err


def test_decompose_eligible_quartic(workdir, capsys):
    path = _write(
        workdir / "quartic.json", _pnd_json(eligible_quartic_poly(), np.eye(2), np.zeros(2))
    )
    out_path = str(workdir / "dec.json")
    code = main(["--out", out_path, "--tol", "1e-4", "decompose", "--input", path])
    assert code == 0
    dec = json.loads(open(out_path).read())
    assert 0.0 < dec["theta"] < 1.0
    assert dec["min_p_theta"] >= -1e-12
    assert dec["diagnosis"]["verdict"] == "Eligible"
    assert "mean" in dec["factor_Z"] and "cov" in dec["factor_Z"]


def test_decompose_scans_at_most_four_times(workdir, scan_calls):
    # load (reused by the precheck), theta start, theta confirmation, final theta
    path = _write(
        workdir / "quartic.json", _pnd_json(eligible_quartic_poly(), np.eye(2), np.zeros(2))
    )
    assert main(["--out", str(workdir / "dec.json"), "decompose", "--input", path]) == 0
    assert len(scan_calls) <= 4


@pytest.mark.parametrize("seed", [0, 5])
def test_decompose_seeds_every_scan(workdir, scan_budgets, seed):
    path = _write(
        workdir / "quartic.json", _pnd_json(eligible_quartic_poly(), np.eye(2), np.zeros(2))
    )
    argv = ["--seed", str(seed), "--out", str(workdir / "dec.json"), "decompose", "--input", path]
    assert main(argv) == 0
    assert scan_budgets and all(b == SearchBudget(seed=seed) for b in scan_budgets)


def test_decompose_substitutions(workdir, substitution_calls):
    # Loading whitens the density once; the split substitutes p_theta back
    # to x, whitens factor_Y, and forward_cf substitutes t -> L't for the
    # density and factor_Y.
    path = _write(workdir / "quartic.json", _pnd_json(eligible_quartic_poly(), np.eye(2), np.zeros(2)))
    assert main(["--out", str(workdir / "dec.json"), "decompose", "--input", path]) == 0
    assert len(substitution_calls) == 5


def test_validate_scans_once(workdir, example4_json, scan_calls):
    assert main(["--out", str(workdir / "v.json"), "validate", "--input", example4_json]) == 0
    assert len(scan_calls) == 1


def test_decompose_reference_density_exits_4(workdir, example4_json, capsys):
    assert main(["decompose", "--input", example4_json]) == 4
    out = json.loads(capsys.readouterr().out)
    assert out["diagnosis"]["verdict"] == "FailsCondition337"


def test_decompose_zero_density_exits_3(workdir, capsys):
    path = _write(
        workdir / "zero.json", _pnd_json(Polynomial.from_terms(1, {(2,): 1.0}), [[1.0]], [0.0])
    )
    assert main(["decompose", "--input", path]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["diagnosis"]["witness"]["value"] <= 1e-9


def test_decompose_explicit_theta(workdir, capsys):
    path = _write(
        workdir / "q1.json",
        _pnd_json(Polynomial.from_terms(1, {(2,): 1.0, (0,): 1.0}), [[1.0]], [0.0]),
    )
    theta = math.sqrt(0.5)
    assert main(["decompose", "--input", path, "--theta", repr(theta)]) == 0
    dec = json.loads(capsys.readouterr().out)
    assert dec["theta"] == pytest.approx(theta, abs=1e-12)
    assert dec["factor_Z"]["cov"][0][0] == pytest.approx(0.5, abs=1e-12)


def test_decompose_inadmissible_theta_exits_4(workdir, capsys):
    path = _write(
        workdir / "q1.json",
        _pnd_json(Polynomial.from_terms(1, {(2,): 1.0, (0,): 1.0}), [[1.0]], [0.0]),
    )
    assert main(["decompose", "--input", path, "--theta", "0.5"]) == 4  # below the sqrt(1/2) floor
    assert "rescaled polynomial reaches" in json.loads(capsys.readouterr().out)["error"]


def test_verify_conv_command(workdir, capsys):
    pnd_path = _write(
        workdir / "f.json",
        _pnd_json(Polynomial.from_terms(1, {(2,): 1.0, (0,): 1.0}), [[1.0]], [0.0]),
    )
    theta = math.sqrt(0.5)
    assert main(["--out", str(workdir / "dec.json"), "decompose", "--input", pnd_path, "--theta", repr(theta)]) == 0
    dec = json.loads(open(workdir / "dec.json").read())
    y_path = _write(workdir / "y.json", dec["factor_Y"])
    z_path = _write(workdir / "z.json", dec["factor_Z"])
    assert main(["verify-conv", "--f", pnd_path, "--y", y_path, "--z", z_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["max_abs_error"] <= 1e-6


@pytest.mark.parametrize("shift", [[0.1, -0.2], [20.0, -20.0]])
def test_verify_conv_rejects_a_wrong_factor_of_a_density_far_from_the_origin(workdir, capsys, shift):
    # The grid lies in the density's own frame, b + L u, wherever b is.
    poly = Polynomial.from_terms(2, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): 1.0, (1, 1): -1.0, (0, 0): 1.0})
    f = _write(workdir / "f.json", _pnd_json(poly, [[2.0, 0.5], [0.5, 1.0]], shift))
    assert main(["--out", str(workdir / "dec.json"), "decompose", "--input", f]) == 0
    dec = json.loads(open(workdir / "dec.json").read())
    y = _write(workdir / "y.json", dec["factor_Y"])
    z = _write(workdir / "z.json", dec["factor_Z"])
    wrong = _write(workdir / "wrong.json", {**dec["factor_Z"], "cov": (3.0 * np.array(dec["factor_Z"]["cov"])).tolist()})
    errors = []
    for factor in (z, wrong):
        assert main(["verify-conv", "--f", f, "--y", y, "--z", factor]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["quadrature_order"] == 3 and report["grid_points"] == 25
        errors.append(report["max_abs_error"])
    assert errors[0] <= 1e-12 and errors[1] > 1e-3


def test_example4_command_defaults(workdir, capsys):
    csv_path = workdir / "slice.csv"
    assert main(["--out", str(workdir / "e4.json"), "example4", "--csv", str(csv_path)]) == 0
    report = json.loads(open(workdir / "e4.json").read())
    assert report["B"] == pytest.approx(-5.41667, abs=1e-4)
    assert report["witness"]["value"] < -1e-10
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "x1,x2,f"
    first = [float(v) for v in lines[1].split(",")]
    assert len(first) == 3


def test_example4_axis_branch(workdir, capsys):
    assert main(["example4", "--a12", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["B"] is None
    assert report["witness"]["point"][1] == 0.0


def test_example4_invalid_triple_exits_2(workdir, capsys):
    assert main(["example4", "--a11", "0.5", "--a12", "0.8", "--a22", "0.5"]) == 2
    err = capsys.readouterr().err
    assert "a11*a22 - a12^2 > 0" in err


def test_probe_command(workdir, capsys):
    P = Polynomial.from_terms(2, {(2, 2): 1.0, (2, 0): 1.0, (0, 2): 1.0, (0, 0): 1.0})
    path = _write(workdir / "P.json", polynomial_to_dict(P))
    assert main(["probe", "--poly", path, "--starts", "25"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["residual"] <= 1e-10


@pytest.mark.parametrize("starts", ["0", "-3"])
def test_probe_without_starts_exits_2(workdir, capsys, starts):
    P = Polynomial.from_terms(2, {(2, 2): 1.0, (0, 0): 1.0})
    path = _write(workdir / "P.json", polynomial_to_dict(P))
    assert main(["probe", "--poly", path, "--starts", starts]) == 2
    assert "starts must be at least 1" in capsys.readouterr().err


def test_probe_of_a_coefficient_of_1e200_reads_as_its_copy_at_scale_1(workdir, capsys):
    # The probe searches the quartic divided by its largest coefficient, so
    # no coefficient makes the squared residual overflow in the search box.
    P = Polynomial.from_terms(2, {(2, 2): 1.0, (1, 1): 2.0, (0, 2): -2.0, (2, 0): -1.0, (0, 0): 3.0})
    reports = []
    for c in (1.0, 1e200):
        path = _write(workdir / "P.json", polynomial_to_dict(P * c))
        assert main(["probe", "--poly", path, "--starts", "20"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[1]["residual"] == pytest.approx(reports[0]["residual"], rel=1e-9)
    assert reports[1]["residual"] > 1e-3
    factors = [Polynomial.from_terms(2, {tuple(t["alpha"]): t["coef"] for t in reports[1][k]["terms"]}) for k in ("factor1", "factor2")]
    # The fit is off by the relative residual times the largest coefficient, 3e200.
    gap = (factors[0] * factors[1]).max_abs_coeff_diff(P * 1e200)
    assert gap <= math.sqrt(reports[1]["residual"]) * 3e200 * (1.0 + 1e-9)


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-6"])
def test_decompose_rejects_tolerances_not_finite_and_positive(workdir, capsys, tol):
    path = _write(
        workdir / "quartic.json", _pnd_json(eligible_quartic_poly(), np.eye(2), np.zeros(2))
    )
    assert main([f"--tol={tol}", "decompose", "--input", path]) == 2
    assert "finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["1e-17", "1e-20"])
def test_decompose_rejects_a_tolerance_below_float_resolution_at_once(workdir, capsys, tol):
    # The theta search would never end at such a tolerance; the deadline
    # bounds the run should the option reach it.
    poly = Polynomial.from_terms(1, {(4,): 1.0, (2,): 1.0, (0,): 1.0})
    path = _write(workdir / "quartic.json", _pnd_json(poly, [[1.0]], [0.0]))
    with deadline(20.0):
        assert main([f"--tol={tol}", "decompose", "--input", path]) == 2
    assert "at least 2**-52" in capsys.readouterr().err


def test_grid_tol_is_not_an_option(workdir, example4_json, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--input", example4_json, "--grid-tol", "1e-3"])
    assert exc.value.code == 2


def test_quadrature_order_is_not_an_option(workdir, example4_json, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--quadrature-order", "12", "validate", "--input", example4_json])
    assert exc.value.code == 2


def _rotated_example4_json(workdir, angle):
    """(x1 x2 - 1)^2 + x2^2 with A = I and b = 0, written in coordinates
    rotated by ``angle``: the same density, which has no Gaussian factor."""
    c, s = math.cos(angle), math.sin(angle)
    p = affine_substitute(example4_poly(), np.array([[c, -s], [s, c]]), np.zeros(2))
    return _write(workdir / "rotated.json", _pnd_json(p, np.eye(2), np.zeros(2)))


ROTATIONS = pytest.mark.parametrize(
    "angle", [0.0, 0.01, math.pi / 4], ids=["0", "0.01", "quarter_pi"]
)


@ROTATIONS
def test_rotated_example4_is_not_split_at_the_default_tolerance(workdir, capsys, angle):
    # Unrotated, the axis condition fails.  Rotated, it holds, but no theta
    # below 1 passes an attained gate scan: p_theta goes negative far out.
    assert main(["decompose", "--input", _rotated_example4_json(workdir, angle)]) == 4


@ROTATIONS
@pytest.mark.parametrize("tol", ["1e-5", "1e-4", "1e-3"])
def test_rotated_example4_is_not_split_at_a_coarser_tolerance(workdir, capsys, angle, tol):
    assert main(["--tol", tol, "decompose", "--input", _rotated_example4_json(workdir, angle)]) == 4


@pytest.mark.parametrize("tol", ["1e-6", "1e-5", "1e-3"])
def test_indefinite_top_form_is_not_split(workdir, capsys, tol):
    # Along the diagonals every p_theta with theta < 1 falls below zero
    # outside the scan's box.
    path = _write(workdir / "diag.json", _pnd_json(indefinite_top_form_poly(), np.eye(2), np.zeros(2)))
    assert main(["--tol", tol, "decompose", "--input", path]) == 4
    assert "error" in json.loads(capsys.readouterr().out)


def _permuted(p, perm):
    """p in the coordinates y_j = x_perm[j]: the exponent of y_j is that of x_perm[j]."""
    return Polynomial.from_terms(p.dim, {tuple(alpha[i] for i in perm): c for alpha, c in p.terms.items()})


def _split_in_order(folder, p, A, b, perm):
    """(exit code, theta or None, diagnosis) of the CLI on the density in
    the coordinates y_j = x_perm[j]."""
    path = _write(folder / "f.json", _pnd_json(_permuted(p, perm), A[np.ix_(perm, perm)], b[perm]))
    code = main(["--out", str(folder / "dec.json"), "decompose", "--input", path])
    assert main(["--out", str(folder / "diag.json"), "diagnose", "--input", path]) == 0
    dec, diag = (json.loads((folder / name).read_text()) for name in ("dec.json", "diag.json"))
    return code, dec.get("theta"), diag


def test_a_swapped_pair_splits_at_one_theta(workdir):
    # x1^2 x2^2 + x2^4 + x1^2 + 1 with A = [[1, .5], [.5, 2]], and the same
    # density with x1 and x2 swapped: the whitener A^{-1/2} permutes with
    # the coordinates, so both orders meet the axis condition and split at
    # one theta; a triangular (Cholesky) whitener fails the condition in
    # the first order.
    p = Polynomial.from_terms(2, {(2, 2): 1.0, (0, 4): 1.0, (2, 0): 1.0, (0, 0): 1.0})
    A = np.array([[1.0, 0.5], [0.5, 2.0]])
    for perm in ([0, 1], [1, 0]):
        code, theta, diag = _split_in_order(workdir, p, A, np.zeros(2), perm)
        assert (code, theta, diag["verdict"]) == (0, 0.8477163769599019, "Eligible")


def _quartic_family(dim, diagonal, seed):
    """(p, A, b, rng) of q^2 + sum_j w_j x_j^4 + c with q multilinear, so
    x_j^4 has coefficient w_j.  With a diagonal A, some w_j are 0, and
    those axes fail the axis condition in every order."""
    rng = np.random.default_rng(seed)
    q = Polynomial.from_terms(dim, {a: rng.uniform(-1.0, 1.0) for a in itertools.product((0, 1), repeat=dim) if sum(a) <= 2})
    w = rng.uniform(0.2, 1.0, dim) * (rng.random(dim) < 0.7 if diagonal else 1.0)
    quartics = {tuple(4 * np.eye(dim, dtype=int)[j]): w[j] for j in range(dim)}
    p = q * q + Polynomial.from_terms(dim, {**quartics, (0,) * dim: rng.uniform(0.2, 1.0)})
    A = np.diag(rng.uniform(0.5, 2.0, dim)) if diagonal else random_pd_matrix(rng, dim)
    return p, A, rng.uniform(-1.0, 1.0, dim), rng


# The scans' random starts do not permute with the coordinates.  Where one
# order's confirmation scan misses a well in which p_theta < 0, that order
# splits too low, a false split, and this test fails: 3 examples in 8000
# (seeds 313, 1182 and 1975 with d = 3 and A not diagonal).
@settings(max_examples=15, deadline=None)
@given(st.integers(2, 3), st.booleans(), st.integers(0, 2**32 - 1))
def test_a_coordinate_permutation_permutes_the_axis_terms_and_keeps_the_split(dim, diagonal, seed):
    p, A, b, rng = _quartic_family(dim, diagonal, seed)
    perm = rng.permutation(dim)
    if np.array_equal(perm, np.arange(dim)):
        perm = perm[::-1]
    with tempfile.TemporaryDirectory() as tmp:
        code, theta, diag = _split_in_order(Path(tmp), p, A, b, np.arange(dim))
        code_p, theta_p, diag_p = _split_in_order(Path(tmp), p, A, b, perm)
    assert (code_p, theta_p, diag_p["verdict"]) == (code, theta, diag["verdict"])
    lead, lead_p = (np.array(d["report"]["leading_coeffs"]) for d in (diag, diag_p))
    assert np.max(np.abs(lead_p - lead[perm])) <= 1e-12 * max(1.0, np.max(np.abs(lead)))


def test_a_well_found_only_in_the_last_scan_round_does_not_stall_the_split(workdir):
    # Seed 170, d = 3, A not diagonal: from theta ~ 0.9 up, only the last
    # round of each confirmation scan finds the well where p_theta is
    # least, deep inside the earlier rounds' boxes.  Read as a minimum not
    # attained, it would refute every confirmation, and the theta search
    # would creep up by its tolerance per scan, for minutes.
    p, A, b, _ = _quartic_family(3, False, 170)
    start = time.perf_counter()
    code, theta, _ = _split_in_order(workdir, p, A, b, np.arange(3))
    assert time.perf_counter() - start < 20.0
    assert (code, theta) == (0, 0.8992348171549654)


def test_outputs_are_deterministic(workdir, example4_json):
    out1 = workdir / "a.json"
    out2 = workdir / "b.json"
    assert main(["--out", str(out1), "charfn", "--input", example4_json]) == 0
    assert main(["--out", str(out2), "charfn", "--input", example4_json]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# A positive quartic density in one variable.
_ONE_VARIABLE_DENSITY = {
    "poly": {"dim": 1, "terms": [
        {"alpha": [0], "coef": 1.3869414846024788}, {"alpha": [1], "coef": 0.44588303596516804},
        {"alpha": [2], "coef": 0.6545994968363069}, {"alpha": [3], "coef": 0.5756178925158942},
        {"alpha": [4], "coef": 1.548426504558016}]},
    "A": [[1.1859365156911916]], "b": [0.946866022810084],
}


def test_one_variable_outputs_do_not_depend_on_the_search_budget(workdir, monkeypatch):
    # A scan in one variable seeds at the critical points of p, so the seed
    # and the random starts change no byte of decompose or diagnose.
    path = _write(workdir / "one.json", _ONE_VARIABLE_DENSITY)

    def outputs(tag, *argv):
        files = []
        for command in ("decompose", "diagnose"):
            out = workdir / f"{tag}-{command}.json"
            assert main([*argv, "--out", str(out), command, "--input", path]) == 0
            files.append(out.read_bytes())
        return files

    base = outputs("base")
    for seed in (0, 7, 123):
        assert outputs(f"seed{seed}", "--seed", str(seed)) == base, seed
    for starts in (0, 5):
        budget = SearchBudget(starts=starts, seed=3)
        monkeypatch.setattr(polynormal.cli.RunConfig, "budget", lambda self, budget=budget: budget)
        assert outputs(f"starts{starts}") == base, budget


@pytest.mark.parametrize("command", ["validate", "decompose", "diagnose"])
def test_a_one_variable_density_whose_slope_overflows_exits_2(workdir, capsys, command):
    # p' overflows, so the scan has no critical points to seed; the density's
    # own check reports the overflow.
    terms = [{"alpha": [4], "coef": 1e308}, {"alpha": [2], "coef": -1e308}, {"alpha": [0], "coef": 1e308}]
    path = _write(workdir / "big.json", {"poly": {"dim": 1, "terms": terms}, "A": [[1.0]], "b": [0.0]})
    with np.errstate(over="ignore", invalid="ignore"):
        assert main([command, "--input", path]) == 2
    assert "coefficient is not finite" in capsys.readouterr().err


def _scipy_modules_loaded_by(*statements):
    """The scipy modules a fresh interpreter holds after importing the CLI and
    running the statements."""
    src = str(Path(polynormal.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "\n".join([
        "import sys, polynormal",
        "from polynormal.cli import main",
        *statements,
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_importing_the_cli_loads_no_scipy():
    assert _scipy_modules_loaded_by() == "[]"


@pytest.fixture(scope="module")
def density_commands(tmp_path_factory):
    """Argument lists of every command but `invcharfn`, on the eligible
    quartic: it reaches the perturbation radius, which the reference density
    (failing the axis condition) never does.  `probe` reads the Example-4
    characteristic-function quartic."""
    workdir = tmp_path_factory.mktemp("commands")
    f = _write(workdir / "f.json", _pnd_json(eligible_quartic_poly(), np.eye(2), np.zeros(2)))
    assert main(["--out", str(workdir / "dec.json"), "decompose", "--input", f]) == 0
    dec = json.loads((workdir / "dec.json").read_text())
    y = _write(workdir / "y.json", dec["factor_Y"])
    z = _write(workdir / "z.json", dec["factor_Z"])
    P = Polynomial.from_terms(2, {(2, 2): 1.0, (1, 1): 2.0, (0, 2): -2.0, (2, 0): -1.0, (0, 0): 3.0})
    quartic = _write(workdir / "quartic.json", polynomial_to_dict(P))
    out = ["--out", str(workdir / "out.json")]
    return {
        "validate": [*out, "validate", "--input", f],
        "charfn": [*out, "charfn", "--input", f],
        "diagnose": [*out, "diagnose", "--input", f],
        "decompose": [*out, "decompose", "--input", f],
        "verify-conv": [*out, "verify-conv", "--f", f, "--y", y, "--z", z],
        "example4": [*out, "example4"],
        "probe": [*out, "probe", "--poly", quartic, "--starts", "20"],
    }


@pytest.mark.parametrize("command", ["validate", "charfn", "diagnose", "decompose", "verify-conv", "example4", "probe"])
def test_density_commands_load_no_scipy(density_commands, command):
    assert _scipy_modules_loaded_by(f"assert main({density_commands[command]!r}) == 0") == "[]"
