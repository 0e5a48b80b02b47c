"""Command-line interface: schemas, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import polynormal
from polynormal.cli import main
from polynormal.decompose import PROBE_BUDGET
from polynormal.polyalg import Polynomial, polynomial_to_dict

from conftest import eligible_quartic_poly, example4_poly


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
    assert scan_budgets and all(b.seed == seed for b in scan_budgets)
    theta_search = [b for b in scan_budgets if b.doublings == PROBE_BUDGET.doublings]
    assert theta_search and all(b == replace(PROBE_BUDGET, seed=seed) for b in theta_search)


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


def test_example4_command_defaults(workdir, capsys):
    csv_path = workdir / "slice.csv"
    assert main(["--out", str(workdir / "e4.json"), "example4", "--csv", str(csv_path)]) == 0
    report = json.loads(open(workdir / "e4.json").read())
    assert report["B"] == pytest.approx(-5.61667, abs=1e-4)
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


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-6"])
def test_decompose_rejects_tolerances_not_finite_and_positive(workdir, capsys, tol):
    path = _write(
        workdir / "quartic.json", _pnd_json(eligible_quartic_poly(), np.eye(2), np.zeros(2))
    )
    assert main([f"--tol={tol}", "decompose", "--input", path]) == 2
    assert "finite and positive" in capsys.readouterr().err


def test_grid_tol_is_not_an_option(workdir, example4_json, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--input", example4_json, "--grid-tol", "1e-3"])
    assert exc.value.code == 2


def test_outputs_are_deterministic(workdir, example4_json):
    out1 = workdir / "a.json"
    out2 = workdir / "b.json"
    assert main(["--out", str(out1), "charfn", "--input", example4_json]) == 0
    assert main(["--out", str(out2), "charfn", "--input", example4_json]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_importing_the_cli_loads_no_scipy():
    # scipy loads on first use (the infimum estimate and the factor probe);
    # a fresh interpreter shows what importing alone loads.
    src = str(Path(polynormal.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, polynormal, polynormal.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
