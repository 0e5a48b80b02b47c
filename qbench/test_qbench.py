"""Tests of the benchmark itself: every checker rejects a deliberately wrong
answer, and the tracer's call counts agree with cProfile's.

    python3 -m pytest -q qbench/test_qbench.py
"""

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import hostspeed  # noqa: E402
import oracles as orc  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORK = HERE / "_work" / "tests"
SEED = 7


@pytest.fixture(scope="module")
def split():
    wl = workloads.Split(SEED, WORK / "split")
    q = next(q for q in wl.questions if q["oracle_theta"] is not None)
    return wl, q, wl.answer(q)


@pytest.fixture(scope="module")
def screen():
    wl = workloads.Screen(SEED, WORK / "screen")
    eligible = next(q for q in wl.questions if q["expected"] == "Eligible" and q["known_fault"] is None)
    fails = next(q for q in wl.questions if q["example4"] is not None)
    return wl, [(q, wl.answer(q)) for q in (eligible, fails)]


@pytest.fixture(scope="module")
def transform():
    wl = workloads.Transform(SEED, WORK / "transform")
    q = wl.questions[0]
    return wl, q, wl.answer(q)


def _split_with_theta(ans, theta, move_cov):
    bad = copy.deepcopy(ans)
    old = bad["dec"]["theta"]
    bad["dec"]["theta"] = theta
    if move_cov:
        cov = np.asarray(bad["dec"]["factor_Z"]["cov"]) * (1.0 - theta**2) / (1.0 - old**2)
        bad["dec"]["factor_Z"]["cov"] = cov.tolist()
    return bad


def test_split_accepts_the_program_answer(split):
    wl, q, ans = split
    assert wl.check(q, ans) == []


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_split_rejects_theta_moved_by_ten_tol(split, sign):
    wl, q, ans = split
    theta = ans["dec"]["theta"] + sign * 10.0 * q["tol"]
    assert wl.check(q, _split_with_theta(ans, theta, move_cov=False))
    # With factor_Z moved along, only the oracle range can catch it.
    problems = wl.check(q, _split_with_theta(ans, theta, move_cov=True))
    assert any("oracle" in p for p in problems)


def test_split_rejects_negative_factor_y(split):
    wl, q, ans = split
    bad = copy.deepcopy(ans)
    terms = bad["dec"]["factor_Y"]["poly"]["terms"]
    const = next(t for t in terms if not any(t["alpha"]))
    const["coef"] -= 10.0
    assert any("factor_Y" in p for p in wl.check(q, bad))


def test_split_rejects_wrong_factor_z(split):
    wl, q, ans = split
    bad = copy.deepcopy(ans)
    bad["dec"]["factor_Z"]["cov"] = (1.01 * np.asarray(bad["dec"]["factor_Z"]["cov"])).tolist()
    problems = wl.check(q, bad)
    assert any("cov" in p for p in problems) and any("Y*Z" in p for p in problems)


def test_split_rejects_perturbed_factor_y(split):
    wl, q, ans = split
    bad = copy.deepcopy(ans)
    terms = bad["dec"]["factor_Y"]["poly"]["terms"]
    const = next(t for t in terms if not any(t["alpha"]))
    const["coef"] += 1e-3 * max(abs(t["coef"]) for t in terms)
    assert any("Y*Z" in p for p in wl.check(q, bad))


def test_screen_accepts_the_program_answers(screen):
    wl, answered = screen
    for q, ans in answered:
        assert wl.check(q, ans) == []


def test_screen_rejects_flipped_verdict(screen):
    wl, answered = screen
    q, ans = answered[0]
    assert wl.check(q, dict(ans, outcome="FailsCondition337"))
    q, ans = answered[1]
    assert wl.check(q, dict(ans, outcome="Eligible"))


def test_screen_rejects_wrong_norm_const(screen):
    wl, answered = screen
    q, ans = answered[0]
    assert any("norm_const" in p for p in wl.check(q, dict(ans, norm_const=ans["norm_const"] * (1 + 1e-6))))


def test_screen_rejects_wrong_growth_coefficient_and_witness(screen):
    wl, answered = screen
    q, ans = answered[1]
    assert any("growth" in p for p in wl.check(q, dict(ans, B=ans["B"] + 1e-4 * abs(ans["B"]))))
    assert any("witness" in p for p in wl.check(q, dict(ans, witness_value=-ans["witness_value"])))


def test_scaled_copies_fail_only_because_of_scale(screen):
    wl, _ = screen
    probes = [q for q in wl.questions if q["known_fault"] is not None]
    assert len(probes) == len(workloads.SCALED_COPIES)
    for q in probes:
        assert wl.check(q, wl.answer(q)), q["label"]
        unscaled = orc.poly_scale(q["poly"], 1.0 / workloads.SCALE)
        at_one = wl._question(q["id"], q["label"], unscaled, q["A"], q["b"], q["expected"], None)
        assert wl.check(at_one, wl.answer(at_one)) == [], q["label"]


def test_transform_accepts_the_program_answer(transform):
    wl, q, ans = transform
    assert wl.check(q, ans) == []


def _plain(ans):
    cf, prod = ans["cf"], ans["product"]
    poly, A, b = ans["parts"]
    return {
        "cf": (dict(cf.beta.terms), cf.sigma, cf.shift),
        "parts": (dict(poly.terms), A, b),
        "vals": list(ans["vals"]),
        "product": (dict(prod.beta.terms), prod.sigma, prod.shift),
    }


def test_transform_rejects_perturbed_beta(transform):
    _, q, ans = transform
    bad = _plain(ans)
    beta = bad["cf"][0]
    alpha = max(beta, key=lambda a: abs(beta[a]) if sum(a) else 0.0)
    beta[alpha] *= 1.0 + 1e-6
    assert orc.check_transform(q, bad)


def test_transform_rejects_wrong_round_trip(transform):
    _, q, ans = transform
    bad = _plain(ans)
    poly, A, b = bad["parts"]
    assert orc.check_transform(q, dict(bad, parts=(poly, A * (1 + 1e-6), b)))
    poly = dict(poly)
    poly[(0,) * len(b)] += 1e-6
    assert any("round-trip" in p for p in orc.check_transform(q, dict(bad, parts=(poly, A, b))))


def test_transform_rejects_wrong_values(transform):
    _, q, ans = transform
    bad = _plain(ans)
    at_zero = list(bad["vals"])
    at_zero[0] = 1.0 + 1e-6
    assert any("phi(0)" in p for p in orc.check_transform(q, dict(bad, vals=at_zero)))
    near = list(bad["vals"])
    near[1] += 1e-6
    assert any("quadrature" in p for p in orc.check_transform(q, dict(bad, vals=near)))


def test_transform_rejects_wrong_product(transform):
    _, q, ans = transform
    bad = _plain(ans)
    beta, sigma, shift = bad["product"]
    assert any("product" in p for p in orc.check_transform(q, dict(bad, product=(beta, sigma * 1.001, shift))))


def test_oracle_theta_matches_closed_form_in_one_dimension():
    # (x - b)^2 + c under precision a: theta* = (1 + a c)^(-1/2).
    assert orc.separable_theta([2.0], [1.5]) == pytest.approx(0.5)


def test_host_speed_scale_follows_the_probes():
    speed = hostspeed.Speed()
    # A fast phase (kernel at the reference time), then a host twice as slow.
    speed.stamps = [0.0, 0.1, 0.2, 5.0, 5.1, 5.2, 9.0]
    speed.seconds = [hostspeed.REFERENCE_S] * 3 + [2 * hostspeed.REFERENCE_S] * 4
    fast, slow, between = speed.scale([0.1, 5.1, 7.0])
    assert fast == pytest.approx(1.0)
    assert slow == pytest.approx(0.5)
    # No probe within the window: interpolate between the bracketing two.
    assert between == pytest.approx(0.5)
    # Scaled times of the same work agree whatever the host's speed.
    assert 0.2 * fast == pytest.approx(0.4 * slow)


def test_tracer_counts_equal_cprofile_counts():
    rows = spans.crosscheck(WORK / "crosscheck")
    counts = {name: (traced, profiled) for name, traced, profiled in rows}
    assert all(traced == profiled for traced, profiled in counts.values()), counts
    for name in ("pnd.minimize_polynomial", "decompose.precheck", "positivity.epsilon_bound",
                 "polyalg.theta_rescale", "pnd.make_pnd"):
        assert counts[name][0] > 0


def test_tracer_restores_the_program_on_exit():
    import importlib

    import polynormal
    from polynormal import pnd, polyalg

    decompose_module = importlib.import_module("polynormal.decompose")

    before = (pnd.minimize_polynomial, decompose_module.minimize_polynomial,
              polynormal.minimize_polynomial, vars(polyalg.Polynomial)["eval"])
    with spans.Tracer():
        assert decompose_module.minimize_polynomial is not before[1]
        assert polynormal.minimize_polynomial is not before[2]
    after = (pnd.minimize_polynomial, decompose_module.minimize_polynomial,
             polynormal.minimize_polynomial, vars(polyalg.Polynomial)["eval"])
    assert all(a is b for a, b in zip(before, after))
