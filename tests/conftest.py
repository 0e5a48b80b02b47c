"""Shared builders for the test suite."""

import contextlib
import itertools
import signal
import sys

import numpy as np
import pytest
from hypothesis import strategies as st

from polynormal import Example4Params, SearchBudget, make_pnd
from polynormal import pnd as pnd_module
from polynormal.polyalg import Polynomial, affine_substitute, to_hermite
from polynormal.verify import validate_example4_params

# Small budget for tests that construct many densities whose positivity is
# guaranteed by construction.
FAST_BUDGET = SearchBudget(doublings=3, starts=3)


def example4_poly() -> Polynomial:
    """(x1 x2 - 1)^2 + x2^2, expanded."""
    return Polynomial.from_terms(2, {(2, 2): 1.0, (1, 1): -2.0, (0, 0): 1.0, (0, 2): 1.0})


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise TimeoutError inside the block once ``seconds`` of wall time have
    passed, so a test of a loop that might not end fails instead of hanging
    (SIGALRM: POSIX, main thread)."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def example4_pnd():
    return make_pnd(example4_poly(), np.eye(2), np.zeros(2))


def _replace_everywhere(monkeypatch, original, replacement):
    """Set ``replacement`` wherever in the package ``original`` is looked up from."""
    for name, module in list(sys.modules.items()):
        if name == "polynormal" or name.startswith("polynormal."):
            if getattr(module, original.__name__, None) is original:
                monkeypatch.setattr(module, original.__name__, replacement)


def _record_scans(monkeypatch, record):
    """Call ``record(p, budget)`` (default budget filled in) on every global
    minimum scan (``minimize_polynomial``)."""
    original = pnd_module.minimize_polynomial

    def recording(p, budget=None):
        record(p, budget or SearchBudget())
        return original(p, budget)

    _replace_everywhere(monkeypatch, original, recording)


@pytest.fixture
def scan_calls(monkeypatch):
    """Polynomials passed to global minimum scans."""
    calls = []
    _record_scans(monkeypatch, lambda p, budget: calls.append(p))
    return calls


@pytest.fixture
def scan_budgets(monkeypatch):
    """Budgets of global minimum scans."""
    budgets = []
    _record_scans(monkeypatch, lambda p, budget: budgets.append(budget))
    return budgets


@pytest.fixture
def substitution_calls(monkeypatch):
    """Polynomials passed to ``affine_substitute``."""
    calls = []

    def recording(p, M, c):
        calls.append(p)
        return affine_substitute(p, M, c)

    _replace_everywhere(monkeypatch, affine_substitute, recording)
    return calls


@pytest.fixture
def hermite_calls(monkeypatch):
    """Polynomials passed to ``to_hermite``."""
    calls = []

    def recording(p):
        calls.append(p)
        return to_hermite(p)

    _replace_everywhere(monkeypatch, to_hermite, recording)
    return calls


def valley_poly(power: int, c: float, w: float, e: float) -> Polynomial:
    """(x1 x2^power - c)^2 + w x2^2 + e, expanded: example 4 is (1, 1, 1, 0)."""
    return Polynomial.from_terms(
        2, {(2, 2 * power): 1.0, (1, power): -2.0 * c, (0, 0): c * c + e, (0, 2): w}
    )


def eligible_quartic_poly() -> Polynomial:
    """x1^4 + x2^4 + x1^2 x2^2 + 1."""
    return Polynomial.from_terms(2, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): 1.0, (0, 0): 1.0})


def indefinite_top_form_poly() -> Polynomial:
    """(x1^2 - x2^2)^2 + 1: positive, but its top form vanishes on the diagonals."""
    return Polynomial.from_terms(2, {(4, 0): 1.0, (2, 2): -2.0, (0, 4): 1.0, (0, 0): 1.0})


def all_multiindices(dim: int, max_degree: int):
    return [
        alpha
        for alpha in itertools.product(range(max_degree + 1), repeat=dim)
        if sum(alpha) <= max_degree
    ]


@st.composite
def polynomials(draw, max_dim=3, max_degree=8):
    """A random polynomial: dimension, degree, share of nonzero terms and
    coefficient scale drawn by hypothesis, coefficients from a drawn seed."""
    d = draw(st.integers(1, max_dim))
    degree = draw(st.integers(0, max_degree))
    keep = draw(st.sampled_from([0.3, 0.7, 1.0]))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    terms = {
        alpha: rng.uniform(-scale, scale)
        for alpha in all_multiindices(d, degree)
        if rng.random() < keep
    }
    return Polynomial.from_terms(d, terms), rng


def random_signed_poly(rng, dim: int, max_degree: int, scale: float = 10.0) -> Polynomial:
    """Dense random polynomial with coefficients in [-scale, scale]."""
    terms = {
        alpha: rng.uniform(-scale, scale) for alpha in all_multiindices(dim, max_degree)
    }
    return Polynomial.from_terms(dim, terms)


def random_nonneg_poly(rng, dim: int, half_degree: int, squares: int = 2) -> Polynomial:
    """Sum of random squares plus a positive constant: positive by construction."""
    total = Polynomial.constant(dim, rng.uniform(0.2, 2.0))
    for _ in range(squares):
        q = random_signed_poly(rng, dim, half_degree, scale=1.0)
        total = total + q * q
    return total


def random_pd_matrix(rng, dim: int) -> np.ndarray:
    W = rng.normal(size=(dim, dim))
    return W @ W.T + (0.3 + dim * 0.2) * np.eye(dim)


def random_pnd(rng, dim: int, half_degree: int = 3):
    poly = random_nonneg_poly(rng, dim, half_degree)
    A = random_pd_matrix(rng, dim)
    b = rng.uniform(-1.0, 1.0, size=dim)
    return make_pnd(poly, A, b, FAST_BUDGET)


def sample_example4_params(rng) -> Example4Params:
    """Admissible triple from the well-conditioned sampling region."""
    while True:
        a11 = rng.uniform(0.1, 0.9)
        a22 = rng.uniform(0.1, 0.9)
        a12 = rng.uniform(0.08, 0.45) * rng.choice([-1.0, 1.0])
        params = Example4Params(a11, a12, a22)
        if a11 * a22 - a12**2 < 0.08:
            continue
        if (1.0 - a11) * (1.0 - a22) - a12**2 < 0.05:
            continue
        validate_example4_params(params)
        return params
