"""Shared builders for the test suite."""

import itertools
import sys

import numpy as np
import pytest

from polynormal import Example4Params, SearchBudget, make_pnd
from polynormal import pnd as pnd_module
from polynormal.polyalg import Polynomial
from polynormal.verify import validate_example4_params

# Small budget for tests that construct many densities whose positivity is
# guaranteed by construction.
FAST_BUDGET = SearchBudget(doublings=3, starts=3, grid_points=5)


def example4_poly() -> Polynomial:
    """(x1 x2 - 1)^2 + x2^2, expanded."""
    return Polynomial.from_terms(2, {(2, 2): 1.0, (1, 1): -2.0, (0, 0): 1.0, (0, 2): 1.0})


@pytest.fixture
def example4_pnd():
    return make_pnd(example4_poly(), np.eye(2), np.zeros(2))


@pytest.fixture
def scan_calls(monkeypatch):
    """Polynomials passed to global minimum scans (``minimize_polynomial``),
    wherever in the package the scan is looked up from."""
    calls = []
    original = pnd_module.minimize_polynomial

    def counting(p, *args, **kwargs):
        calls.append(p)
        return original(p, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "polynormal" or name.startswith("polynormal."):
            if getattr(module, "minimize_polynomial", None) is original:
                monkeypatch.setattr(module, "minimize_polynomial", counting)
    return calls


def eligible_quartic_poly() -> Polynomial:
    """x1^4 + x2^4 + x1^2 x2^2 + 1."""
    return Polynomial.from_terms(2, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): 1.0, (0, 0): 1.0})


def all_multiindices(dim: int, max_degree: int):
    return [
        alpha
        for alpha in itertools.product(range(max_degree + 1), repeat=dim)
        if sum(alpha) <= max_degree
    ]


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
