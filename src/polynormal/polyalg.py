"""Multivariate polynomials and the probabilists' Hermite basis.

``Polynomial.terms`` and ``HermiteCoeffs.coeffs`` are read-only maps from
exponent multi-indices to coefficients, stored as one vector over the indices
of total degree <= degree.  Most of the algebra runs on the
dense (degree+1,)*dim array: per-axis contractions with exact integer 1-D
tables for basis changes to and from He_k (orthogonal under exp(-x^2/2),
He_2(x) = x^2 - 1), and one exponent table with rows for the value, each first
and each second partial derivative for evaluation.  Affine substitution runs on
the packed vector: Horner's rule one variable at a time, for all coefficient
slices of that variable at once.
"""

from __future__ import annotations

import functools
import itertools
import json
from collections import namedtuple
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

MultiIndex = tuple[int, ...]

# Coefficients at or below this magnitude are dropped when a term map is
# brought to canonical sparse form.  Configurable per call for callers that
# need to keep tiny coefficients alive.
CANON_EPS = 1e-14


_Layout = namedtuple("_Layout", "shape total keys index flat degrees")


@functools.lru_cache(maxsize=None)
def _hessian_rows(dim: int) -> np.ndarray:
    """(dim, dim) rows of the evaluation table holding the second partials."""
    idx = np.empty((dim, dim), dtype=int)
    i, j = np.triu_indices(dim)
    idx[i, j] = idx[j, i] = dim + 1 + np.arange(len(i))
    idx.setflags(write=False)
    return idx


@functools.lru_cache(maxsize=64)
def _layout(dim: int, degree: int) -> _Layout:
    """Total degree of each entry of a (degree+1,)*dim coefficient array, and the
    entries of total degree <= degree: multi-indices (C order, which is lex order
    whatever the degree), positions, flat indices and total degrees."""
    shape = (degree + 1,) * dim
    total = sum(np.indices(shape))
    flat = np.flatnonzero(total <= degree)
    keys = list(map(tuple, np.transpose(np.unravel_index(flat, shape)).tolist()))
    return _Layout(shape, total, keys, {k: i for i, k in enumerate(keys)}, flat, total.reshape(-1)[flat])


class _Coefficients(Mapping):
    """Read-only map from multi-indices to nonzero coefficients over a ``_layout``."""

    __slots__ = ("vec", "layout")

    def __init__(self, vec: np.ndarray, layout: _Layout):
        self.vec, self.layout = vec, layout

    def __getitem__(self, alpha):
        c = self.vec[self.layout.index[tuple(alpha)]]
        if c == 0.0:
            raise KeyError(alpha)
        return float(c)

    def __iter__(self):
        return map(self.layout.keys.__getitem__, np.flatnonzero(self.vec).tolist())

    def __len__(self):
        return int(np.count_nonzero(self.vec))

    def __repr__(self):
        return repr(dict(self.items()))

    def dense(self, n: int = 0) -> np.ndarray:
        """The dense coefficient array, grown with zeros to (n,)*dim if n is larger."""
        arr = np.zeros(self.layout.shape)
        arr.reshape(-1)[self.layout.flat] = self.vec
        return np.pad(arr, (0, n - arr.shape[0])) if n > arr.shape[0] else arr


def _wrap(cls, arr: np.ndarray, eps: float = CANON_EPS):
    """``cls`` from a dense (n,)*dim coefficient array whose entries of total
    degree above n - 1 are zero, as every kernel here leaves them."""
    layout = _layout(arr.ndim, arr.shape[0] - 1)
    return _wrap_packed(cls, arr.reshape(-1)[layout.flat], layout, eps)


def _wrap_packed(cls, vec: np.ndarray, layout: _Layout, eps: float = CANON_EPS):
    """``cls`` from a coefficient vector over ``layout``: entries at or below eps
    dropped, stored over the ``_layout`` of its dimension and total degree."""
    if not np.isfinite(vec).all():
        raise ValueError("coefficient is not finite")
    vec = np.where(np.abs(vec) > eps, vec, 0.0)
    degree = int(layout.degrees[vec != 0.0].max(initial=0))
    if degree < layout.shape[0] - 1:
        vec = vec[layout.degrees <= degree]
    vec.setflags(write=False)
    dim = len(layout.shape)
    return cls(dim, _Coefficients(vec, _layout(dim, degree)), degree)


def _canonical(cls, dim, terms, eps):
    """``cls`` from (multi-index, coefficient) pairs or a map; like indices are summed."""
    if dim <= 0:
        raise ValueError("dimension must be positive")
    if isinstance(terms, _Coefficients) and len(terms.layout.shape) == dim:
        return _wrap(cls, terms.dense(), eps)
    acc: dict[MultiIndex, float] = {}
    for alpha, coef in terms.items() if isinstance(terms, Mapping) else terms:
        if not all(float(a).is_integer() and float(a) >= 0 for a in alpha):
            raise ValueError(f"exponent negative or not whole in multi-index {tuple(alpha)}")
        idx = tuple(int(a) for a in alpha)
        if len(idx) != dim:
            raise DimensionMismatch(f"multi-index {idx} does not have length {dim}")
        acc[idx] = acc.get(idx, 0.0) + float(coef)
    arr = np.zeros((max((sum(a) for a in acc), default=0) + 1,) * dim)
    arr[tuple(np.array(list(acc), dtype=int).reshape(-1, dim).T)] = list(acc.values())
    return _wrap(cls, arr, eps)


def grlex_key(alpha: MultiIndex):
    """Graded lexicographic sort key: total degree first, then lex."""
    return (sum(alpha), alpha)


class _Expansion:
    """What Polynomial and HermiteCoeffs share; ``_map`` is the coefficient map."""

    def coefficient(self, alpha) -> float:
        return self._map.get(tuple(alpha), 0.0)

    def _check_dim(self, other):
        if self.dim != other.dim:
            raise DimensionMismatch(f"dimensions {self.dim} and {other.dim} differ")

    def max_abs_coeff_diff(self, other) -> float:
        """Largest coefficient gap between two expansions (0 if identical)."""
        self._check_dim(other)
        n = max(self.degree, other.degree) + 1
        return float(np.max(np.abs(self._map.dense(n) - other._map.dense(n))))


@dataclass(frozen=True)
class Polynomial(_Expansion):
    """Immutable polynomial on R^dim.

    ``terms`` maps exponent multi-indices to coefficients and is always in
    canonical form: indices of length ``dim``, no near-zero coefficients.
    It is read-only, and unpacks to the dense array the algebra runs on.
    ``degree`` is the maximal total degree (0 for the zero polynomial).
    """

    dim: int
    terms: Mapping
    degree: int
    _map = property(lambda self: self.terms)

    @staticmethod
    def from_terms(dim: int, terms, eps: float = CANON_EPS) -> "Polynomial":
        return _canonical(Polynomial, dim, terms, eps)

    @staticmethod
    def zero(dim: int) -> "Polynomial":
        return Polynomial.from_terms(dim, {})

    @staticmethod
    def constant(dim: int, value: float) -> "Polynomial":
        return Polynomial.from_terms(dim, {(0,) * dim: value})

    @staticmethod
    def variable(dim: int, j: int) -> "Polynomial":
        alpha = tuple(1 if k == j else 0 for k in range(dim))
        return Polynomial.from_terms(dim, {alpha: 1.0})

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if np.isscalar(other):
            other = Polynomial.constant(self.dim, float(other))
        self._check_dim(other)
        n = max(self.degree, other.degree) + 1
        return _wrap(Polynomial, self.terms.dense(n) + other.terms.dense(n))

    __radd__ = __add__

    def __neg__(self):
        return _wrap(Polynomial, -self.terms.dense())

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if np.isscalar(other):
            return _wrap(Polynomial, float(other) * self.terms.dense())
        self._check_dim(other)
        dense = self.terms.dense()
        out = np.zeros((self.degree + other.degree + 1,) * self.dim)
        for alpha, c in other.terms.items():
            out[tuple(slice(a, a + self.degree + 1) for a in alpha)] += c * dense
        return _wrap(Polynomial, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Polynomial.constant(self.dim, 1.0)
        for _ in range(n):
            result = result * self
        return result

    # -- evaluation ---------------------------------------------------------

    @functools.cached_property
    def _eval_table(self):
        """(powers, gather positions, coefficient rows) of the evaluation kernel:
        column k is a monomial of p or of a partial derivative, gathered from the
        flat table x_j ** powers at positions[k]; row 0 is p, row 1 + j dp/dx_j,
        then one row per second partial d2p/dx_i dx_j, i <= j, in that order."""
        d, n = self.dim, self.degree + 1
        pairs = [(i, j) for i in range(d) for j in range(i, d)]
        rows = np.zeros((1 + d + len(pairs),) + (n,) * d)
        rows[0] = self.terms.dense()
        exponent = np.arange(1, n, dtype=float)

        def partial(src, dst, j):  # scale by the exponent along axis j, shift down by one
            lead = (slice(None),) * j
            rows[(dst,) + lead + (slice(-1),)] = (
                rows[(src,) + lead + (slice(1, None),)] * exponent.reshape([n - 1] + [1] * (d - 1 - j))
            )

        for j in range(d):
            partial(0, 1 + j, j)
        for k, (i, j) in enumerate(pairs):
            partial(1 + i, 1 + d + k, j)
        stack = rows.reshape(len(rows), -1)
        cols = np.flatnonzero(stack.any(axis=0))
        exps = np.stack(np.unravel_index(cols, (n,) * d), axis=1)
        return np.arange(n), exps + n * np.arange(d), stack[:, cols]

    def _monomials(self, x) -> np.ndarray:
        """Every column monomial of the evaluation table at points x (..., dim)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise DimensionMismatch(f"points have dimension {x.shape[-1]}, expected {self.dim}")
        powers, positions, _ = self._eval_table
        table = (x[..., None] ** powers).reshape(x.shape[:-1] + (-1,))
        return table[..., positions].prod(axis=-1)

    def _jet(self, pts: np.ndarray):
        """Values (n,), gradients (n, dim), Hessians (n, dim, dim) and the sums of
        the terms' magnitudes (n,), which bound the rounding of the values, at
        an (n, dim) array of points."""
        d = self.dim
        mono = self._monomials(pts)
        rows = self._eval_table[2]
        # einsum sums each point's row alone, in one order whatever the batch
        # (a BLAS product does not), so a point's result does not depend on it.
        out = np.einsum("nk,rk->nr", mono, rows)
        mag = np.einsum("nk,k->n", np.abs(mono), np.abs(rows[0]))
        return out[:, 0], out[:, 1:d + 1], out[:, _hessian_rows(d)], mag

    def eval(self, x) -> float:
        """Evaluate at a single point of R^dim."""
        return self._monomials(np.asarray(x, dtype=float).reshape(-1)) @ self._eval_table[2][0]

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate at an (n, dim) array of points at once."""
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1) if self.dim == 1 else pts.reshape(1, -1)
        return self._monomials(pts) @ self._eval_table[2][0]

    def grad_eval(self, x) -> np.ndarray:
        """Gradient at a single point."""
        mono = self._monomials(np.asarray(x, dtype=float).reshape(-1))
        return self._eval_table[2][1:self.dim + 1] @ mono


@dataclass(frozen=True)
class HermiteCoeffs(_Expansion):
    """Coefficients of a tensor-product Hermite expansion.

    ``coeffs`` maps a multi-index alpha to the coefficient of
    prod_j He_{alpha_j}(x_j); same canonical-form rules as Polynomial.
    """

    dim: int
    coeffs: Mapping
    degree: int
    _map = property(lambda self: self.coeffs)

    @staticmethod
    def from_coeffs(dim: int, coeffs, eps: float = CANON_EPS) -> "HermiteCoeffs":
        return _canonical(HermiteCoeffs, dim, coeffs, eps)

    def sorted_coeffs(self) -> list:
        return sorted(self.coeffs.items(), key=lambda kv: grlex_key(kv[0]))


# -- 1D conversion tables (exact integers in float storage) ------------------


@functools.lru_cache(maxsize=None)
def _basis_table(n: int, to_hermite: bool) -> np.ndarray:
    """(n, n) table of one 1-D basis change, column k holding the Hermite
    coefficients of x^k (to_hermite) or the monomial coefficients of He_k, from
    x He_j = He_{j+1} + j He_{j-1} and He_k = x He_{k-1} - (k-1) He_{k-2}."""
    table = np.zeros((n, n))
    table[0, 0] = 1.0
    for k in range(1, n):
        table[1:, k] = table[:-1, k - 1]
        if to_hermite:
            table[:-1, k] += np.arange(1, n) * table[1:, k - 1]
        elif k > 1:
            table[:, k] -= (k - 1) * table[:, k - 2]
    table.setflags(write=False)
    return table


def hermite_1d(k: int, x):
    """He_k(x) by the three-term recurrence; accepts scalars or arrays."""
    if k < 0:
        raise ValueError("order must be non-negative")
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if k == 0:
        return h_prev.item() if h_prev.ndim == 0 else h_prev
    h = x.copy()
    for j in range(1, k):
        h, h_prev = x * h - j * h_prev, h
    return h.item() if h.ndim == 0 else h


# -- basis conversion and rescaling ------------------------------------------


def _change_basis(arr: np.ndarray, to_hermite: bool) -> np.ndarray:
    """Apply the 1-D basis change of ``_basis_table`` along every axis."""
    n, d = arr.shape[0], arr.ndim
    table = _basis_table(n, to_hermite)
    for _ in range(d):  # change axis 0, then rotate it to the end
        arr = (table @ arr.reshape(n, -1)).reshape(arr.shape).transpose(*range(1, d), 0)
    return arr


def _theta_scale(arr: np.ndarray, theta: float) -> np.ndarray:
    """arr[a] * theta^{-|a|}, formed at nonzero entries only (no 0 * inf)."""
    out, live = np.zeros_like(arr), arr != 0
    out[live] = arr[live] * theta ** -_layout(arr.ndim, arr.shape[0] - 1).total[live].astype(float)
    return out


def to_hermite(p: Polynomial) -> HermiteCoeffs:
    """Expand p in the tensor Hermite basis: p = sum beta_a prod He_{a_j}."""
    return _wrap(HermiteCoeffs, _change_basis(p.terms.dense(), True))


def from_hermite(h: HermiteCoeffs) -> Polynomial:
    """Expand a Hermite coefficient map back to monomial form."""
    return _wrap(Polynomial, _change_basis(h.coeffs.dense(), False))


def theta_rescale(h: HermiteCoeffs, theta: float) -> Polynomial:
    """Expanded form of sum_a beta_a theta^{-|a|} prod_j He_{a_j}(x_j / theta).

    At theta = 1 this is exactly ``from_hermite(h)``.  The family's
    coefficients converge to those of ``from_hermite(h)`` as theta -> 1-.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    mono = _change_basis(_theta_scale(h.coeffs.dense(), theta), False)
    return _wrap(Polynomial, _theta_scale(mono, theta))


@functools.lru_cache(maxsize=64)
def _substitution_plan(dim: int, degree: int):
    """Index tables of ``_horner`` over the packed layout L = ``_layout(dim, degree)``
    with m entries.

    ``down[i]`` (m + 1,): for each column alpha of L, the column of alpha - e_i,
    or the trailing column m, which stays zero, where alpha_i = 0; so gathering
    it multiplies a row by x_i.  ``levels[j][k]``: the slices of variable y_j that
    take the coefficient of y_j^k.  The slices of y_j are the leading multi-indices
    a in (y_0, ..., y_{j-1}) with |a| <= degree, in graded order, so the ones with
    |a| + k <= degree come first; entry r is the row of (a_r, k) one level in, among
    the slices of y_{j+1} or, for j = dim - 1, among the columns of L.
    """
    layout = _layout(dim, degree)
    m = len(layout.keys)
    down = []
    for i in range(dim):
        col = [layout.index[a[:i] + (a[i] - 1,) + a[i + 1:]] if a[i] else m for a in layout.keys]
        down.append(np.array(col + [m], dtype=np.intp))
    slices = [
        sorted((a for a in itertools.product(range(degree + 1), repeat=j) if sum(a) <= degree), key=grlex_key)
        for j in range(dim)
    ]
    rows = [{a: r for r, a in enumerate(level)} for level in slices[1:]] + [layout.index]
    levels = [
        [np.array([rows[j][a + (k,)] for a in slices[j] if sum(a) + k <= degree], dtype=np.intp)
         for k in range(degree + 1)]
        for j in range(dim)
    ]
    return down, levels


def _horner(vec: np.ndarray, M: np.ndarray, c: np.ndarray, degree: int) -> np.ndarray:
    """Packed coefficients of x -> p(M x + c), p given by its packed coefficients
    ``vec`` over ``_layout(dim, degree)``.

    Horner's rule in y_j = M[j] . x + c[j], from the innermost variable outward,
    for every slice of y_j at once (``_substitution_plan``): each slice a holds
    sum_k y_j^k q[a, k], where q[a, k] is the coefficient of y_j^k, already
    substituted one level in.  Each entry sees the same operations in the same
    order as a recursion that substitutes one slice at a time, up to additions of
    exact zeros, so the result is the same to the bit.  Slice a has no coefficient
    of y_j^k for |a| + k > degree, so each step k works only on the leading rows,
    those with |a| + k <= degree.
    """
    d = len(c)
    down, levels = _substitution_plan(d, degree)
    m = len(down[0]) - 1
    inner = vec
    for j in reversed(range(d)):
        out = inner[:0]
        for rows in reversed(levels[j]):
            if j == d - 1:
                acc = np.zeros((len(rows), m + 1))
                acc[:, 0] = inner[rows]
            else:
                acc = inner[rows]
            if len(out):  # (M[j] . x + c[j]) * out, one shift-and-add per variable
                step = c[j] * out
                for i in np.flatnonzero(M[j]):
                    step += M[j, i] * out.take(down[i], axis=1)
                acc[:len(out)] += step
            out = acc
        inner = out
    return inner[0, :m]


def affine_substitute(p: Polynomial, M, c) -> Polynomial:
    """Expanded form of x -> p(M x + c).

    M must be invertible for the degree to be preserved; that is the
    caller's responsibility.
    """
    M = np.asarray(M, dtype=float)
    c = np.asarray(c, dtype=float).reshape(-1)
    d = p.dim
    if M.shape != (d, d):
        raise DimensionMismatch(f"matrix has shape {M.shape}, expected {(d, d)}")
    if c.shape[0] != d:
        raise DimensionMismatch(f"offset has length {c.shape[0]}, expected {d}")
    if not np.isfinite(M).all():
        raise ValueError("matrix is not finite")
    if not np.isfinite(c).all():
        raise ValueError("offset is not finite")
    return _wrap_packed(Polynomial, _horner(p.terms.vec, M, c, p.degree), p.terms.layout)


# -- JSON schema --------------------------------------------------------------
# {"dim": d, "terms": [{"alpha": [a1, ..., ad], "coef": c}, ...]}, graded-lex.


def polynomial_to_dict(p: Polynomial) -> dict:
    return {
        "dim": p.dim,
        "terms": [
            {"alpha": list(alpha), "coef": coef} for alpha, coef in p.sorted_terms()
        ],
    }


def polynomial_from_dict(data: Mapping) -> Polynomial:
    dim = int(data["dim"])
    terms = [(tuple(t["alpha"]), float(t["coef"])) for t in data["terms"]]
    return Polynomial.from_terms(dim, terms)


def polynomial_to_json(p: Polynomial) -> str:
    return json.dumps(polynomial_to_dict(p), indent=2, sort_keys=True)


def polynomial_from_json(text: str) -> Polynomial:
    return polynomial_from_dict(json.loads(text))
