"""Dense polynomial arithmetic over monomial frames on reference simplexes.

A polynomial of total degree <= deg in dim variables is a coefficient
vector over the graded-lexicographic list of exponent tuples returned by
:func:`exponents`.  The ordering is graded, so the frame of degree d is a
prefix of every higher-degree frame; embedding is zero-padding and
truncation is slicing.  Vector- and matrix-valued fields stack component
coefficient vectors along a leading axis.  All integrals over the
reference simplex (unit tet / unit triangle / unit interval) are exact,
via the factorial formula for simplex moments.
"""

from functools import lru_cache
from itertools import product
from math import factorial

import numpy as np


@lru_cache(maxsize=None)
def exponents(dim, deg):
    """Exponent tuples with total degree <= deg, graded lexicographic."""
    exps = [e for e in product(range(deg + 1), repeat=dim) if sum(e) <= deg]
    exps.sort(key=lambda e: (sum(e), e))
    return np.array(exps, dtype=np.int64).reshape(len(exps), dim)


@lru_cache(maxsize=None)
def index_of(dim, deg):
    return {tuple(e): i for i, e in enumerate(exponents(dim, deg))}


@lru_cache(maxsize=None)
def coordinate_index(dim):
    """Frame positions of the coordinate monomials x_1..x_dim."""
    # row e_j of the degree-1 frame is the first with a 1 in column j
    return np.argmax(exponents(dim, 1), axis=0)


def count(dim, deg):
    """dim P_deg in `dim` variables; 0 for negative degree."""
    if deg < 0:
        return 0
    n = 1
    for i in range(dim):
        n = n * (deg + 1 + i) // (i + 1)
    return n


def embed(coeffs, dim, deg_from, deg_to):
    """Zero-pad coefficient arrays (..., n_from) into the deg_to frame."""
    coeffs = np.asarray(coeffs, dtype=float)
    if deg_to == deg_from:
        return coeffs.copy()
    assert deg_to > deg_from
    pad = count(dim, deg_to) - count(dim, max(deg_from, 0))
    if coeffs.shape[-1] == 0:
        return np.zeros(coeffs.shape[:-1] + (count(dim, deg_to),))
    return np.concatenate(
        [coeffs, np.zeros(coeffs.shape[:-1] + (pad,))], axis=-1
    )


@lru_cache(maxsize=None)
def _mul_table(dim, deg1, deg2):
    e1 = exponents(dim, deg1)
    e2 = exponents(dim, deg2)
    idx = index_of(dim, deg1 + deg2)
    table = np.empty((len(e1), len(e2)), dtype=np.int64)
    for i, a in enumerate(e1):
        for j, b in enumerate(e2):
            table[i, j] = idx[tuple(a + b)]
    return table


def mul(c1, deg1, c2, deg2, dim):
    """Product of polynomials; output frame has degree deg1 + deg2."""
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    table = _mul_table(dim, deg1, deg2)
    out = np.zeros(
        np.broadcast_shapes(c1.shape[:-1], c2.shape[:-1]) + (count(dim, deg1 + deg2),)
    )
    prod = c1[..., :, None] * c2[..., None, :]
    flat = prod.reshape(-1, table.size)
    outflat = out.reshape(-1, out.shape[-1])
    np.add.at(outflat, (slice(None), table.ravel()), flat)
    return out


@lru_cache(maxsize=None)
def diff_matrix(dim, deg, axis):
    """D with coeffs_out = coeffs_in @ D, frame degree drops by one."""
    exps = exponents(dim, deg)
    out_deg = max(deg - 1, 0)
    idx = index_of(dim, out_deg)
    D = np.zeros((len(exps), count(dim, out_deg)))
    for i, e in enumerate(exps):
        if e[axis] > 0:
            f = tuple(a - (1 if k == axis else 0) for k, a in enumerate(e))
            D[i, idx[f]] = e[axis]
    return D


def diff(coeffs, dim, deg, axis):
    return np.asarray(coeffs, dtype=float) @ diff_matrix(dim, deg, axis)


@lru_cache(maxsize=None)
def integrals_simplex(dim, deg):
    """Exact monomial integrals over the reference simplex."""
    exps = exponents(dim, deg)
    vals = np.empty(len(exps))
    for i, e in enumerate(exps):
        num = 1.0
        for a in e:
            num *= factorial(int(a))
        vals[i] = num / factorial(int(sum(e)) + dim)
    return vals


@lru_cache(maxsize=None)
def gram_simplex(dim, deg):
    """Exact Gram matrix of the monomial frame on the reference simplex."""
    ints = integrals_simplex(dim, 2 * deg)
    return ints[_mul_table(dim, deg, deg)]


def eval_basis(dim, deg, points):
    """Vandermonde matrix (npoints, nmono) of the monomial frame."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    exps = exponents(dim, deg)
    return np.prod(points[:, None, :] ** exps[None, :, :], axis=2)


def evaluate(coeffs, dim, deg, points):
    """Values (..., npoints) of coefficient arrays (..., nmono)."""
    return np.asarray(coeffs, dtype=float) @ eval_basis(dim, deg, points).T


def substitution_matrix(dim_in, deg, L, b):
    """S with (p o phi) coeffs = p coeffs @ S, for phi(y) = b + L y.

    p lives in dim_in variables; the result lives in L.shape[1] variables
    at the same total degree.  Built by walking the graded monomial list,
    so each monomial image costs one polynomial multiplication.
    """
    L = np.asarray(L, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    dim_out = L.shape[1]
    exps = exponents(dim_in, deg)
    idx = index_of(dim_in, deg)
    n_out = count(dim_out, deg)
    lin = np.zeros((dim_in, count(dim_out, 1)))   # row i: b_i + (L y)_i
    lin[:, 0] = b
    lin[:, coordinate_index(dim_out)] = L
    S = np.zeros((len(exps), n_out))
    S[0, 0] = 1.0
    for i, e in enumerate(exps):
        d = int(e.sum())
        if d == 0:
            continue
        ax = int(np.argmax(e > 0))
        f = tuple(a - (1 if k == ax else 0) for k, a in enumerate(e))
        prev = S[idx[f]][: count(dim_out, d - 1)]
        term = mul(prev, d - 1, lin[ax], 1, dim_out)
        S[i, : count(dim_out, d)] = term
    return S
