"""Dense and sparse linear algebra used by every other module.

Thin, contract-enforcing wrappers around numpy/scipy factorizations.  The
relative pivot and rank cuts live in one :class:`Tolerances` record, and
RANK_ABS_FLOOR is the size below which a matrix has rank 0.  Other gates
are constants of the modules that apply them: interp.CONFORMITY_TOL and
interp.L2_SQ_RTOL, assembly.PCG_RTOL, the 1e-9 residual gate of
assembly.solve_saddle and the tolerances of the CLI checks.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SingularMatrix(Exception):
    pass


class RankDeficient(Exception):
    pass


class NoConvergence(Exception):
    pass


@dataclass(frozen=True)
class Tolerances:
    pivot: float = 1e-13          # LU pivot magnitude floor
    lstsq_rank: float = 1e-10     # rank cut relative to ||A||_2
    rank: float = 1e-10           # generic numerical-rank cut (polyspace)


TOL = Tolerances()


def lu_solve(A, b):
    """Solve a square nonsingular dense system by partially pivoted LU."""
    n, m = np.shape(A)
    if n != m:
        raise ValueError(f"matrix is {n}x{m}, expected square")
    return lu_apply(lu_factor(A), b)


def lu_factor(A):
    """Reusable factorization handle; apply with lu_apply."""
    A = np.asarray(A, dtype=float)
    lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    pivots = np.abs(np.diag(lu))
    scale = max(np.abs(A).max(), 1.0)
    if pivots.size and pivots.min() <= TOL.pivot * scale:
        raise SingularMatrix(
            f"pivot {pivots.min():.3e} below {TOL.pivot:.0e} * scale"
        )
    return (lu, piv)


def lu_apply(factor, b):
    """Solve with a lu_factor handle: LAPACK getrs called directly, which gives
    the bits of scipy.linalg.lu_solve without its per-call checks."""
    x, info = scipy.linalg.lapack.dgetrs(*factor, np.asarray(b, dtype=float))
    if info != 0:
        raise ValueError(f"getrs: illegal value in argument {-info}")
    return x


def lu_inverse(factor):
    """A^{-1} from a lu_factor handle: LAPACK getri called directly, with its
    optimal workspace.  It costs about half of lu_apply(factor, I): 0.21 ms
    against 0.40 ms at n = 114 on one BLAS thread of a 2-vCPU VM."""
    lu, piv = factor
    lwork, _ = scipy.linalg.lapack.dgetri_lwork(len(lu))
    inv, info = scipy.linalg.lapack.dgetri(lu, piv, lwork=int(lwork))
    if info > 0:
        raise SingularMatrix(f"getri: U[{info - 1}, {info - 1}] is exactly zero")
    if info < 0:
        raise ValueError(f"getri: illegal value in argument {-info}")
    return inv


def least_squares(A, b):
    """Minimum-residual solution of an overdetermined full-rank system."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    s = scipy.linalg.svdvals(A)
    if s.size == 0 or s[-1] <= TOL.lstsq_rank * s[0]:
        raise RankDeficient(
            f"numerical rank below {A.shape[1]} at tolerance {TOL.lstsq_rank:.0e}*||A||"
        )
    x, *_ = scipy.linalg.lstsq(A, b, check_finite=False)
    return x


# rank decisions treat matrices whose largest entry is below this floor as
# zero; all functional/coefficient rows in this package are O(1)-scaled
RANK_ABS_FLOOR = 1e-13


def nullspace(A):
    """Orthonormal rows spanning the kernel of A (numerical, via SVD)."""
    A = np.asarray(A, dtype=float)
    if A.size == 0 or A.shape[0] == 0:
        return np.eye(A.shape[1] if A.ndim == 2 else 0)
    if np.abs(A).max() <= RANK_ABS_FLOOR:
        return np.eye(A.shape[1])
    _, s, vt = np.linalg.svd(A, full_matrices=True)
    rank = int(np.sum(s > TOL.rank * s[0]))
    return vt[rank:]


def row_rank(A):
    A = np.asarray(A, dtype=float)
    if A.size == 0 or np.abs(A).max() <= RANK_ABS_FLOOR:
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    return int(np.sum(s > TOL.rank * s[0]))


def independent_rows(A):
    """Indices of a maximal independent subset of rows (pivoted QR)."""
    A = np.asarray(A, dtype=float)
    if A.shape[0] == 0 or np.abs(A).max() <= RANK_ABS_FLOOR:
        return np.array([], dtype=np.int64)
    _, R, piv = scipy.linalg.qr(A.T, pivoting=True, mode="economic")
    d = np.abs(np.diag(R))
    rank = int(np.sum(d > TOL.rank * d[0]))
    return np.sort(piv[:rank])


def solve_sparse(K, b):
    """Direct sparse LU solve (falls back to dense below 800 unknowns).

    Solves the H(div) Gram system of the best approximation in
    stability_lab.best_approximation_errors, and is the monolithic oracle
    the tests check assembly.solve_saddle against; the saddle-point system
    itself is solved by assembly.solve_saddle.
    """
    b = np.asarray(b, dtype=float)
    if sp.issparse(K):
        n = K.shape[0]
        if n < 800:
            return lu_solve(K.toarray(), b)
        return spla.splu(K.tocsc()).solve(b)
    return lu_solve(K, b)


def spd_factor(S):
    """Sparse factorization handle of a symmetric positive definite matrix.

    SuperLU with diagonal pivots in a minimum-degree ordering of S + S^T, so
    the factor keeps the symmetric fill of a Cholesky factor; apply it with
    its .solve method.
    """
    try:
        return spla.splu(sp.csc_matrix(S), permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SingularMatrix(f"sparse factorization failed: {exc}") from exc


def pcg(matvec, b, precond, rtol, maxiter):
    """x with ||b - A x|| < rtol ||b|| by conjugate gradients from x = 0, for
    matvec(x) = A x with A symmetric positive definite and precond(r) ~
    A^{-1} r symmetric positive definite too (scipy's cg, whose test uses
    its updated residual).  Raises NoConvergence after maxiter iterations."""
    n = len(b)
    A, M = (spla.LinearOperator((n, n), matvec=fn, dtype=float) for fn in (matvec, precond))
    x, info = spla.cg(A, b, rtol=rtol, atol=0.0, maxiter=maxiter, M=M)
    if info:
        raise NoConvergence(f"PCG did not reach {rtol:.0e} relative in {maxiter} iterations")
    return x


def sym_eig_min(solve, M):
    """Smallest eigenpair of A x = lam M x, A symmetric, M SPD, from solve(g)
    = A^{-1} g alone; x^T M x = 1.

    Lanczos in ARPACK's shift-invert mode at sigma = 0 finds the largest
    eigenvalue nu = 1/lam of solve(M .).  When solve maps onto a subspace V
    (a constrained inverse), the directions M-orthogonal to V have nu = 0,
    so lam is the smallest eigenvalue of the pencil restricted to V.  The
    start vector and any restart are drawn from a generator seeded afresh
    with 0 on every call, so equal input gives bit-identical output.
    """
    n = M.shape[0]
    op = spla.LinearOperator((n, n), matvec=solve, dtype=float)
    rng = np.random.default_rng(0)
    # in shift-invert mode eigsh reads only the shape and type of its A
    w, v = spla.eigsh(op, k=1, M=M, sigma=0.0, OPinv=op,
                      v0=rng.uniform(-1.0, 1.0, n), rng=rng)
    return float(w[0]), v[:, 0]
