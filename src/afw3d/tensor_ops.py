"""3x3 matrix algebra for the mixed elasticity system.

The two algebraic maps: s2 extracts (twice) the axial vector of the skew
part, s1 is transpose-minus-trace; both are used to impose stress symmetry
weakly.  The compliance operator inverts the isotropic Hooke law and is
extended to skew matrices so it stays positive definite on all of M.
"""

from dataclasses import dataclass

import numpy as np


class NotAntisymmetric(Exception):
    pass


@dataclass(frozen=True)
class Material:
    """Isotropic material with Lame parameters (lambda, mu)."""

    lame_lambda: float
    lame_mu: float

    def __post_init__(self):
        if not (np.isfinite(self.lame_lambda) and np.isfinite(self.lame_mu)):
            raise ValueError("Lame parameters must be finite")
        if not self.lame_mu > 0:
            raise ValueError("mu must be positive")
        if not 3 * self.lame_lambda + 2 * self.lame_mu > 0:
            raise ValueError("3*lambda + 2*mu must be positive")

    @property
    def compliance_lower_bound(self):
        """min eigenvalue of the compliance map on M."""
        lam, mu = self.lame_lambda, self.lame_mu
        return min(1.0 / (2 * mu), 1.0 / (2 * mu + 3 * lam))


def antisym_of_vec(v):
    """The skew matrix whose image under vec_of_antisym is v."""
    v1, v2, v3 = np.asarray(v, dtype=float)
    return np.array([[0.0, -v3, v2], [v3, 0.0, -v1], [-v2, v1, 0.0]])


def vec_of_antisym(K):
    """Axial vector (v1, v2, v3) of a skew matrix."""
    K = np.asarray(K, dtype=float)
    scale = max(1.0, np.abs(K).max())
    if np.abs(K + K.T).max() > 1e-12 * scale:
        raise NotAntisymmetric("matrix is not antisymmetric within 1e-12")
    return np.array([K[2, 1], K[0, 2], K[1, 0]])


def s2(U):
    """(u23 - u32, u31 - u13, u12 - u21); kills symmetric matrices."""
    U = np.asarray(U, dtype=float)
    return np.array(
        [U[1, 2] - U[2, 1], U[2, 0] - U[0, 2], U[0, 1] - U[1, 0]]
    )


def s1(W):
    """Transpose minus trace: W^T - tr(W) I."""
    W = np.asarray(W, dtype=float)
    return W.T - np.trace(W) * np.eye(3)


def s1_inv(W):
    """Inverse of s1: W^T - tr(W)/2 I."""
    W = np.asarray(W, dtype=float)
    return W.T - 0.5 * np.trace(W) * np.eye(3)


def compliance_apply(material, sigma):
    """Strain produced by a stress: (1/2mu) sigma - c tr(sigma) I.

    Inverts sigma = 2 mu eps + lambda tr(eps) I on symmetric matrices and
    acts as (1/2mu) identity on the skew part.
    """
    sigma = np.asarray(sigma, dtype=float)
    lam, mu = material.lame_lambda, material.lame_mu
    c = lam / (2 * mu * (2 * mu + 3 * lam))
    return sigma / (2 * mu) - c * np.trace(sigma) * np.eye(3)


def stress_of_strain(material, eps):
    """Isotropic Hooke law: 2 mu eps + lambda tr(eps) I."""
    eps = np.asarray(eps, dtype=float)
    lam, mu = material.lame_lambda, material.lame_mu
    return 2 * mu * eps + lam * np.trace(eps) * np.eye(3)


# component matrices of the linear maps, acting on row-major flattened
# 3x3 fields: (op @ flat(W)) = flat(op(W)); used on polynomial coefficients
def _build_s1_matrix():
    M = np.zeros((9, 9))
    for i in range(3):
        for j in range(3):
            M[3 * i + j, 3 * j + i] += 1.0
    for i in range(3):
        for k in range(3):
            M[3 * i + i, 3 * k + k] -= 1.0
    return M


def _build_s2_matrix():
    M = np.zeros((3, 9))
    M[0, 3 * 1 + 2] = 1.0
    M[0, 3 * 2 + 1] = -1.0
    M[1, 3 * 2 + 0] = 1.0
    M[1, 3 * 0 + 2] = -1.0
    M[2, 3 * 0 + 1] = 1.0
    M[2, 3 * 1 + 0] = -1.0
    return M


S1_MATRIX = _build_s1_matrix()
S2_MATRIX = _build_s2_matrix()
