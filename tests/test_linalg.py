import numpy as np
import pytest
import scipy.linalg

from afw3d import linalg


def test_lu_identity():
    assert np.allclose(linalg.lu_solve(np.eye(3), np.array([1.0, 2, 3])), [1, 2, 3])


def test_lu_diagonal():
    x = linalg.lu_solve(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
    assert np.allclose(x, [1.0, 1.0])


def test_lu_random_recovery(rng):
    # derived oracle: build b from a known solution
    A = rng.standard_normal((20, 20)) + 5 * np.eye(20)
    x_star = rng.standard_normal(20)
    x = linalg.lu_solve(A, A @ x_star)
    assert np.abs(x - x_star).max() < 1e-9


def test_lu_residual_contract(rng):
    for _ in range(5):
        A = rng.standard_normal((15, 15)) + 4 * np.eye(15)
        b = rng.standard_normal(15)
        x = linalg.lu_solve(A, b)
        assert np.abs(A @ x - b).max() <= 1e-10 * (1 + np.abs(b).max())


def test_lu_apply_is_bit_identical_to_scipy_lu_solve():
    rng = np.random.default_rng(0)      # own stream: the session rng feeds later tests
    for n in (60, 120):
        factor = linalg.lu_factor(rng.standard_normal((n, n)))
        for b in (rng.standard_normal(n), rng.standard_normal((n, 7)),
                  np.asfortranarray(rng.standard_normal((n, 7)))):
            want = scipy.linalg.lu_solve(factor, b, check_finite=False)
            assert np.array_equal(linalg.lu_apply(factor, b), want)


def test_lu_inverse_matches_numpy_inv():
    rng = np.random.default_rng(1)      # own stream: the session rng feeds later tests
    for n in (60, 120):
        A = rng.standard_normal((n, n))
        want = np.linalg.inv(A)
        got = linalg.lu_inverse(linalg.lu_factor(A))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_lu_inverse_raises_on_a_zero_pivot():
    # a handle that lu_factor's pivot gate would refuse: getri reports info = 2
    lu = np.triu(np.ones((3, 3)))
    lu[1, 1] = 0.0
    with pytest.raises(linalg.SingularMatrix, match="getri"):
        linalg.lu_inverse((lu, np.arange(3, dtype=np.int32)))


def test_lu_singular_raises():
    with pytest.raises(linalg.SingularMatrix):
        linalg.lu_solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 1.0]))


def test_least_squares_mean():
    x = linalg.least_squares(np.array([[1.0], [1.0]]), np.array([0.0, 2.0]))
    assert np.allclose(x, [1.0])


def test_least_squares_matches_lu(rng):
    A = rng.standard_normal((8, 8)) + 4 * np.eye(8)
    b = rng.standard_normal(8)
    assert np.abs(linalg.least_squares(A, b) - linalg.lu_solve(A, b)).max() < 1e-10


def test_least_squares_normal_equations(rng):
    # derived oracle: the residual must be orthogonal to the column space
    A = rng.standard_normal((40, 10))
    b = rng.standard_normal(40)
    x = linalg.least_squares(A, b)
    assert np.abs(A.T @ (A @ x - b)).max() < 1e-8


def test_least_squares_rank_deficient():
    A = np.ones((5, 2))
    with pytest.raises(linalg.RankDeficient):
        linalg.least_squares(A, np.ones(5))


def _eig_min(A, B):
    return linalg.sym_eig_min(lambda g: linalg.lu_solve(A, g), B)


def test_eig_min_trivial():
    lam, _ = _eig_min(np.diag([1.0, 2, 3]), np.eye(3))
    assert abs(lam - 1.0) < 1e-10
    lam, _ = _eig_min(np.diag([4.0, 6.0]), np.diag([2.0, 2.0]))
    assert abs(lam - 2.0) < 1e-10


def test_eig_min_dense_oracle(rng):
    # derived oracle: full dense eigensolve of a random SPD pencil
    Q = rng.standard_normal((30, 30))
    A = Q @ Q.T + 0.1 * np.eye(30)
    R = rng.standard_normal((30, 30))
    B = R @ R.T + 0.5 * np.eye(30)
    lam, x = _eig_min(A, B)
    w = scipy.linalg.eigh(A, B, eigvals_only=True)
    assert abs(lam - w[0]) < 1e-7
    # residual contract
    assert np.linalg.norm(A @ x - lam * (B @ x)) <= 1e-8 * np.sqrt(x @ B @ x) * 1.01


def test_eig_min_below_rayleigh(rng):
    Q = rng.standard_normal((25, 25))
    A = Q @ Q.T + 0.2 * np.eye(25)
    B = np.eye(25)
    lam, _ = _eig_min(A, B)
    for _ in range(100):
        v = rng.standard_normal(25)
        assert lam <= (v @ A @ v) / (v @ v) + 1e-8


def test_nullspace_zero_matrix():
    Z = linalg.nullspace(np.zeros((4, 6)))
    assert Z.shape == (6, 6)


def test_nullspace_partial(rng):
    A = rng.standard_normal((3, 7))
    Z = linalg.nullspace(A)
    assert Z.shape == (4, 7)
    assert np.abs(A @ Z.T).max() < 1e-12
