import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afw3d import monomials as mo, polyspace as ps, tensor_ops as to


def mat3(seed):
    return np.random.default_rng(seed).standard_normal((3, 3))


def test_vec_of_antisym_pattern():
    K = np.array([[0.0, -3, 2], [3, 0, -1], [-2, 1, 0]])
    assert np.allclose(to.vec_of_antisym(K), [1, 2, 3])
    assert np.allclose(to.vec_of_antisym(np.zeros((3, 3))), 0)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_vec_antisym_roundtrip(seed):
    v = np.random.default_rng(seed).standard_normal(3)
    assert np.array_equal(to.vec_of_antisym(to.antisym_of_vec(v)), v)


def test_vec_rejects_nonantisymmetric():
    with pytest.raises(to.NotAntisymmetric):
        to.vec_of_antisym(np.eye(3))


def test_s2_symmetric_kernel(rng):
    W = rng.standard_normal((3, 3))
    assert np.abs(to.s2(W + W.T)).max() == 0.0


def test_s2_antisym_and_single_entry():
    K = to.antisym_of_vec([1.0, 2.0, 3.0])
    # entrywise application of the defining formula
    expect = np.array([K[1, 2] - K[2, 1], K[2, 0] - K[0, 2], K[0, 1] - K[1, 0]])
    assert np.allclose(to.s2(K), expect)
    assert np.allclose(expect, [-2, -4, -6])
    U = np.outer([1, 0, 0], [0, 1, 0.0])  # only u12 = 1
    assert np.allclose(to.s2(U), [0, 0, 1])


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_s2_equals_axial_of_transpose_difference(seed):
    U = mat3(seed)
    assert np.abs(to.s2(U) - to.vec_of_antisym(U.T - U)).max() < 1e-14


def test_s1_trivial_cases():
    assert np.allclose(to.s1(np.eye(3)), -2 * np.eye(3))
    W = np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, 0]])  # traceless symmetric
    assert np.allclose(to.s1(W), W)
    E12 = np.outer([1, 0, 0], [0, 1, 0.0])
    assert np.allclose(to.s1(E12), E12.T)


def test_s1_inv_cases():
    assert np.allclose(to.s1_inv(-2 * np.eye(3)), np.eye(3))
    assert np.allclose(to.s1_inv(np.diag([2.0, 0, 0])), np.diag([1.0, -1, -1]))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_s1_inverse_identity(seed):
    W = mat3(seed)
    assert np.abs(to.s1_inv(to.s1(W)) - W).max() < 1e-14


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_s1_by_parts(seed):
    r = np.random.default_rng(seed)
    W, Q = r.standard_normal((2, 3, 3))
    assert abs(np.sum(to.s1(W) * Q) - np.sum(W * to.s1(Q))) < 1e-13


def test_differential_identity_poly(rng):
    # div s1 W + s2 curl W = 0 as exact polynomial coefficients
    for _ in range(20):
        W = rng.standard_normal((9, mo.count(3, 3)))
        s1W = to.S1_MATRIX @ W
        lhs = ps.differentiate(s1W, 3, "div") + to.S2_MATRIX @ ps.differentiate(W, 3, "curl")
        assert np.abs(lhs).max() < 1e-12


def test_compliance_identity_material():
    m = to.Material(0.0, 0.5)
    assert np.allclose(to.compliance_apply(m, np.eye(3)), np.eye(3))


def test_compliance_skew_rule(rng):
    m = to.Material(2.0, 1.5)
    K = to.antisym_of_vec(rng.standard_normal(3))
    assert np.allclose(to.compliance_apply(m, K), K / (2 * m.lame_mu))


def test_compliance_inverts_hooke(rng):
    m = to.Material(1.7, 0.9)
    for _ in range(10):
        E = rng.standard_normal((3, 3))
        eps = 0.5 * (E + E.T)
        sigma = to.stress_of_strain(m, eps)
        assert np.abs(to.compliance_apply(m, sigma) - eps).max() < 1e-13


def test_compliance_coercivity(rng):
    m = to.Material(3.0, 0.7)
    c = m.compliance_lower_bound
    for _ in range(100):
        S = rng.standard_normal((3, 3))
        lhs = np.sum(to.compliance_apply(m, S) * S)
        assert lhs >= c * np.sum(S * S) - 1e-12


def test_material_validation():
    with pytest.raises(ValueError):
        to.Material(1.0, 0.0)
    with pytest.raises(ValueError):
        to.Material(-1.0, 1.0)


@pytest.mark.parametrize("lam, mu", [(np.inf, 1.0), (1.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0)])
def test_material_rejects_values_that_are_not_finite(lam, mu):
    with pytest.raises(ValueError, match="finite"):
        to.Material(lam, mu)


def test_trace_lemma_quadrature(rng):
    # polynomial W with zero tangential traces on a face: s1(W).n vanishes
    from afw3d import linalg, quadrature

    deg, face = 3, 2
    full = np.eye(9 * mo.count(3, deg)).reshape(-1, 9, mo.count(3, deg))
    tr = ps.trace(full, deg, face, "tangential-face")
    combos = linalg.nullspace(tr.reshape(full.shape[0], -1).T)
    frame = ps.REF_FACE_FRAMES[face]
    rule = quadrature.rule_for(2, 8)
    y = rule.points @ (frame.yverts[1:] - frame.yverts[0]) + frame.yverts[0]
    pts = frame.to_x(y)
    for _ in range(10):
        w = combos.T @ rng.standard_normal(combos.shape[0])
        W = np.einsum("b,bcn->cn", w, full)
        s1W = (to.S1_MATRIX @ W).reshape(3, 3, -1)
        vals = mo.evaluate(s1W, 3, deg, pts)
        sn = np.einsum("ijq,j->iq", vals, frame.normal)
        assert np.abs(sn).max() < 1e-12 * max(1.0, np.abs(W).max())
