"""The coefficient primitives every reference space is built from, checked
against their definitions by evaluation at random points."""

import numpy as np
import pytest

from afw3d import interp, monomials as mo, polyspace as ps, reftet
from afw3d.mesh import (_EDGE_VERTS, _FACE_VERTS, OrderMap, _subsimplices, refine_uniform,
                        unit_cube_mesh)


@pytest.fixture
def pts(rng):
    return rng.random((7, 3))


def _monomial_values(dim, deg, pts):
    return mo.evaluate(np.eye(mo.count(dim, deg)), dim, deg, pts[:, :dim])   # (n, q)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_coordinate_rows_are_the_coordinates(dim, pts):
    assert np.array_equal(mo.exponents(dim, 1)[mo.coordinate_index(dim)], np.eye(dim))
    vals = mo.evaluate(ps._coordinate_rows(dim), dim, 1, pts[:, :dim])
    np.testing.assert_array_equal(vals, pts[:, :dim].T)


@pytest.mark.parametrize("ncomp, dim, deg, target", [(1, 3, 2, 2), (2, 2, 1, 2), (3, 3, 2, 3),
                                                     (9, 3, 1, 1), (3, 3, 0, 2)])
def test_component_frame_is_e_c_times_monomial(ncomp, dim, deg, target, pts):
    frame = ps._component_frame(ncomp, dim, deg, target)
    V = _monomial_values(dim, deg, pts)
    want = np.einsum("ce,kq->ckeq", np.eye(ncomp), V).reshape(-1, ncomp, len(pts))
    np.testing.assert_allclose(mo.evaluate(frame, dim, target, pts[:, :dim]), want, atol=1e-14)


@pytest.mark.parametrize("dim, deg", [(2, 0), (2, 3), (3, 1), (3, 3)])
def test_times_coordinates_is_x_times_monomial(dim, deg, pts):
    X = ps._times_coordinates(dim, deg)
    want = _monomial_values(dim, deg, pts)[:, None, :] * pts[:, :dim].T
    np.testing.assert_allclose(mo.evaluate(X, dim, deg + 1, pts[:, :dim]), want, atol=1e-14)


@pytest.mark.parametrize("deg", [0, 1, 3])
def test_cross_position_vectors_against_np_cross(deg, pts):
    n = mo.count(3, deg)
    vals = mo.evaluate(ps._cross_position_vectors(deg), 3, deg + 1, pts).reshape(3, n, 3, len(pts))
    x_cross_e = np.cross(pts[None], np.eye(3)[:, None])                  # (i, q, c): x ^ e_i
    want = np.einsum("kq,iqc->ikcq", _monomial_values(3, deg, pts), x_cross_e)
    np.testing.assert_allclose(vals, want, atol=1e-14)


def test_to_matrix_rows_puts_the_field_in_one_row(pts):
    vec = ps.basis_variable("lambda2", ps.RefOrders(2, (2, 1, 2, 0), (0, 0, 1, 0, 2, 1)))
    mat = ps.to_matrix_rows(vec)
    assert (mat.tag, mat.ncomp, mat.deg, mat.orders) == (vec.tag + "_mat", 9, vec.deg, vec.orders)
    v = mo.evaluate(vec.coeffs, 3, vec.deg, pts)                          # (nb, 3, q)
    want = np.einsum("ia,kjq->ikajq", np.eye(3), v).reshape(3 * vec.dim, 9, len(pts))
    np.testing.assert_allclose(mo.evaluate(mat.coeffs, 3, mat.deg, pts), want, atol=1e-14)


@pytest.mark.parametrize("matrix", [False, True])
def test_traces_are_field_components_on_the_subsimplex(matrix, rng):
    deg = 2
    field = ps.basis_full("lambda2", deg)
    if matrix:
        field = ps.to_matrix_rows(field)
    rows = (3, 3) if matrix else (3,)

    def values(x):
        return mo.evaluate(field.coeffs, 3, deg, x).reshape((field.dim,) + rows + (len(x),))

    bary = rng.dirichlet(np.ones(3), size=6)
    for f, frame in enumerate(ps.REF_FACE_FRAMES):
        x = bary @ reftet.VERTICES[list(reftet.FACE_VERTS[f])]
        y = frame.to_y(x)
        tangents = np.vstack([frame.t1, frame.t2])
        np.testing.assert_allclose(mo.evaluate(ps.trace(field, deg, f, "normal"), 2, deg, y),
                                   np.einsum("c,...cq->...q", frame.normal, values(x)), atol=1e-13)
        np.testing.assert_allclose(mo.evaluate(ps.trace(field, deg, f, "tangential-face"), 2, deg, y),
                                   np.einsum("ac,...cq->...aq", tangents, values(x)), atol=1e-13)
    s = rng.random(5)
    for e, frame in enumerate(ps.REF_EDGE_FRAMES):
        x = frame.origin + np.outer(s * frame.length, frame.tangent)
        tr = ps.trace(field, deg, e, "tangential-edge")
        np.testing.assert_allclose(mo.evaluate(tr, 1, deg, (s * frame.length)[:, None]),
                                   np.einsum("c,...cq->...q", frame.tangent, values(x)), atol=1e-13)
    with pytest.raises(ValueError):
        ps.trace(field, deg, 0, "radial")


def test_substitution_matrix_composes_with_the_affine_map(rng):
    deg, L, b = 3, rng.standard_normal((3, 2)), rng.standard_normal(3)
    p = rng.standard_normal(mo.count(3, deg))
    y = rng.random((6, 2))
    np.testing.assert_allclose(mo.evaluate(p @ mo.substitution_matrix(3, deg, L, b), 2, deg, y),
                               mo.evaluate(p, 3, deg, b + y @ L.T), rtol=1e-12, atol=1e-12)


def test_face_perms_against_argsort_per_face():
    mesh = refine_uniform(unit_cube_mesh(1))
    ws = interp.Workspace(mesh, OrderMap.uniform(mesh, 1))
    want = [[np.argsort(mesh.tets[t][list(fv)]) for fv in reftet.FACE_VERTS]
            for t in range(mesh.n_tets)]
    np.testing.assert_array_equal(ws.face_perms, want)


def test_subsimplices_against_np_unique(rng):
    tets = np.array([rng.choice(12, 4, replace=False) for _ in range(40)])
    for local in (_FACE_VERTS, _EDGE_VERTS):
        rows = np.sort(tets[:, local], axis=2).reshape(-1, local.shape[1])
        table, ids = np.unique(rows, axis=0, return_inverse=True)
        got_table, got_ids = _subsimplices(tets, local)
        np.testing.assert_array_equal(got_table, table)
        np.testing.assert_array_equal(got_ids, ids.reshape(len(tets), -1))
