import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afw3d import mesh as msh
from afw3d.mesh import (
    DegenerateTet,
    NonManifoldFace,
    OrderMap,
    affine_of,
    build_complex,
    read_mesh,
    refine_uniform,
    unit_cube_mesh,
    validate_order_map,
    write_mesh,
)
from afw3d.reftet import VERTICES


def test_single_reference_tet():
    m = build_complex(VERTICES, [[0, 1, 2, 3]])
    assert (m.n_vertices, m.n_edges, m.n_faces, m.n_tets) == (4, 6, 4, 1)


def test_cube1_counts(cube1):
    m = cube1
    assert (m.n_vertices, m.n_edges, m.n_faces, m.n_tets) == (8, 19, 18, 6)
    assert m.n_vertices - m.n_edges + m.n_faces - m.n_tets == 1


def test_two_tets_one_interior_face(two_tets):
    assert int((~two_tets.boundary_face).sum()) == 1


def test_degenerate_tet_rejected():
    verts = np.vstack([VERTICES[:3], VERTICES[0] + 1e-16])
    with pytest.raises(DegenerateTet):
        build_complex(verts, [[0, 1, 2, 3]])


def test_nonmanifold_face_rejected():
    verts = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, -1], [1, 1, 1.0]]
    )
    tets = [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]]
    with pytest.raises(NonManifoldFace):
        build_complex(verts, tets)


def test_cube_n2(cube2):
    assert cube2.n_tets == 48
    vols = [affine_of(cube2, t).det / 6.0 for t in range(48)]
    assert all(v > 0 for v in vols)
    assert abs(sum(vols) - 1.0) < 1e-14


def test_positively_oriented(cube2):
    for t in range(cube2.n_tets):
        assert affine_of(cube2, t).det > 0


def test_affine_reference_identity():
    m = build_complex(VERTICES, [[0, 1, 2, 3]])
    am = affine_of(m, 0)
    assert np.allclose(am.A, np.eye(3)) and np.allclose(am.b, 0)


def test_affine_scaled():
    m = build_complex(2 * VERTICES, [[0, 1, 2, 3]])
    am = affine_of(m, 0)
    assert np.allclose(am.A, 2 * np.eye(3))
    assert abs(am.det - 8) < 1e-14


def test_affine_maps_vertices(rng, single_tet):
    am = affine_of(single_tet, 0)
    mapped = am.apply(VERTICES)
    assert np.abs(mapped - single_tet.tet_vertices(0)).max() < 1e-14


def test_refinement_volume_and_count(single_tet):
    fine = refine_uniform(single_tet)
    assert fine.n_tets == 8
    v0 = affine_of(single_tet, 0).det / 6
    assert abs(sum(affine_of(fine, t).det / 6 for t in range(8)) - v0) < 1e-13 * v0


def test_refinement_cube(cube1):
    assert refine_uniform(cube1).n_tets == 48


def test_refinement_shape_regularity(single_tet):
    m = single_tet
    ratios = []
    for _ in range(3):
        m = refine_uniform(m)
        ratios.append(max(affine_of(m, t).h / affine_of(m, t).rho for t in range(m.n_tets)))
    # ratio settles after the first level
    assert abs(ratios[1] - ratios[2]) < 1e-9 * ratios[1]


def test_refinement_deterministic(cube1):
    a = refine_uniform(cube1)
    b = refine_uniform(cube1)
    assert np.array_equal(a.tets, b.tets)
    assert np.array_equal(a.faces, b.faces)


def test_interior_face_opposite_signs(cube2):
    m = cube2
    for fid in range(m.n_faces):
        tets = m.face_tets[fid]
        if len(tets) != 2:
            continue
        signs = []
        for t in tets:
            lf = list(m.tet_faces[t]).index(fid)
            signs.append(m.tet_face_sign[t, lf])
        assert signs[0] * signs[1] == -1


def test_order_map_uniform_ok(cube1):
    om = OrderMap.uniform(cube1, 2)
    assert validate_order_map(cube1, om) == []


def test_order_map_violation(cube1):
    om = OrderMap.uniform(cube1, 1)
    bad = OrderMap(om.tet_orders, om.face_orders + 1, om.edge_orders)
    report = validate_order_map(cube1, bad)
    assert report and report[0][0] == "face>tet"


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_min_rule_always_monotone(seed):
    m = unit_cube_mesh(1)
    om = OrderMap.random(m, 0, 3, seed)
    assert validate_order_map(m, om) == []


def test_mesh_file_roundtrip(tmp_path, single_tet):
    path = tmp_path / "m.txt"
    orders = np.array([2])
    write_mesh(path, single_tet, orders)
    m2, o2 = read_mesh(path)
    assert np.array_equal(m2.vertices, single_tet.vertices)
    assert np.array_equal(m2.tets, single_tet.tets)
    assert np.array_equal(o2, orders)
    # byte-exact rewrite
    path2 = tmp_path / "m2.txt"
    write_mesh(path2, m2, o2)
    assert path.read_bytes() == path2.read_bytes()


def test_mesh_file_rejects_garbage(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("not a mesh\n")
    with pytest.raises(ValueError):
        read_mesh(p)


def test_truncated_mesh_file_names_the_missing_lines(tmp_path):
    p = tmp_path / "short.txt"
    p.write_text("afw3d-mesh v1\n4\n0.0 0.0 0.0\n1.0 0.0 0.0\n")
    with pytest.raises(ValueError, match="expected 4 vertex lines, found 2"):
        read_mesh(p)


def test_affine_stack_matches_the_per_tet_maps(cube1, rng):
    aff = cube1.affine
    tets = np.array([4, 0, 2])
    xhat = rng.random((5, 3))
    x = aff.apply(tets, xhat)
    for i, t in enumerate(tets):
        amap = cube1.amaps[t]
        assert np.array_equal(aff.A[t], amap.A) and np.array_equal(aff.A_inv[t], amap.A_inv)
        assert np.array_equal(aff.b[t], amap.b) and aff.det[t] == amap.det
        assert np.allclose(x[i], amap.apply(xhat), atol=1e-15)
    assert np.allclose(aff.pull(tets, x), xhat[None], atol=1e-14)


@pytest.fixture
def vertex_difference_affine(monkeypatch):
    """mesh -> the AffineStack of a fresh copy of mesh with A = p_j - p_0, the
    rule for meshes off a lattice."""
    def build(mesh):
        with monkeypatch.context() as patch:
            patch.setattr(msh, "_lattice", lambda vertices: None)
            return dataclasses.replace(mesh).affine
    return build


@pytest.mark.parametrize("n", [3, 5])
def test_cube_jacobians_are_integer_offsets_over_n(n, vertex_difference_affine):
    mesh = unit_cube_mesh(n)
    aff, diff = mesh.affine, vertex_difference_affine(mesh)
    k = np.rint(mesh.vertices * n).astype(np.int64)[mesh.tets]
    assert np.array_equal(aff.A, np.swapaxes(k[:, 1:] - k[:, :1], 1, 2) / n)
    assert not np.array_equal(aff.A, diff.A)
    assert np.abs(aff.A - diff.A).max() <= np.spacing(1.0) / 2     # one rounding of a coordinate
    assert len(np.unique(aff.A.reshape(-1, 9), axis=0)) == 6       # one A per congruence type
    for name in ("b", "h", "rho"):
        assert np.array_equal(getattr(aff, name), getattr(diff, name))


@pytest.mark.parametrize("build", [
    lambda: unit_cube_mesh(1), lambda: unit_cube_mesh(2), lambda: unit_cube_mesh(4),
    lambda: refine_uniform(refine_uniform(unit_cube_mesh(1))),
], ids=["cube1", "cube2", "cube4", "nested2"])
def test_dyadic_meshes_keep_the_vertex_difference_bits(build, vertex_difference_affine):
    mesh = build()
    aff, want = mesh.affine, vertex_difference_affine(mesh)
    for f in dataclasses.fields(aff):
        assert np.array_equal(getattr(aff, f.name), getattr(want, f.name))


def test_a_vertex_off_the_lattice_keeps_the_vertex_differences(vertex_difference_affine):
    cube = unit_cube_mesh(3)
    vertices = cube.vertices.copy()
    vertices[21, 0] += 1e-3                      # the interior vertex (1/3, 1/3, 1/3)
    mesh = build_complex(vertices, cube.tets)
    aff, want = mesh.affine, vertex_difference_affine(mesh)
    for f in dataclasses.fields(aff):
        assert np.array_equal(getattr(aff, f.name), getattr(want, f.name))
    assert not np.array_equal(aff.A, cube.affine.A)


def test_a_cube_read_back_from_its_file_keeps_its_lattice_jacobians(tmp_path):
    cube = unit_cube_mesh(3)
    write_mesh(tmp_path / "cube3.txt", cube)
    mesh, _ = read_mesh(tmp_path / "cube3.txt")
    assert np.array_equal(mesh.affine.A, cube.affine.A)
