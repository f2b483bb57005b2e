"""The mesh tables against brute-force definitions and recorded fingerprints."""

import hashlib

import numpy as np
import pytest

from afw3d import reftet
from afw3d.interp import Workspace
from afw3d.mesh import (
    DegenerateTet,
    NonManifoldFace,
    OrderMap,
    build_complex,
    refine_uniform,
    unit_cube_mesh,
)

TABLES = (("vertices", "<f8"), ("tets", "<i8"), ("faces", "<i8"), ("edges", "<i8"),
          ("tet_faces", "<i8"), ("tet_edges", "<i8"), ("face_edges", "<i8"),
          ("face_tets", "<i8"), ("tet_face_sign", "<i8"), ("boundary_face", "|b1"))


def fingerprint(mesh):
    """SHA-256 of every incidence table of mesh, with its name and shape."""
    h = hashlib.sha256()
    for name, dtype in TABLES:
        table = getattr(mesh, name)
        if name == "face_tets":         # one row per face, -1 where it has one tet
            table = [ts + (-1,) * (2 - len(ts)) for ts in table]
        table = np.ascontiguousarray(table, dtype=dtype)
        h.update(f"{name} {table.shape}".encode())
        h.update(table.tobytes())
    return h.hexdigest()


def nested(levels):
    """Cube n=1 refined levels times, with its orders 0..2 (seed 1) inherited."""
    mesh = unit_cube_mesh(1)
    tet_orders = OrderMap.random(mesh, 0, 2, seed=1).tet_orders
    for _ in range(levels):
        mesh, tet_orders = refine_uniform(mesh), np.repeat(tet_orders, 8)
    return mesh, OrderMap.from_tet_orders(mesh, tet_orders)


# Recorded from the earlier per-tet construction of the tables.  The vertices
# are exact (i / n and midpoints), so the hashes do not depend on BLAS.
@pytest.mark.parametrize("build, digest", [
    (lambda: unit_cube_mesh(3),
     "ba6b0837e3a753d53a3aab4f812d0354fd4fa0337b22133f129193b2b25a0ca0"),
    (lambda: nested(2)[0],
     "12f8ea2cd63586a9f1d9720b47a1e7532c00e600b55bd4ac22d8a4b634833fb7"),
], ids=["cube3", "nested2"])
def test_tables_match_recorded_fingerprints(build, digest):
    assert fingerprint(build()) == digest


def test_refined_order_map_repeats_the_parent_orders():
    coarse, orders = nested(1)
    fine = refine_uniform(coarse)
    # locate each child by its centroid in barycentric coordinates of every parent
    centroids = fine.vertices[fine.tets].mean(axis=1)
    xhat = coarse.affine.pull(np.arange(coarse.n_tets),
                              np.broadcast_to(centroids, (coarse.n_tets,) + centroids.shape))
    bary = np.concatenate([1.0 - xhat.sum(axis=2, keepdims=True), xhat], axis=2)
    inside = np.all(bary > 1e-12, axis=2)                          # (parent, child)
    assert np.array_equal(inside.sum(axis=0), np.ones(fine.n_tets))
    parent = np.argmax(inside, axis=0)
    assert np.array_equal(parent, np.repeat(np.arange(coarse.n_tets), 8))
    inherited = OrderMap.from_tet_orders(fine, orders.tet_orders[parent])
    repeated = OrderMap.from_tet_orders(fine, np.repeat(orders.tet_orders, 8))
    for name in ("tet_orders", "face_orders", "edge_orders"):
        assert np.array_equal(getattr(inherited, name), getattr(repeated, name))


@pytest.mark.parametrize("name", ["single_tet", "two_tets", "cube1"])
def test_refinement_numbers_midpoints_by_edge_id(request, name):
    mesh = request.getfixturevalue(name)
    fine = refine_uniform(mesh)
    V, T = mesh.n_vertices, mesh.n_tets
    assert np.array_equal(fine.vertices[:V], mesh.vertices)
    ev = np.array(reftet.EDGE_VERTS)
    ends = mesh.vertices[mesh.tets[:, ev]]                          # (T, 6, 2, 3)
    assert np.array_equal(fine.vertices[V + mesh.tet_edges], 0.5 * (ends[:, :, 0] + ends[:, :, 1]))
    corners = fine.tets.reshape(T, 8, 4)[:, :4]                     # children 8t..8t+3
    assert np.all(np.any(corners == mesh.tets[:, :, None], axis=2))


@pytest.mark.parametrize("levels", [0, 1])
def test_min_rule_matches_brute_force(levels, rng):
    mesh = nested(levels)[0] if levels else unit_cube_mesh(2)
    tet_orders = rng.integers(0, 4, size=mesh.n_tets)
    om = OrderMap.from_tet_orders(mesh, tet_orders)
    faces = [min(tet_orders[list(ts)]) for ts in mesh.face_tets]
    holds = [np.any(mesh.tets == a, axis=1) & np.any(mesh.tets == b, axis=1) for a, b in mesh.edges]
    assert np.array_equal(om.face_orders, faces)
    assert np.array_equal(om.edge_orders, [tet_orders[h].min() for h in holds])


def test_workspace_census_matches_per_tet_signatures():
    mesh, om = nested(1)
    ws = Workspace(mesh, om)
    sigs = [om.ref_orders(mesh, t) for t in range(mesh.n_tets)]
    assert all(ws.ref_orders(t) == ro for t, ro in enumerate(sigs))
    assert list(ws.signature_groups) == list(dict.fromkeys(sigs))
    for ro, tets in ws.signature_groups.items():
        assert np.array_equal(tets, [t for t, s in enumerate(sigs) if s == ro])


def test_input_errors_name_the_first_bad_tet_and_face():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                      [2, 0, 0], [1, 1, 1], [0, 0, -1.0]])
    with pytest.raises(DegenerateTet, match="tet 1 has volume 0.000e"):
        build_complex(verts, [[0, 1, 2, 3], [0, 1, 4, 4], [0, 1, 4, 2]])
    with pytest.raises(NonManifoldFace, match="face 0 belongs to 3 tets"):
        build_complex(verts, [[0, 1, 2, 3], [0, 1, 2, 5], [0, 1, 2, 6]])
    with pytest.raises(ValueError, match="vertex that does not exist"):
        build_complex(verts, [[0, 1, 2, 7]])
