"""Tetrahedral complexes with subsimplex tables and variable-order maps.

Meshes are immutable after construction.  Tets store their vertices in
ascending global order, except that the last two are swapped when needed
to keep the affine map orientation positive.  Face and edge ids are
assigned lexicographically over sorted vertex tuples, so they are
deterministic across runs.

Every table is built by array operations over all tets at once.  The faces
and edges are the distinct rows of the sorted vertex tuples of all tets
(np.unique orders them lexicographically); tet_faces and tet_edges are the
inverses.  The geometry is one AffineStack over all tets
(SimplicialMesh.affine), and the per-tet AffineMaps of amaps are views of
it.  Red refinement numbers the midpoint of edge e as vertex n_vertices + e.
"""

from dataclasses import dataclass, fields
from functools import cached_property
from itertools import permutations

import numpy as np

from . import reftet


class DegenerateTet(Exception):
    pass


class NonManifoldFace(Exception):
    pass


class NonMonotoneOrder(Exception):
    pass


@dataclass(frozen=True)
class AffineMap:
    """x = A xhat + b from the reference tet onto a physical tet."""

    A: np.ndarray
    b: np.ndarray
    det: float
    A_inv: np.ndarray
    h: float        # outer diameter (longest edge)
    rho: float      # inradius

    def apply(self, xhat):
        return np.atleast_2d(xhat) @ self.A.T + self.b

    def pull(self, x):
        return (np.atleast_2d(x) - self.b) @ self.A_inv.T


@dataclass(frozen=True)
class AffineStack:
    """The affine maps of all tets stacked: x = A[t] xhat + b[t]."""

    A: np.ndarray        # (T, 3, 3)
    A_inv: np.ndarray    # (T, 3, 3)
    b: np.ndarray        # (T, 3)
    det: np.ndarray      # (T,)
    h: np.ndarray        # (T,) longest edge
    rho: np.ndarray      # (T,) inradius

    def apply(self, tets, xhat):
        """(len(tets), m, 3): the reference points xhat (m, 3) mapped into each tet."""
        return xhat @ np.swapaxes(self.A[tets], 1, 2) + self.b[tets][:, None, :]

    def pull(self, tets, x):
        """(len(tets), m, 3): the physical points x[i] (m, 3) pulled back by the map of tets[i]."""
        return (x - self.b[tets][:, None, :]) @ np.swapaxes(self.A_inv[tets], 1, 2)

    def take(self, tets):
        """The maps of tets as a stack; for one tet id, its arrays as AffineMap has them."""
        return AffineStack(*(getattr(self, f.name)[tets] for f in fields(self)))


@dataclass(frozen=True)
class SimplicialMesh:
    vertices: np.ndarray          # (V, 3)
    tets: np.ndarray              # (T, 4) vertex ids, positively oriented
    faces: np.ndarray             # (F, 3) sorted vertex ids, lexicographic
    edges: np.ndarray             # (E, 2) sorted vertex ids, lexicographic
    tet_faces: np.ndarray         # (T, 4) global face id of local face i
    tet_edges: np.ndarray         # (T, 6) global edge id of local edge j
    face_edges: np.ndarray        # (F, 3) edge ids of each face
    face_tets: tuple              # per face: tuple of incident tet ids, ascending
    face_normal: np.ndarray       # (F, 3) unit normal of the frame on ascending vertex ids
    tet_face_sign: np.ndarray     # (T, 4): +1 outward normal = face_normal
    boundary_face: np.ndarray     # (F,) bool

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_tets(self):
        return len(self.tets)

    @property
    def n_faces(self):
        return len(self.faces)

    @property
    def n_edges(self):
        return len(self.edges)

    def tet_vertices(self, t):
        return self.vertices[self.tets[t]]

    @cached_property
    def amaps(self):
        """Per-tet AffineMap views of the arrays of affine, built on first use."""
        a = self.affine
        return tuple(AffineMap(A, b, float(det), A_inv, float(h), float(rho))
                     for A, b, det, A_inv, h, rho in zip(a.A, a.b, a.det, a.A_inv, a.h, a.rho))

    @cached_property
    def affine(self):
        """Affine maps of the reference tet onto all tets as one AffineStack,
        built once from vertices[tets]: A has the columns p1 - p0, p2 - p0,
        p3 - p0 and b = p0; rho = 3 |T| / (surface area).

        On a lattice, where every coordinate is fl(k/N) for integers k and one
        N, A is D / N from the integer edge offsets D instead (_lattice), so
        congruent tets get bit-equal A, det and A_inv, and so share one element
        class (assembly._class_table); p_j - p_0 of fl(1/3)-spaced vertices
        differ in the last bit between translates.  On dyadic coordinates
        (N a power of two) D / N equals p_j - p_0 bit for bit.  vertices, b, h
        and rho are those of the vertices either way."""
        p = self.vertices[self.tets]                            # (T, 4, 3)
        diff = np.ascontiguousarray(np.swapaxes(p[:, 1:] - p[:, :1], 1, 2))
        lattice = _lattice(self.vertices)
        if lattice is None:
            A = diff
        else:
            k, N = lattice
            kt = k[self.tets]                                   # (T, 4, 3) integer-valued
            A = np.ascontiguousarray(np.swapaxes(kt[:, 1:] - kt[:, :1], 1, 2)) / N
        det = np.linalg.det(A)
        edge = p[:, _EDGE_VERTS[:, 0]] - p[:, _EDGE_VERTS[:, 1]]
        q = p[:, _FACE_VERTS]                                   # (T, face, vertex, xyz)
        normals = np.cross(q[:, :, 1] - q[:, :, 0], q[:, :, 2] - q[:, :, 0])
        areas = np.sum(0.5 * np.linalg.norm(normals, axis=-1), axis=-1)
        return AffineStack(
            A=A,
            A_inv=np.linalg.inv(A),
            b=p[:, 0].copy(),
            det=det,
            h=np.linalg.norm(edge, axis=-1).max(axis=1),
            rho=3.0 * (np.abs(np.linalg.det(diff)) / 6.0) / areas,
        )

    @cached_property
    def face_frames(self):
        """Orthonormal frame of each global face (polyspace.make_face_frame), built once."""
        from .polyspace import make_face_frame

        return tuple(make_face_frame(self.vertices[f]) for f in self.faces)

    def h_max(self):
        return float(self.affine.h.max())


_FACE_VERTS = np.array(reftet.FACE_VERTS)
_EDGE_VERTS = np.array(reftet.EDGE_VERTS)


def _lattice(vertices):
    """(k, N): integer-valued k with vertices == k / N exactly, for N = rint(1 /
    the smallest nonzero |coordinate|), or None when the vertices are off that
    lattice or |k| reaches 2^52, from where differences of k could round."""
    nonzero = np.abs(vertices[vertices != 0])
    N = np.rint(1.0 / nonzero.min()) if nonzero.size and nonzero.min() >= 2.0**-52 else 0.0
    if N < 1:
        return None
    k = np.rint(vertices * N)
    if np.abs(k).max() >= 2.0**52 or not np.array_equal(k / N, vertices):
        return None
    return k, N


def _subsimplices(tets, local):
    """(table, ids): the distinct sorted vertex tuples of the local
    subsimplices local (k, m) of all tets, in lexicographic order, and the
    (T, k) row of each in the table."""
    rows = np.sort(tets[:, local], axis=2).reshape(-1, local.shape[1])
    order = np.lexsort(rows.T[::-1])              # the first column is the primary key
    rows = rows[order]
    start = np.ones(len(rows), dtype=bool)        # first of each run of equal rows
    start[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    ids = np.empty(len(rows), dtype=np.int64)
    ids[order] = np.cumsum(start) - 1
    return rows[start], ids.reshape(len(tets), -1)


def build_complex(vertices, tets):
    """Assemble the full incidence structure from vertices and tets."""
    vertices = np.asarray(vertices, dtype=float)
    tets = np.asarray(tets, dtype=np.int64)
    if tets.size and (tets.min() < 0 or tets.max() >= len(vertices)):
        raise ValueError("tet refers to a vertex that does not exist")

    tets = np.sort(tets, axis=1)
    h_ref = max(vertices.max() - vertices.min(), 1.0) if len(vertices) else 1.0
    p = vertices[tets]
    vol6 = np.linalg.det(p[:, 1:] - p[:, :1])
    bad = np.flatnonzero(np.abs(vol6) / 6.0 <= 1e-14 * h_ref**3)
    if len(bad):
        raise DegenerateTet(f"tet {bad[0]} has volume {abs(vol6[bad[0]]) / 6.0:.3e}")
    tets[vol6 < 0] = tets[vol6 < 0][:, [0, 1, 3, 2]]

    faces, tet_faces = _subsimplices(tets, _FACE_VERTS)
    edges, tet_edges = _subsimplices(tets, _EDGE_VERTS)
    counts = np.bincount(tet_faces.ravel(), minlength=len(faces))
    if np.any(counts > 2):
        fid = int(np.argmax(counts > 2))
        raise NonManifoldFace(f"face {fid} belongs to {counts[fid]} tets")
    # a stable sort by face keeps the tets of each face ascending
    incident = (np.argsort(tet_faces, axis=None, kind="stable") // 4).tolist()
    ends = np.cumsum(counts).tolist()

    # edges are lexicographic, so their keys a * V + b ascend
    key = edges[:, 0] * len(vertices) + edges[:, 1]
    face_edges = np.searchsorted(key, faces[:, [0, 0, 1]] * len(vertices) + faces[:, [1, 2, 2]])

    V = vertices[faces]
    n = np.cross(V[:, 1] - V[:, 0], V[:, 2] - V[:, 0])
    face_normal = n / np.linalg.norm(n, axis=-1, keepdims=True)
    outward = vertices[faces[tet_faces, 0]] - vertices[tets].mean(axis=1)[:, None]
    return SimplicialMesh(
        vertices=vertices,
        tets=tets,
        faces=faces,
        edges=edges,
        tet_faces=tet_faces,
        tet_edges=tet_edges,
        face_edges=face_edges,
        face_tets=tuple(tuple(incident[e - c:e]) for e, c in zip(ends, counts.tolist())),
        face_normal=face_normal,
        tet_face_sign=np.where(np.einsum("tfk,tfk->tf", face_normal[tet_faces], outward) > 0,
                               1, -1),
        boundary_face=counts == 1,
    )


def affine_of(mesh, tet_id):
    """Affine map of the reference tet onto tet tet_id."""
    return mesh.amaps[tet_id]


def unit_cube_mesh(n):
    """[0,1]^3 as n^3 cubes, each split into 6 tets around the diagonal."""
    if n < 1:
        raise ValueError("n must be >= 1")
    g = np.arange(n + 1) / n
    verts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    # vertex-path splitting: walk from the low corner to the high corner
    # one axis at a time; the 6 axis orders give the 6 tets
    stride = np.array([(n + 1) ** 2, n + 1, 1])
    paths = np.cumsum(np.pad(stride[list(permutations(range(3)))], ((0, 0), (1, 0))), axis=1)
    i = np.arange(n)
    corners = ((i[:, None, None] * (n + 1) + i[:, None]) * (n + 1) + i).ravel()
    return build_complex(verts, (corners[:, None, None] + paths).reshape(-1, 4))


# Red refinement of one tet, in its vertices 0-3 and the midpoints 4-9 of
# its local edges (reftet.EDGE_VERTS): the four corner children, then the
# four children around one diagonal of the inner octahedron.  Per diagonal
# (m01 m23, m02 m13, m03 m12): its ends, then the other four midpoints in
# ring order, so that consecutive ones share a face with the diagonal.
_CORNERS = ((0, 4, 5, 6), (1, 4, 7, 8), (2, 5, 7, 9), (3, 6, 8, 9))
_DIAGONALS = ((4, 9, 5, 6, 8, 7), (5, 8, 4, 6, 9, 7), (6, 7, 4, 5, 9, 8))
_RED = np.array([_CORNERS + tuple((d0, d1, ring[i], ring[(i + 1) % 4]) for i in range(4))
                 for d0, d1, *ring in _DIAGONALS])              # (diagonal, child, vertex)


def refine_uniform(mesh):
    """Red refinement: each tet into 8 children via edge midpoints.

    Children 8t..8t+7 are those of tet t, and child 8t+i holds vertex i of
    tet t for i < 4.  The inner octahedron is split along its shortest
    diagonal, which keeps the shape-regularity ratio bounded under repeated
    refinement.
    """
    verts, edges = mesh.vertices, mesh.edges
    all_verts = np.vstack([verts, 0.5 * (verts[edges[:, 0]] + verts[edges[:, 1]])])
    w = np.hstack([mesh.tets, mesh.n_vertices + mesh.tet_edges])   # (T, 10)
    x = all_verts[w]
    shortest = np.argmin(np.linalg.norm(x[:, [4, 5, 6]] - x[:, [9, 8, 7]], axis=-1), axis=1)
    children = w[np.arange(mesh.n_tets)[:, None, None], _RED[shortest]]
    return build_complex(all_verts, children.reshape(-1, 4))


@dataclass(frozen=True)
class OrderMap:
    """Polynomial order r for every tet, face and edge of a mesh."""

    tet_orders: np.ndarray
    face_orders: np.ndarray
    edge_orders: np.ndarray

    @staticmethod
    def uniform(mesh, r):
        if r < 0:
            raise ValueError("order must be nonnegative")
        return OrderMap(
            np.full(mesh.n_tets, r, dtype=np.int64),
            np.full(mesh.n_faces, r, dtype=np.int64),
            np.full(mesh.n_edges, r, dtype=np.int64),
        )

    @staticmethod
    def from_tet_orders(mesh, tet_orders):
        """Derive face/edge orders by the minimum rule (monotone)."""
        tet_orders = np.asarray(tet_orders, dtype=np.int64)
        if tet_orders.shape != (mesh.n_tets,):
            raise ValueError("need one order per tet")
        if tet_orders.min() < 0:
            raise ValueError("orders must be nonnegative")
        face_orders = np.full(mesh.n_faces, np.iinfo(np.int64).max)
        np.minimum.at(face_orders, mesh.tet_faces, tet_orders[:, None])
        edge_orders = np.full(mesh.n_edges, np.iinfo(np.int64).max)
        np.minimum.at(edge_orders, mesh.face_edges, face_orders[:, None])
        return OrderMap(tet_orders, face_orders, edge_orders)

    @staticmethod
    def random(mesh, lo, hi, seed):
        rng = np.random.default_rng(seed)
        return OrderMap.from_tet_orders(
            mesh, rng.integers(lo, hi + 1, size=mesh.n_tets)
        )

    def ref_orders(self, mesh, t):
        """Orders on the subsimplexes of tet t (see polyspace.RefOrders)."""
        from .polyspace import RefOrders

        return RefOrders(
            tet=int(self.tet_orders[t]),
            faces=tuple(int(self.face_orders[f]) for f in mesh.tet_faces[t]),
            edges=tuple(int(self.edge_orders[e]) for e in mesh.tet_edges[t]),
        )


def validate_order_map(mesh, orders):
    """Monotonicity report: list of (kind, sub_id, super_id, r_sub, r_super)."""
    violations = []
    for kind, subs, r_sub, r_super in (
        ("face>tet", mesh.tet_faces, orders.face_orders, orders.tet_orders),
        ("edge>face", mesh.face_edges, orders.edge_orders, orders.face_orders),
    ):
        sup, k = np.nonzero(r_sub[subs] > r_super[:, None])
        violations += [(kind, int(s), int(p), int(r_sub[s]), int(r_super[p]))
                       for s, p in zip(subs[sup, k], sup)]
    return violations


def write_mesh(path, mesh, tet_orders=None):
    """Plain-text format `afw3d-mesh v1`; round-trips bit-exactly."""
    lines = ["afw3d-mesh v1", str(mesh.n_vertices)]
    for v in mesh.vertices:
        lines.append(" ".join(repr(float(x)) for x in v))
    lines.append(str(mesh.n_tets))
    for t in mesh.tets:
        lines.append(" ".join(str(int(x)) for x in t))
    if tet_orders is not None:
        lines.append("orders")
        lines.append(" ".join(str(int(r)) for r in tet_orders))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_block(lines, pos, kind, width, parse):
    """Rows of the count-prefixed block at lines[pos], and the next position."""
    if pos >= len(lines):
        raise ValueError(f"file ends before the {kind} count")
    n = int(lines[pos])
    if n < 0:
        raise ValueError(f"{kind} count {n} is negative")
    body = lines[pos + 1 : pos + 1 + n]
    if len(body) < n:
        raise ValueError(f"expected {n} {kind} lines, found {len(body)}")
    rows = [[parse(x) for x in line.split()] for line in body]
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{kind} line {i + 1} has {len(row)} entries, expected {width}")
    return rows, pos + 1 + n


def read_mesh(path):
    """Inverse of write_mesh; returns (mesh, tet_orders or None)."""
    with open(path) as fh:
        lines = fh.read().rstrip("\n").split("\n")
    if lines[0].strip() != "afw3d-mesh v1":
        raise ValueError("not an afw3d-mesh v1 file")
    verts, pos = _read_block(lines, 1, "vertex", 3, float)
    bad = [i + 1 for i, row in enumerate(verts) if not np.all(np.isfinite(row))]
    if bad:
        raise ValueError(f"vertex line {bad[0]} has a coordinate that is not finite")
    tets, pos = _read_block(lines, pos, "tet", 4, int)
    if not tets:
        raise ValueError("the mesh has no tets")
    orders = None
    if pos < len(lines) and lines[pos].strip() == "orders":
        if pos + 1 >= len(lines):
            raise ValueError("file ends after the orders line")
        orders = np.array([int(x) for x in lines[pos + 1].split()], dtype=np.int64)
    return build_complex(np.array(verts).reshape(-1, 3),
                         np.array(tets, dtype=np.int64).reshape(-1, 4)), orders
