"""Tetrahedral complexes with subsimplex tables and variable-order maps.

Meshes are immutable after construction.  Tets store their vertices in
ascending global order, except that the last two are swapped when needed
to keep the affine map orientation positive.  Face and edge ids are
assigned lexicographically over sorted vertex tuples, so they are
deterministic across runs.
"""

from dataclasses import dataclass
from functools import cached_property

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

    def apply(self, tets, xhat):
        """(len(tets), m, 3): the reference points xhat (m, 3) mapped into each tet."""
        return xhat @ np.swapaxes(self.A[tets], 1, 2) + self.b[tets][:, None, :]

    def pull(self, tets, x):
        """(len(tets), m, 3): the physical points x[i] (m, 3) pulled back by the map of tets[i]."""
        return (x - self.b[tets][:, None, :]) @ np.swapaxes(self.A_inv[tets], 1, 2)

    def take(self, tets):
        """The maps of tets as a stack; for one tet id, its arrays as AffineMap has them."""
        return AffineStack(self.A[tets], self.A_inv[tets], self.b[tets], self.det[tets])


@dataclass(frozen=True)
class SimplicialMesh:
    vertices: np.ndarray          # (V, 3)
    tets: np.ndarray              # (T, 4) vertex ids, positively oriented
    faces: np.ndarray             # (F, 3) sorted vertex ids, lexicographic
    edges: np.ndarray             # (E, 2) sorted vertex ids, lexicographic
    tet_faces: np.ndarray         # (T, 4) global face id of local face i
    tet_edges: np.ndarray         # (T, 6) global edge id of local edge j
    face_edges: np.ndarray        # (F, 3) edge ids of each face
    face_tets: tuple              # per face: tuple of incident tet ids
    tet_face_sign: np.ndarray     # (T, 4): +1 outward normal = canonical
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
        """Affine map of the reference tet onto each tet, built once."""
        return tuple(_affine_map(self.tet_vertices(t)) for t in range(self.n_tets))

    @cached_property
    def affine(self):
        """The maps of amaps as stacked arrays (AffineStack), built once."""
        return AffineStack(
            A=np.array([m.A for m in self.amaps]).reshape(-1, 3, 3),
            A_inv=np.array([m.A_inv for m in self.amaps]).reshape(-1, 3, 3),
            b=np.array([m.b for m in self.amaps]).reshape(-1, 3),
            det=np.array([m.det for m in self.amaps]),
        )

    @cached_property
    def face_frames(self):
        """Orthonormal frame of each global face (polyspace.make_face_frame), built once."""
        from .polyspace import make_face_frame

        return tuple(make_face_frame(self.vertices[f]) for f in self.faces)

    def h_max(self):
        return max(amap.h for amap in self.amaps)


def _tet_volume6(p):
    return float(np.linalg.det(np.array([p[1] - p[0], p[2] - p[0], p[3] - p[0]])))


def _canonical_face_normal(verts):
    """Unit normal of the frame built on ascending vertex ids."""
    v0, v1, v2 = verts
    n = np.cross(v1 - v0, v2 - v0)
    return n / np.linalg.norm(n)


def build_complex(vertices, tets):
    """Assemble the full incidence structure from vertices and tets."""
    vertices = np.asarray(vertices, dtype=float)
    tets_in = np.asarray(tets, dtype=np.int64)
    if tets_in.size and (tets_in.min() < 0 or tets_in.max() >= len(vertices)):
        raise ValueError("tet refers to a vertex that does not exist")

    tets = np.sort(tets_in, axis=1)
    h_ref = max(vertices.max() - vertices.min(), 1.0) if len(vertices) else 1.0
    for t in range(len(tets)):
        p = vertices[tets[t]]
        vol6 = _tet_volume6(p)
        if abs(vol6) / 6.0 <= 1e-14 * h_ref**3:
            raise DegenerateTet(f"tet {t} has volume {abs(vol6)/6.0:.3e}")
        if vol6 < 0:
            tets[t, 2], tets[t, 3] = tets[t, 3], tets[t, 2]

    face_set = set()
    edge_set = set()
    for tet in tets:
        for fv in reftet.FACE_VERTS:
            face_set.add(tuple(sorted(tet[list(fv)])))
        for ev in reftet.EDGE_VERTS:
            edge_set.add(tuple(sorted(tet[list(ev)])))
    faces = np.array(sorted(face_set), dtype=np.int64).reshape(-1, 3)
    edges = np.array(sorted(edge_set), dtype=np.int64).reshape(-1, 2)
    face_id = {tuple(f): i for i, f in enumerate(faces)}
    edge_id = {tuple(e): i for i, e in enumerate(edges)}

    T = len(tets)
    tet_faces = np.empty((T, 4), dtype=np.int64)
    tet_edges = np.empty((T, 6), dtype=np.int64)
    tet_face_sign = np.empty((T, 4), dtype=np.int64)
    face_tets = [[] for _ in range(len(faces))]
    for t, tet in enumerate(tets):
        p = vertices[tet]
        centroid = p.mean(axis=0)
        for i, fv in enumerate(reftet.FACE_VERTS):
            tri = tuple(sorted(tet[list(fv)]))
            fid = face_id[tri]
            tet_faces[t, i] = fid
            face_tets[fid].append(t)
            n_canon = _canonical_face_normal(vertices[list(tri)])
            outward = vertices[tri[0]] - centroid
            tet_face_sign[t, i] = 1 if np.dot(n_canon, outward) > 0 else -1
        for j, ev in enumerate(reftet.EDGE_VERTS):
            tet_edges[t, j] = edge_id[tuple(sorted(tet[list(ev)]))]

    for fid, ts in enumerate(face_tets):
        if len(ts) > 2:
            raise NonManifoldFace(f"face {fid} belongs to {len(ts)} tets")

    face_edges = np.empty((len(faces), 3), dtype=np.int64)
    for fid, tri in enumerate(faces):
        pairs = [(tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2])]
        face_edges[fid] = [edge_id[p] for p in pairs]

    boundary = np.array([len(ts) == 1 for ts in face_tets])
    return SimplicialMesh(
        vertices=vertices,
        tets=tets,
        faces=faces,
        edges=edges,
        tet_faces=tet_faces,
        tet_edges=tet_edges,
        face_edges=face_edges,
        face_tets=tuple(tuple(ts) for ts in face_tets),
        tet_face_sign=tet_face_sign,
        boundary_face=boundary,
    )


_FACE_VERTS = np.array(reftet.FACE_VERTS)
_EDGE_VERTS = np.array(reftet.EDGE_VERTS)


def affine_of(mesh, tet_id):
    """Affine map of the reference tet onto tet tet_id."""
    return mesh.amaps[tet_id]


def _affine_map(p):
    """Affine map of the reference tet onto the tet with vertices p."""
    A = np.column_stack([p[1] - p[0], p[2] - p[0], p[3] - p[0]])
    det = float(np.linalg.det(A))
    lengths = np.linalg.norm(p[_EDGE_VERTS[:, 0]] - p[_EDGE_VERTS[:, 1]], axis=1)
    vol = abs(det) / 6.0
    q = p[_FACE_VERTS]                                  # (face, vertex, xyz)
    normals = np.cross(q[:, 1] - q[:, 0], q[:, 2] - q[:, 0])
    areas = np.sum(0.5 * np.linalg.norm(normals, axis=1))
    return AffineMap(
        A=A,
        b=p[0].copy(),
        det=det,
        A_inv=np.linalg.inv(A),
        h=float(max(lengths)),
        rho=float(3.0 * vol / areas),
    )


def unit_cube_mesh(n):
    """[0,1]^3 as n^3 cubes, each split into 6 tets around the diagonal."""
    if n < 1:
        raise ValueError("n must be >= 1")
    idx = lambda i, j, k: (i * (n + 1) + j) * (n + 1) + k
    verts = np.array(
        [
            [i / n, j / n, k / n]
            for i in range(n + 1)
            for j in range(n + 1)
            for k in range(n + 1)
        ]
    )
    # vertex-path splitting: walk from the low corner to the high corner
    # one axis at a time; the 6 axis orders give the 6 tets
    from itertools import permutations

    tets = []
    steps = np.eye(3, dtype=np.int64)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                base = np.array([i, j, k], dtype=np.int64)
                for perm in sorted(permutations(range(3))):
                    path = [base]
                    for ax in perm:
                        path.append(path[-1] + steps[ax])
                    tets.append([idx(*q) for q in path])
    return build_complex(verts, np.array(tets, dtype=np.int64))


def refine_uniform(mesh):
    """Red refinement: each tet into 8 children via edge midpoints.

    The inner octahedron is split along its shortest diagonal, which keeps
    the shape-regularity ratio bounded under repeated refinement.
    """
    verts = mesh.vertices
    mid_id = {}
    new_verts = [verts]
    next_id = mesh.n_vertices
    for e in mesh.edges:
        mid_id[(int(e[0]), int(e[1]))] = next_id
        next_id += 1
    new_verts.append(0.5 * (verts[mesh.edges[:, 0]] + verts[mesh.edges[:, 1]]))
    all_verts = np.vstack(new_verts)

    def mid(a, b):
        return mid_id[(min(a, b), max(a, b))]

    children = []
    for tet in mesh.tets:
        v = [int(x) for x in tet]
        m01, m02, m03 = mid(v[0], v[1]), mid(v[0], v[2]), mid(v[0], v[3])
        m12, m13, m23 = mid(v[1], v[2]), mid(v[1], v[3]), mid(v[2], v[3])
        children += [
            [v[0], m01, m02, m03],
            [v[1], m01, m12, m13],
            [v[2], m02, m12, m23],
            [v[3], m03, m13, m23],
        ]
        diagonals = [
            ((m01, m23), (m02, m03, m12, m13)),
            ((m02, m13), (m01, m03, m12, m23)),
            ((m03, m12), (m01, m02, m13, m23)),
        ]
        dlen = [np.linalg.norm(all_verts[d[0]] - all_verts[d[1]]) for d, _ in diagonals]
        (d0, d1), others = diagonals[int(np.argmin(dlen))]
        o = list(others)
        # four tets around the chosen diagonal; consecutive "others" share
        # a face with the diagonal
        quads = [
            (o[0], o[1]),
            (o[1], o[3]),
            (o[3], o[2]),
            (o[2], o[0]),
        ]
        for a, b in quads:
            children.append([d0, d1, a, b])
    return build_complex(all_verts, np.array(children, dtype=np.int64))


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
        edge_orders = np.full(mesh.n_edges, np.iinfo(np.int64).max)
        for t in range(mesh.n_tets):
            np.minimum.at(face_orders, mesh.tet_faces[t], tet_orders[t])
        for f in range(mesh.n_faces):
            np.minimum.at(edge_orders, mesh.face_edges[f], face_orders[f])
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
    for t in range(mesh.n_tets):
        rt = orders.tet_orders[t]
        for f in mesh.tet_faces[t]:
            if orders.face_orders[f] > rt:
                violations.append(("face>tet", int(f), t, int(orders.face_orders[f]), int(rt)))
    for f in range(mesh.n_faces):
        rf = orders.face_orders[f]
        for e in mesh.face_edges[f]:
            if orders.edge_orders[e] > rf:
                violations.append(("edge>face", int(e), f, int(orders.edge_orders[e]), int(rf)))
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
