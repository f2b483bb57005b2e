"""Polynomial spaces on the reference tetrahedron.

Builds explicit bases (coefficient rows over the monomial frame) for the
full, trimmed, ring (zero-trace) and variable-order trace-constrained
families of scalar/vector/matrix polynomial spaces, plus the curl-image
family and its gradient complement; the auxiliary interpolation moments
test against the complement.

Space tags follow the exterior-calculus naming:

==================  ==================================================
tag                 space
==================  ==================================================
lambda3             scalar polynomials P_r(T)
lambda3_vec         vector polynomials P_r(T;V)
lambda2             vector polynomials P_r(T;V) seen as flux fields
lambda2_minus       P_{r-1}(T;V) + x P_{r-1}(T)          (RT family)
lambda1_minus       P_{r-1}(T;V) + x ^ P_{r-1}(T;V)      (Nedelec family)
==================  ==================================================

Every space is built from the same coefficient primitives: the coordinate
rows x_j (_coordinate_rows, at monomials.coordinate_index), the component
frames e_c m (_component_frame), the products x_j m (_times_coordinates),
the matrix rows of a vector space (to_matrix_rows) and the traces on
reference faces and edges (trace).

Variable-order constraints restrict normal face traces (lambda2 family),
tangential face/edge traces (lambda1 family) subsimplex by subsimplex;
they are imposed as exact linear conditions on the trace coefficients
(the coefficients in a degree band vanish, plus a radial condition for
the tangential face family), which turns every space definition into one
null space computation.  All rank decisions happen at linalg.TOL.rank.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg, monomials as mo, reftet
from .mesh import NonMonotoneOrder

@dataclass(frozen=True)
class RefOrders:
    """Polynomial orders on the subsimplexes of the reference tet."""

    tet: int
    faces: tuple
    edges: tuple

    def __post_init__(self):
        if len(self.faces) != 4 or len(self.edges) != 6:
            raise ValueError("need 4 face orders and 6 edge orders")
        for i, fv in enumerate(reftet.FACE_VERTS):
            if self.faces[i] > self.tet:
                raise NonMonotoneOrder(f"face {i} order exceeds tet order")
        for i in range(4):
            for j in reftet.FACE_EDGES[i]:
                if self.edges[j] > self.faces[i]:
                    raise NonMonotoneOrder(
                        f"edge {j} order exceeds order of face {i}"
                    )

    @staticmethod
    def uniform(r):
        return RefOrders(r, (r,) * 4, (r,) * 6)

    def shifted(self, k):
        return RefOrders(
            self.tet + k,
            tuple(f + k for f in self.faces),
            tuple(e + k for e in self.edges),
        )


@dataclass(frozen=True)
class FaceFrame:
    """Orthonormal in-plane frame and 2D coordinates of a triangle."""

    origin: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    normal: np.ndarray
    yverts: np.ndarray   # (3, 2): vertices in frame coordinates
    area: float

    def to_y(self, x):
        d = np.atleast_2d(x) - self.origin
        return np.column_stack([d @ self.t1, d @ self.t2])

    def to_x(self, y):
        y = np.atleast_2d(y)
        return self.origin + np.outer(y[:, 0], self.t1) + np.outer(y[:, 1], self.t2)


def make_face_frame(verts):
    """Right-handed frame on the plane of a vertex triple."""
    verts = np.asarray(verts, dtype=float)
    v0, v1, v2 = verts
    t1 = v1 - v0
    t1 = t1 / np.linalg.norm(t1)
    w = v2 - v0
    t2 = w - (w @ t1) * t1
    t2 = t2 / np.linalg.norm(t2)
    n = np.cross(t1, t2)
    d = verts - v0
    yv = np.column_stack([d @ t1, d @ t2])
    area = 0.5 * abs(np.linalg.det(yv[1:] - yv[0]))
    return FaceFrame(origin=v0.copy(), t1=t1, t2=t2, normal=n, yverts=yv, area=area)


REF_FACE_FRAMES = tuple(
    make_face_frame(reftet.VERTICES[list(fv)]) for fv in reftet.FACE_VERTS
)


@dataclass(frozen=True)
class EdgeFrame:
    origin: np.ndarray
    tangent: np.ndarray
    length: float


def make_edge_frame(verts):
    verts = np.asarray(verts, dtype=float)
    d = verts[1] - verts[0]
    length = float(np.linalg.norm(d))
    return EdgeFrame(origin=verts[0].copy(), tangent=d / length, length=length)


REF_EDGE_FRAMES = tuple(
    make_edge_frame(reftet.VERTICES[list(ev)]) for ev in reftet.EDGE_VERTS
)


@dataclass(frozen=True)
class PolyBasis:
    """Rows of polynomial coefficients spanning one space."""

    tag: str
    ncomp: int
    deg: int
    coeffs: np.ndarray   # (nb, ncomp, nmono)
    orders: object = None

    @property
    def dim(self):
        return self.coeffs.shape[0]

    def flat(self):
        return self.coeffs.reshape(self.dim, -1)


def _mk(tag, ncomp, deg, coeffs, orders=None):
    coeffs = np.ascontiguousarray(coeffs, dtype=float)
    coeffs.setflags(write=False)
    return PolyBasis(tag=tag, ncomp=ncomp, deg=deg, coeffs=coeffs, orders=orders)


# ---------------------------------------------------------------------------
# traces

@lru_cache(maxsize=None)
def _ref_face_subst(face, deg):
    fr = REF_FACE_FRAMES[face]
    L = np.column_stack([fr.t1, fr.t2])
    return mo.substitution_matrix(3, deg, L, fr.origin)


@lru_cache(maxsize=None)
def _ref_edge_subst(edge, deg):
    fr = REF_EDGE_FRAMES[edge]
    return mo.substitution_matrix(3, deg, fr.tangent.reshape(3, 1), fr.origin)


def trace_directions(sub, kind):
    """The directions of the kind trace (see trace) on reference subsimplex sub."""
    if kind == "tangential-edge":
        return REF_EDGE_FRAMES[sub].tangent
    if kind not in ("normal", "tangential-face"):
        raise ValueError(f"unknown trace kind {kind!r}")
    frame = REF_FACE_FRAMES[sub]
    return frame.normal if kind == "normal" else np.vstack([frame.t1, frame.t2])


def trace(basis_or_coeffs, deg, sub, kind):
    """Trace polynomial of a vector/matrix field on a reference subsimplex.

    kind is one of 'normal' (..., 3, n3) -> (..., n2), 'tangential-face'
    (..., 3, n3) -> (..., 2, n2) and 'tangential-edge' (..., 3, n3) ->
    (..., n1); sub is the local face index (normal/tangential-face) or edge
    index.  Matrix fields (..., 9, n3) give the traces of their rows.
    """
    c = basis_or_coeffs.coeffs if isinstance(basis_or_coeffs, PolyBasis) else basis_or_coeffs
    c = np.asarray(c, dtype=float)
    if c.shape[-2] == 9:
        c = c.reshape(c.shape[:-2] + (3, 3, c.shape[-1]))
    dirs = trace_directions(sub, kind)
    S = _ref_edge_subst(sub, deg) if kind == "tangential-edge" else _ref_face_subst(sub, deg)
    return dirs @ (c @ S)


# ---------------------------------------------------------------------------
# grams and orthonormal mode sets

def face_gram(frame, deg):
    """Gram matrix of 2D monomials over the frame's triangle."""
    L = (frame.yverts[1:] - frame.yverts[0]).T
    S = mo.substitution_matrix(2, deg, L, frame.yverts[0])
    G_unit = mo.gram_simplex(2, deg)
    jac = abs(np.linalg.det(L))
    return jac * (S @ G_unit @ S.T)


@lru_cache(maxsize=None)
def ref_face_gram(face, deg):
    return face_gram(REF_FACE_FRAMES[face], deg)


def _inner(X, Y, G):
    return np.einsum("pcn,nm,qcm->pq", X, G, Y)


def _chol(G):
    try:
        return np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(0.5 * (G + G.T))
        w = np.maximum(w, 1e-15 * w.max())
        return V * np.sqrt(w)


def _orthonormalize(X, G):
    """L2-orthonormal combinations of the rows of X (rank-revealing)."""
    X = np.asarray(X, dtype=float)
    if X.shape[0] == 0:
        return X.copy()
    if np.abs(X).max() <= linalg.RANK_ABS_FLOOR:
        return np.zeros((0,) + X.shape[1:])
    L = _chol(G)
    W = np.einsum("pcn,nm->pcm", X, L).reshape(X.shape[0], -1)
    U, s, _ = np.linalg.svd(W, full_matrices=False)
    rank = int(np.sum(s > linalg.TOL.rank * s[0])) if s.size and s[0] > 0 else 0
    combos = U[:, :rank] / s[:rank]
    return np.einsum("pk,pcn->kcn", combos, X)


def _l2_complement(big, sub, G, expected=None):
    """Orthonormal basis of the L2-orthogonal complement of sub in big."""
    big = np.asarray(big, dtype=float)
    if sub is None or np.size(sub) == 0:
        return _orthonormalize(big, G)
    sub_on = _orthonormalize(sub, G)

    def project_off(X):
        return X - np.einsum("pk,kcn->pcn", _inner(X, sub_on, G), sub_on)

    comp = _orthonormalize(project_off(big), G)
    # second projection pass pushes the in-subspace contamination from
    # eps*cond down to machine level, so downstream rank cuts stay clean
    comp = _orthonormalize(project_off(comp), G)
    if expected is not None and comp.shape[0] != expected:
        raise AssertionError(
            f"complement dimension {comp.shape[0]} != expected {expected}"
        )
    return comp


@lru_cache(maxsize=None)
def scalar_face_modes(face, deg):
    """L2(F)-orthonormal scalar polynomial modes on a reference face."""
    if deg < 0:
        return np.zeros((0, 1, mo.count(2, 0)))
    return _orthonormalize(_component_frame(1, 2, deg, deg), ref_face_gram(face, deg))


@lru_cache(maxsize=None)
def volume_modes(deg):
    """L2(T)-orthonormal scalar modes on the reference tet."""
    return _orthonormalize(_component_frame(1, 3, deg, deg), mo.gram_simplex(3, deg))


@lru_cache(maxsize=None)
def zero_mean_volume_modes(deg):
    """Orthonormal basis of P_deg(T) / R (zero-mean scalar modes)."""
    frame = _component_frame(1, 3, deg, deg)
    return _l2_complement(frame, frame[:1], mo.gram_simplex(3, deg))   # frame[:1]: the constants


# ---------------------------------------------------------------------------
# full and trimmed spaces

def _coordinate_rows(dim):
    """(dim, n1): the coordinates x_1..x_dim in the degree-1 frame."""
    rows = np.zeros((dim, mo.count(dim, 1)))
    rows[np.arange(dim), mo.coordinate_index(dim)] = 1.0
    return rows


def _component_frame(ncomp, dim, deg, target_deg):
    """(ncomp * n, ncomp, N): e_c m for every component c and monomial m of
    degree <= deg, row c * n + k for the k-th monomial, in the target_deg frame."""
    n = mo.count(dim, deg)
    return mo.embed(np.eye(ncomp * n).reshape(-1, ncomp, n), dim, deg, target_deg)


def _times_coordinates(dim, deg):
    """(n, dim, n(deg + 1)): the vector field x m for every monomial m of degree <= deg."""
    return mo.mul(_component_frame(1, dim, deg, deg), deg, _coordinate_rows(dim), 1, dim)


def _cross_position_vectors(deg):
    """(3 n, 3, n(deg + 1)): x ^ (e_i m) = (x m) ^ e_i, row i * n + k for the
    k-th monomial m of degree <= deg."""
    cross = np.cross(_times_coordinates(3, deg), np.eye(3)[:, None, :, None],
                     axisa=-2, axisb=-2, axisc=-2)              # (3, n, 3, N)
    return cross.reshape(-1, 3, cross.shape[-1])


def _independent_subset(span, expected=None):
    rows = linalg.independent_rows(span.reshape(span.shape[0], -1))
    picked = span[rows]
    if expected is not None and picked.shape[0] != expected:
        raise AssertionError(
            f"space dimension {picked.shape[0]} != analytic count {expected}"
        )
    return picked


def dim_lambda2_minus(r):
    return r * (r + 1) * (r + 3) // 2 if r >= 0 else 0


def dim_lambda1_minus(r):
    return r * (r + 2) * (r + 3) // 2 if r >= 0 else 0


@lru_cache(maxsize=None)
def basis_full(tag, r):
    """Spanning, independent basis of an unconstrained space at order r."""
    if r < 0:
        raise ValueError("order must be nonnegative")
    if tag == "lambda3":
        return _mk(tag, 1, r, _component_frame(1, 3, r, r), r)
    if tag in ("lambda3_vec", "lambda2"):
        return _mk(tag, 3, r, _component_frame(3, 3, r, r), r)
    if tag == "lambda2_minus":
        if r == 0:
            return _mk(tag, 3, 0, np.zeros((0, 3, 1)), r)
        span = np.concatenate([_component_frame(3, 3, r - 1, r), _times_coordinates(3, r - 1)])
        picked = _independent_subset(span, dim_lambda2_minus(r))
        return _mk(tag, 3, r, picked, r)
    if tag == "lambda1_minus":
        if r == 0:
            return _mk(tag, 3, 0, np.zeros((0, 3, 1)), r)
        span = np.concatenate([_component_frame(3, 3, r - 1, r), _cross_position_vectors(r - 1)])
        picked = _independent_subset(span, dim_lambda1_minus(r))
        return _mk(tag, 3, r, picked, r)
    raise ValueError(f"unknown space tag {tag!r}")


def to_matrix_rows(basis):
    """Matrix-valued space whose rows live in the given vector space."""
    nb, _, n = basis.coeffs.shape
    out = np.zeros((3, nb, 3, 3, n))
    for i in range(3):
        out[i, :, i] = basis.coeffs   # row i * nb + k: basis row k as matrix row i
    return _mk(basis.tag + "_mat", 9, basis.deg, out.reshape(3 * nb, 9, n), basis.orders)


# ---------------------------------------------------------------------------
# differentiation

def differentiate(coeffs, deg, op):
    """Exact grad/curl/div on coefficient arrays (..., ncomp, n).

    grad: scalar -> vector, vector -> matrix (rows are component
    gradients); curl and div act row-wise on matrix-valued fields.
    """
    if isinstance(coeffs, PolyBasis):
        coeffs = coeffs.coeffs
    c = np.asarray(coeffs, dtype=float)
    ncomp = c.shape[-2]
    D = [mo.diff_matrix(3, deg, ax) for ax in range(3)]
    if op == "grad":
        if ncomp == 1:
            return np.stack([c[..., 0, :] @ D[ax] for ax in range(3)], axis=-2)
        if ncomp == 3:
            rows = [c[..., i, :] @ D[j] for i in range(3) for j in range(3)]
            return np.stack(rows, axis=-2)
    if op == "div":
        if ncomp == 3:
            return (c[..., 0, :] @ D[0] + c[..., 1, :] @ D[1] + c[..., 2, :] @ D[2])[
                ..., None, :
            ]
        if ncomp == 9:
            m = c.reshape(c.shape[:-2] + (3, 3, c.shape[-1]))
            rows = [
                m[..., i, 0, :] @ D[0] + m[..., i, 1, :] @ D[1] + m[..., i, 2, :] @ D[2]
                for i in range(3)
            ]
            return np.stack(rows, axis=-2)
    if op == "curl":
        if ncomp == 3:
            return np.stack(
                [
                    c[..., 2, :] @ D[1] - c[..., 1, :] @ D[2],
                    c[..., 0, :] @ D[2] - c[..., 2, :] @ D[0],
                    c[..., 1, :] @ D[0] - c[..., 0, :] @ D[1],
                ],
                axis=-2,
            )
        if ncomp == 9:
            m = c.reshape(c.shape[:-2] + (3, 3, c.shape[-1]))
            rows = []
            for i in range(3):
                rows += [
                    m[..., i, 2, :] @ D[1] - m[..., i, 1, :] @ D[2],
                    m[..., i, 0, :] @ D[2] - m[..., i, 2, :] @ D[0],
                    m[..., i, 1, :] @ D[0] - m[..., i, 0, :] @ D[1],
                ]
            return np.stack(rows, axis=-2)
    raise ValueError(f"operator {op!r} incompatible with {ncomp} components")


# ---------------------------------------------------------------------------
# ring (zero-trace) spaces

def _nullspace_basis(basis, rows, tag, orders=None):
    combos = linalg.nullspace(rows)
    coeffs = np.einsum("kp,pcn->kcn", combos, basis.coeffs)
    return _mk(tag, basis.ncomp, basis.deg, coeffs, orders)


# ring tag -> (full space, trace kind that vanishes); None is the scalar trace
_RING_TRACES = {
    "lambda0": ("lambda3", None),
    "lambda2": ("lambda2", "normal"),
    "lambda2_minus": ("lambda2_minus", "normal"),
    "lambda1_minus": ("lambda1_minus", "tangential-face"),
}


@lru_cache(maxsize=None)
def basis_ring(tag, r):
    """Subspace with vanishing traces on the whole boundary."""
    if tag not in _RING_TRACES:
        raise ValueError(f"unknown ring tag {tag!r}")
    full_tag, kind = _RING_TRACES[tag]
    full = basis_full(full_tag, r)
    if full.dim == 0:
        return _mk(tag + "_ring", full.ncomp, full.deg, full.coeffs, r)
    rows = []
    for f in range(4):
        tr = full.flat() @ _ref_face_subst(f, r) if kind is None else trace(full, r, f, kind)
        rows.append(tr.reshape(full.dim, -1).T)
    return _nullspace_basis(full, np.vstack(rows), tag + "_ring", r)


# ---------------------------------------------------------------------------
# variable-order trace-constrained spaces

@lru_cache(maxsize=None)
def _face_trimmed_tangent_basis(face, d):
    """2D trimmed (rotational) family on a reference face at order d.

    Spanned by P_{d-1}(F; R^2) and rot(y) P_{d-1}(F) with rot(y) = (-y2, y1);
    this is the tangential-trace space of the 3D trimmed Lambda^1 family.
    """
    if d <= 0:
        return np.zeros((0, 2, mo.count(2, max(d, 0))))
    # rot(y) m = (-y2 m, y1 m)
    rot = _times_coordinates(2, d - 1)[:, ::-1] * np.array([[-1.0], [1.0]])
    span = np.concatenate([_component_frame(2, 2, d - 1, d), rot])
    expected = d * (d + 2)
    return _independent_subset(span, expected)


def _degree_band(coeffs2d, lo, hi):
    """Coefficients of a 2D/1D trace with total degree in (lo, hi]."""
    return coeffs2d[..., mo.count(2, lo) : mo.count(2, hi)]


def _radial_rows(tr, deg):
    """Coefficients of y . h for the homogeneous degree-deg part h of a
    2-component face trace; vanishing is equivalent to h in rot(y) H_{deg-1}.
    """
    n_lo = mo.count(2, deg - 1)
    n_hi = mo.count(2, deg)
    h = np.zeros(tr.shape[:-2] + (2, n_hi))
    h[..., :, n_lo:n_hi] = tr[..., :, n_lo:n_hi]
    prod = mo.mul(h, deg, _coordinate_rows(2), 1, 2).sum(axis=-2)
    # y . h is homogeneous of degree deg + 1
    return prod[..., mo.count(2, deg) :]


@lru_cache(maxsize=None)
def basis_variable(tag, orders):
    """Trace-constrained subspace of basis_full(tag, orders.tet).

    All constraints reduce to exact linear conditions on trace
    coefficients (degree cuts, plus the radial condition that pins the
    tangential-trace family), so the null-space computation never sees
    quadrature or orthogonalization noise.
    """
    rt = orders.tet
    full = basis_full(tag, rt)
    if full.dim == 0:
        return _mk(tag + "_var", full.ncomp, full.deg, full.coeffs, orders)
    rows = []
    if tag == "lambda2":
        for f in range(4):
            if orders.faces[f] >= rt:
                continue
            tr = trace(full.coeffs, rt, f, "normal")
            rows.append(_degree_band(tr[:, None, :], orders.faces[f], rt)[:, 0, :])
    elif tag == "lambda2_minus":
        # normal traces have exact degree <= rt - 1
        for f in range(4):
            if orders.faces[f] - 1 >= rt - 1:
                continue
            tr = trace(full.coeffs, rt, f, "normal")
            rows.append(
                _degree_band(tr[:, None, :], orders.faces[f] - 1, rt - 1)[:, 0, :]
            )
    elif tag == "lambda1_minus":
        for f in range(4):
            rf = orders.faces[f]
            if rf >= rt:
                continue
            tr = trace(full.coeffs, rt, f, "tangential-face")  # (nb, 2, n2)
            # order-0 face family is {0}: kill everything incl. constants
            band = _degree_band(tr, rf if rf >= 1 else -1, rt)
            rows.append(band.reshape(full.dim, -1))
            if rf >= 1:
                rows.append(_radial_rows(tr, rf))
        # edge traces have exact degree <= rt - 1
        for e in range(6):
            if orders.edges[e] - 1 >= rt - 1:
                continue
            tr = trace(full.coeffs, rt, e, "tangential-edge")
            rows.append(tr[:, max(orders.edges[e], 0) : rt])
    else:
        raise ValueError(f"unknown variable-order tag {tag!r}")
    rows = [r for r in rows if r.shape[-1]]
    if not rows:
        return _mk(tag + "_var", full.ncomp, full.deg, full.coeffs.copy(), orders)
    rows = np.hstack(rows).T   # (nconstraints, nb)
    return _nullspace_basis(full, rows, tag + "_var", orders)


@lru_cache(maxsize=None)
def stress_basis(orders):
    """Matrix stress basis of a signature: rows in lambda2 of orders.shifted(1)."""
    return to_matrix_rows(basis_variable("lambda2", orders.shifted(1)))


@lru_cache(maxsize=None)
def basis_lambda1_minus_edge_zero(orders):
    """Variable-order trimmed Lambda^1 members with zero edge traces."""
    base = basis_variable("lambda1_minus", orders)
    if base.dim == 0:
        return base
    rows = []
    for e in range(6):
        tr = trace(base.coeffs, base.deg, e, "tangential-edge")
        rows.append(tr.T)
    return _nullspace_basis(base, np.vstack(rows), "lambda1_minus_edge0", orders)


# ---------------------------------------------------------------------------
# curl image and its gradient complement

def curl_dim(r):
    """dim of the curl image of the order-(r+1) zero-trace matrix family."""
    return (2 * r + 5) * r * (r - 1) // 2 if r >= 2 else 0


@lru_cache(maxsize=None)
def curl_image_basis(r):
    """Matrix-valued basis of curl(ring Lambda^1 family at order r+1)."""
    ring = basis_ring("lambda1_minus", r + 1)
    k = curl_dim(r)
    if ring.dim == 0 or k == 0:
        return _mk("curl_image", 9, max(r, 0), np.zeros((0, 9, mo.count(3, max(r, 0)))), r)
    curls = differentiate(ring.coeffs, r + 1, "curl")   # (nb, 3, n_r)
    mat = to_matrix_rows(_mk("curl_image", 3, r, _independent_subset(curls, k // 3), r))
    assert mat.dim == k
    return _mk("curl_image", 9, r, mat.coeffs, r)


@lru_cache(maxsize=None)
def complement_g_basis(r):
    """k matrix fields completing row-wise gradients to P_{r-1}(T;M).

    Built L2-orthogonal to every gradient of the order-r vector family, so
    the direct sum with the gradient image is the whole space.
    """
    k = curl_dim(r)
    deg = max(r - 1, 0)
    if k == 0:
        return _mk("grad_complement", 9, deg, np.zeros((0, 9, mo.count(3, deg))), r)
    vec = basis_full("lambda3_vec", r)
    grads = differentiate(vec.coeffs, r, "grad")        # (nb, 9, n_{r-1})
    full = _component_frame(9, 3, r - 1, r - 1)
    G = mo.gram_simplex(3, r - 1)
    comp = _l2_complement(full, grads, G, expected=k)
    return _mk("grad_complement", 9, r - 1, comp, r)
