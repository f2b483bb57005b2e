"""Projection and interpolation operators on tetrahedral meshes.

Implements the elementwise L2 projection, the commuting full-space stress
interpolant, the two trimmed-family moment interpolants (with the
homotopy parameter t that blends curl-image against gradient-complement
auxiliary moments), the Clement patch-average smoother, and the
stabilized combination of the last two.  Physical elements are handled by
pulling fields back to the reference tet; the pullbacks used are the ones
that intertwine each operator with its reference version, so one moment
matrix factorization per order signature serves every element.

A DiscreteField stores, per element, reference-coordinate monomial
coefficients plus a transform kind that says how reference values push
forward to physical ones.
"""

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import linalg, monomials as mo, polyspace as ps, quadrature, reftet, tensor_ops


class SingularMomentSystem(Exception):
    pass


class DimensionMismatch(Exception):
    pass


class NoAdmissibleT(Exception):
    pass


class ConformityViolation(Exception):
    pass


T_GRID = np.arange(65) / 64.0

# whether each reference face frame's normal points out of the reference tet
_REF_OUTWARD_SIGN = np.array(
    [
        1 if np.dot(
            ps.REF_FACE_FRAMES[f].normal,
            reftet.VERTICES[list(reftet.FACE_VERTS[f])].mean(axis=0)
            - reftet.VERTICES.mean(axis=0),
        ) > 0 else -1
        for f in range(4)
    ],
    dtype=np.int64,
)


# ---------------------------------------------------------------------------
# field samples

@dataclass(frozen=True)
class FieldSample:
    """Matrix- or vector-valued field with optional exact derivatives.

    value(points, tet) -> (m, *shape); jacobian adds a trailing axis for
    the derivative direction.  The tet argument is a hint for fields that
    are only piecewise defined (discrete fields); analytic fields ignore
    it.
    """

    shape: tuple
    value_fn: object
    jac_fn: object = None

    def value(self, points, tet=None):
        return self.value_fn(np.atleast_2d(points), tet)

    def jacobian(self, points, tet=None):
        if self.jac_fn is None:
            raise ValueError("field sample carries no derivatives")
        return self.jac_fn(np.atleast_2d(points), tet)

    @staticmethod
    def constant(M):
        M = np.asarray(M, dtype=float)
        shape = M.shape

        def val(pts, tet):
            return np.broadcast_to(M, (len(pts),) + shape).copy()

        def jac(pts, tet):
            return np.zeros((len(pts),) + shape + (3,))

        return FieldSample(shape, val, jac)

    @staticmethod
    def from_poly(coeffs, deg):
        """Polynomial field in physical coordinates; shape from coeffs."""
        coeffs = np.asarray(coeffs, dtype=float)
        shape = coeffs.shape[:-1]
        if shape == (9,):
            shape = (3, 3)
            coeffs = coeffs.reshape(3, 3, -1)

        grads = np.stack(
            [mo.diff(coeffs, 3, deg, ax) for ax in range(3)], axis=-2
        )  # (*shape, 3, n-1)

        def val(pts, tet):
            v = mo.evaluate(coeffs, 3, deg, pts)          # (*shape, m)
            return np.moveaxis(v, -1, 0)

        def jac(pts, tet):
            g = mo.evaluate(grads, 3, max(deg - 1, 0), pts)  # (*shape, 3, m)
            return np.moveaxis(g, -1, 0)

        return FieldSample(shape, val, jac)

    @staticmethod
    def from_sympy(entries):
        """Field from a nested list of sympy expressions in x, y, z."""
        import sympy as sp

        xyz = sp.symbols("x y z")
        arr = np.array(entries, dtype=object)
        shape = arr.shape
        flat = [sp.sympify(e) for e in arr.ravel()]
        f_all = sp.lambdify(xyz, flat, "numpy")
        df_all = sp.lambdify(xyz, [sp.diff(e, v) for e in flat for v in xyz], "numpy")

        def _eval(fn, pts, out_shape):
            # constant entries come back as scalars; broadcast them to the points
            x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
            cols = np.broadcast_arrays(x, *fn(x, y, z))[1:]
            return np.stack(cols, axis=-1).astype(float).reshape((len(pts),) + out_shape)

        def val(pts, tet):
            return _eval(f_all, pts, shape)

        def jac(pts, tet):
            return _eval(df_all, pts, shape + (3,))

        return FieldSample(shape, val, jac)

    def __sub__(self, other):
        assert self.shape == other.shape

        def val(pts, tet):
            return self.value(pts, tet) - other.value(pts, tet)

        def jac(pts, tet):
            return self.jacobian(pts, tet) - other.jacobian(pts, tet)

        return FieldSample(self.shape, val, jac if self.jac_fn is not None and other.jac_fn is not None else None)

    def apply_s1(self):
        """Pointwise transpose-minus-trace of a matrix-valued field."""
        assert self.shape == (3, 3)
        eye = np.eye(3)

        def val(pts, tet):
            W = self.value(pts, tet)
            return np.swapaxes(W, -1, -2) - np.einsum("mii->m", W)[:, None, None] * eye

        def jac(pts, tet):
            J = self.jacobian(pts, tet)   # (m,3,3,3)
            return (
                np.swapaxes(J, 1, 2)
                - np.einsum("miik->mk", J)[:, None, None, :] * eye[None, :, :, None]
            )

        return FieldSample((3, 3), val, jac if self.jac_fn is not None else None)

    def divergence(self):
        """Row-wise divergence of a matrix field as a vector sample."""
        assert self.shape == (3, 3)

        def val(pts, tet):
            return np.einsum("mijj->mi", self.jacobian(pts, tet))

        return FieldSample((3,), val, None)


# ---------------------------------------------------------------------------
# discrete fields

# transform kinds: how reference-coordinate coefficients push to physical values
#   compose : u(x) = uhat(xhat)
#   piola   : sigma(x) = (1/det A) sigmahat(xhat) A^T      (row-wise flux map)
#   op2     : U(x) = A^{-T} Uhat(xhat) A^T
#   op1     : W(x) = A What(xhat) A^{-1}


def _push_matrix(kind, amap):
    """(L, R) with value = L @ what @ R for matrix fields (None for compose)."""
    if kind == "compose":
        return None
    if kind == "piola":
        return np.eye(3) / amap.det, amap.A.T
    if kind == "op2":
        return amap.A_inv.T, amap.A.T
    if kind == "op1":
        return amap.A, amap.A_inv
    raise ValueError(kind)


@dataclass
class DiscreteField:
    """Per-element polynomial field on a mesh.

    coeffs[t] has shape (ncomp, nmono(deg[t])) in reference coordinates of
    element t; kind fixes the pushforward.  Vector fields have ncomp 3 and
    matrix fields ncomp 9.
    """

    mesh: object
    orders: object
    kind: str
    degs: list
    coeffs: list
    space: str = ""

    @property
    def shape(self):
        return (3, 3) if self.coeffs[0].shape[0] == 9 else (3,)

    def evaluate_ref(self, t, ref_pts):
        """Physical values at reference points of element t: (m, *shape)."""
        c = self.coeffs[t]
        vals = mo.evaluate(c, 3, self.degs[t], ref_pts)   # (ncomp, m)
        vals = np.moveaxis(vals, -1, 0)
        if c.shape[0] == 3:
            return vals
        W = vals.reshape(-1, 3, 3)
        LR = _push_matrix(self.kind, self.mesh.amaps[t])
        if LR is None:
            return W
        L, R = LR
        return np.einsum("ij,mjk,kl->mil", L, W, R)

    def jacobian_ref(self, t, ref_pts):
        """Physical derivatives at reference points: (m, *shape, 3)."""
        amap = self.mesh.amaps[t]
        c = self.coeffs[t]
        deg = self.degs[t]
        dref = np.stack(
            [mo.evaluate(mo.diff(c, 3, deg, ax), 3, max(deg - 1, 0), ref_pts) for ax in range(3)],
            axis=-2,
        )  # (ncomp, 3, m)
        dref = np.moveaxis(dref, -1, 0)   # (m, ncomp, 3ref)
        dphys = np.einsum("mck,kl->mcl", dref, amap.A_inv)
        if c.shape[0] == 3:
            return dphys
        W = dphys.reshape(-1, 3, 3, 3)
        LR = _push_matrix(self.kind, amap)
        if LR is None:
            return W
        L, R = LR
        return np.einsum("ij,mjkl,kn->minl", L, W, R)

    def as_sample(self):
        amaps = self.mesh.amaps

        def val(pts, tet):
            return self.evaluate_ref(tet, amaps[tet].pull(pts))

        def jac(pts, tet):
            return self.jacobian_ref(tet, amaps[tet].pull(pts))

        return FieldSample(self.shape, val, jac)

    def copy_with(self, coeffs, kind=None, degs=None, space=None):
        return DiscreteField(
            mesh=self.mesh,
            orders=self.orders,
            kind=self.kind if kind is None else kind,
            degs=self.degs if degs is None else degs,
            coeffs=coeffs,
            space=self.space if space is None else space,
        )

    def __sub__(self, other):
        assert self.kind == other.kind
        return self.copy_with(
            [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )


def field_divergence(df):
    """Row-wise divergence of a piola-kind matrix field, as compose-kind.

    The flux transform turns reference divergence into (1/det) times the
    physical one, so the result is exact elementwise.
    """
    assert df.kind == "piola"
    out, degs = [], []
    for t in range(df.mesh.n_tets):
        d = ps.differentiate(df.coeffs[t], df.degs[t], "div") / df.mesh.amaps[t].det
        out.append(d)
        degs.append(max(df.degs[t] - 1, 0))
    return df.copy_with(out, kind="compose", degs=degs, space="p3_vec")


# Agreement on the squared norm that ends l2_norm's refinement of its rule
# for analytic data: 1e-7 relative on the norm itself.
L2_SQ_RTOL = 2e-7


def l2_norm(mesh, field, quad_deg, tets=None, minus=None):
    """L2 norm of field, or of field - minus, over the elements tets.

    field is a FieldSample (with tet hints) or a DiscreteField; minus, when
    given, is a DiscreteField.

    If field is a DiscreteField the integrand is polynomial on each element
    and one rule of degree quad_deg is used; it is exact once quad_deg is at
    least twice the field's degree.  Otherwise the rule checks itself:
    quad_deg is the lowest degree whose result is returned, and the rule two
    degrees lower is evaluated in the same pass, on the union of the two
    point sets, as its check.  The degree rises in steps of two until the
    squared norms of the last two rules agree to L2_SQ_RTOL relative (1e-7
    on the norm), or to within the roundoff floor
    4 eps int |e| (|field| + |minus|), and the norm from the higher rule is
    returned.  The floor bounds the rounding of |e|^2 for e = field - minus
    under both rules; without it a norm that is itself roundoff, as in a
    patch test, never settles.  Raises quadrature.DegreeTooHigh if the
    rules still disagree at quadrature.MAX_DEGREE.
    """
    tets = range(mesh.n_tets) if tets is None else tets

    def sums(rules):
        """Squared norm under each rule, and int |e| (|field| + |minus|)
        under the last, from one evaluation on all their points."""
        pts = np.vstack([r.points for r in rules])
        cuts = np.cumsum([len(r.weights) for r in rules])[:-1]
        totals = np.zeros(len(rules))
        floor = 0.0
        for t in tets:
            amap = mesh.amaps[t]
            if isinstance(field, DiscreteField):
                v = field.evaluate_ref(t, pts)
            else:
                v = field.value(amap.apply(pts), t)
            e = v.reshape(len(pts), -1)
            size = np.linalg.norm(e, axis=1)
            if minus is not None:
                w = minus.evaluate_ref(t, pts).reshape(len(pts), -1)
                e = e - w
                size += np.linalg.norm(w, axis=1)
            e_sq = np.sum(e**2, axis=1)
            totals += amap.det * np.array(
                [r.weights @ q for r, q in zip(rules, np.split(e_sq, cuts))]
            )
            floor += amap.det * (rules[-1].weights @ np.split(np.sqrt(e_sq) * size, cuts)[-1])
        return totals, floor

    if isinstance(field, DiscreteField):
        return float(np.sqrt(sums([quadrature.rule_for(3, quad_deg)])[0][0]))
    deg = max(quad_deg, 2)
    (lo, hi), floor = sums([quadrature.rule_for(3, deg - 2), quadrature.rule_for(3, deg)])
    while abs(hi - lo) > L2_SQ_RTOL * hi + 4 * np.finfo(float).eps * floor:
        deg += 2
        if deg > quadrature.MAX_DEGREE:
            raise quadrature.DegreeTooHigh(
                f"L2 norm squared still moves from {lo:.9e} to {hi:.9e} "
                f"at quadrature degree {deg - 2}"
            )
        lo = hi
        (hi,), floor = sums([quadrature.rule_for(3, deg)])
    return float(np.sqrt(hi))


def h1_seminorm(mesh, sample, quad_deg, tets=None):
    """H1 seminorm of a FieldSample: the l2_norm of its Jacobian."""
    return l2_norm(mesh, FieldSample(sample.shape + (3,), sample.jacobian), quad_deg, tets)


def h1_norm(mesh, sample, quad_deg, tets=None):
    return float(
        np.hypot(
            l2_norm(mesh, sample, quad_deg, tets), h1_seminorm(mesh, sample, quad_deg, tets)
        )
    )


# ---------------------------------------------------------------------------
# reference moment systems
#
# Both trimmed interpolants are fixed by the same face / divergence /
# auxiliary conditions.  The 1minus conditions are the 2minus ones with
# tangential instead of normal face traces, and with S1 applied to the
# field in the divergence and auxiliary rows.

@dataclass
class MomentSystem:
    """Square moment matrix over a trimmed-space basis at parameter t.

    Rows are grouped face / divergence / auxiliary, in that order; the
    columns follow the reference basis of the target space.
    """

    kind: str                 # "2minus" or "1minus"
    orders: object
    t: float
    matrix: np.ndarray
    groups: dict              # name -> slice
    basis: object             # PolyBasis (matrix-valued)
    lu: object = None

    @property
    def dim(self):
        return self.matrix.shape[0]


def _aux_families(r):
    """(curl-image block, gradient-complement block) embedded at degree r."""
    f = ps.curl_image_basis(r)
    g = ps.complement_g_basis(r)
    k = ps.curl_dim(r)
    nf = mo.count(3, max(r, 0))
    fam_f = np.zeros((k, 9, nf))
    fam_g = np.zeros((k, 9, nf))
    if k:
        fam_f[:, :, : f.coeffs.shape[-1]] = f.coeffs
        fam_g[:, :, : g.coeffs.shape[-1]] = g.coeffs
    return fam_f, fam_g


def _face_directions(kind, f):
    """Directions (a, 3) a face condition tests on reference face f: the
    normal for 2minus, the two tangents for 1minus."""
    frame = ps.REF_FACE_FRAMES[f]
    return frame.normal[None, :] if kind == "2minus" else np.vstack([frame.t1, frame.t2])


def _moment_rows(kind, orders, t):
    """(matrix, row groups, basis) of the kind's conditions at parameter t."""
    rt = orders.tet
    if kind == "2minus":
        vec, deg = ps.basis_variable("lambda2_minus", orders.shifted(1)), rt + 1
    else:
        vec, deg = ps.basis_lambda1_minus_edge_zero(orders.shifted(2)), rt + 2
    basis = ps.to_matrix_rows(vec)
    nb = basis.dim
    mats = basis.coeffs.reshape(nb, 3, 3, -1)
    rows = []
    # face rows: traces against P_{rF}(F;V), ordered (mode, direction, row)
    for f in range(4):
        rf = orders.faces[f]
        modes = ps.scalar_face_modes(f, rf)                  # (ns, 1, n2(rf))
        if modes.shape[0] == 0:
            continue
        tr = _face_directions(kind, f) @ (mats @ ps._ref_face_subst(f, deg))  # (nb, 3, a, n2)
        memb = mo.embed(modes[:, 0, :], 2, rf, deg)
        vals = tr @ (ps.ref_face_gram(f, deg) @ memb.T)      # (nb, 3, a, ns)
        rows.append(vals.transpose(3, 2, 1, 0).reshape(-1, nb))
    n_face = sum(r.shape[0] for r in rows)
    coeffs = basis.coeffs if kind == "2minus" else tensor_ops.S1_MATRIX @ basis.coeffs
    # divergence rows against zero-mean vector modes
    divs = ps.differentiate(coeffs, deg, "div")              # (nb, 3, n3(deg-1))
    zm = mo.embed(ps.zero_mean_volume_modes(rt)[:, 0, :], 3, rt, deg - 1)
    vals = divs @ (mo.gram_simplex(3, deg - 1) @ zm.T)       # (nb, 3, nz)
    rows.append(vals.transpose(2, 1, 0).reshape(-1, nb))
    n_div = 3 * zm.shape[0]
    # auxiliary rows against h(t) = (1-t) f + t g
    fam_f, fam_g = _aux_families(rt)
    fam = mo.embed((1.0 - t) * fam_f + t * fam_g, 3, max(rt, 0), deg)
    rows.append(np.tensordot(fam, coeffs @ mo.gram_simplex(3, deg), axes=([1, 2], [1, 2])))
    groups = {
        "face": slice(0, n_face),
        "div": slice(n_face, n_face + n_div),
        "aux": slice(n_face + n_div, n_face + n_div + len(fam)),
    }
    return np.vstack(rows), groups, basis


def build_moment_system(kind, orders, t):
    """Square matrix of the kind's trimmed interpolation conditions at t."""
    M, groups, basis = _moment_rows(kind, orders, t)
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatch(
            f"{kind} system is {M.shape[0]}x{M.shape[1]} for orders {orders}"
        )
    return MomentSystem(kind, orders, t, M, groups, basis)


_moment_rows_2minus = partial(_moment_rows, "2minus")
build_moment_system_2minus = partial(build_moment_system, "2minus")
build_moment_system_1minus = partial(build_moment_system, "1minus")


def _equilibrated_logdet(M):
    """log|det| of M with its rows scaled to unit max norm; -inf if singular."""
    if M.shape[0] == 0:
        return 0.0
    scale = np.abs(M).max(axis=1)
    if np.any(scale == 0.0):
        return -np.inf
    sign, logmag = linalg.det_sign_and_logmag(M / scale[:, None])
    return -np.inf if sign == 0 else logmag


@lru_cache(maxsize=None)
def select_t(orders):
    """Deterministic homotopy parameter for one order signature.

    Scans t over {j/64} and keeps the t maximizing the smaller of the two
    row-equilibrated log-determinants, so both moment systems are safely
    invertible at the returned value.  Without auxiliary rows (r <= 1)
    neither system depends on t, and 0.0 is returned.
    """
    if isinstance(orders, int):
        orders = ps.RefOrders.uniform(orders)
    if ps.curl_dim(orders.tet) == 0:
        return 0.0
    ends = [
        (build_moment_system(kind, orders, 0.0).matrix, build_moment_system(kind, orders, 1.0).matrix)
        for kind in ("2minus", "1minus")
    ]
    best_t, best_score = None, -np.inf
    for t in T_GRID:
        score = min(_equilibrated_logdet((1.0 - t) * Mf + t * Mg) for Mf, Mg in ends)
        if score > best_score:
            best_t, best_score = float(t), score
    if best_t is None or not np.isfinite(best_score):
        raise NoAdmissibleT(f"all grid values of t are singular for {orders}")
    return best_t


@lru_cache(maxsize=None)
def reference_systems(orders):
    """(2minus, 1minus) moment systems at the selected t, LU-factored."""
    t = select_t(orders)
    systems = tuple(build_moment_system(kind, orders, t) for kind in ("2minus", "1minus"))
    for s in systems:
        try:
            s.lu = linalg.lu_factor(s.matrix)
        except linalg.SingularMatrix as exc:
            raise SingularMomentSystem(
                f"{s.kind} system singular at t={t} for {orders}"
            ) from exc
    return systems


# ---------------------------------------------------------------------------
# shared quadrature context

# The volume rule exceeds the degree 2(r+2) of the polynomial moment
# products by 8 and the face rule exceeds the volume rule by 2, because the
# moments also integrate transcendental data.  With a margin of 6 on both,
# `verify commute` missed its 1e-9 gate on diagrams 1 and 2 (4.7e-8 at
# n=1, r=0); with these it passes by more than 100x at r = 0..3.
VOL_QUAD_MARGIN = 8
FACE_QUAD_EXTRA = 2


class Workspace:
    """Per-(mesh, orders) quadrature data shared by all operators.

    Face moments are evaluated at one set of physical points per global
    face, so the two elements sharing a face consume identical samples of
    the input field and elementwise interpolation assembles into a
    conforming global field without any further communication.
    """

    def __init__(self, mesh, orders):
        self.mesh = mesh
        self.orders = orders
        self.rmax = int(orders.tet_orders.max())
        self.vol_deg = 2 * (self.rmax + 2) + VOL_QUAD_MARGIN
        self.vol_rule = quadrature.rule_for(3, self.vol_deg)
        self.face_deg = self.vol_deg + FACE_QUAD_EXTRA
        tri = quadrature.rule_for(2, self.face_deg)
        self.tri_rule = tri
        self.amaps = mesh.amaps
        self.face_points = []
        self.face_weights = []   # physical surface measure
        for fid in range(mesh.n_faces):
            verts = mesh.vertices[mesh.faces[fid]]
            pts = (
                verts[0]
                + np.outer(tri.points[:, 0], verts[1] - verts[0])
                + np.outer(tri.points[:, 1], verts[2] - verts[0])
            )
            area = 0.5 * np.linalg.norm(
                np.cross(verts[1] - verts[0], verts[2] - verts[0])
            )
            self.face_points.append(pts)
            self.face_weights.append(tri.weights * (area / 0.5))
        self._ref_orders = [orders.ref_orders(mesh, t) for t in range(mesh.n_tets)]
        self._mode_cache = {}

    def ref_orders(self, t):
        return self._ref_orders[t]

    def vol_points(self, t):
        return self.amaps[t].apply(self.vol_rule.points)

    def face_modes_at_ref_points(self, t, local_face, rf):
        """Orthonormal reference-face modes evaluated at the pulled-back
        global quadrature points of the matching global face."""
        key = (t, local_face, rf)
        if key in self._mode_cache:
            return self._mode_cache[key]
        fid = self.mesh.tet_faces[t][local_face]
        amap = self.amaps[t]
        xhat = amap.pull(self.face_points[fid])
        frame = ps.REF_FACE_FRAMES[local_face]
        yhat = frame.to_y(xhat)
        modes = ps.scalar_face_modes(local_face, rf)
        vals = mo.evaluate(modes[:, 0, :], 2, rf, yhat) if modes.shape[0] else np.zeros((0, len(yhat)))
        # the pulled-back points are the rule's points on the reference face
        w_ref = self.tri_rule.weights * (frame.area / 0.5)
        out = (vals, w_ref, xhat, fid)
        self._mode_cache[key] = out
        return out


# ---------------------------------------------------------------------------
# elementwise L2 projection

def project_l2_p3(mesh, orders, f, ws=None):
    """Elementwise L2 projection onto the vector space of order r(T)."""
    ws = Workspace(mesh, orders) if ws is None else ws
    coeffs, degs = [], []
    rule = ws.vol_rule
    for t in range(mesh.n_tets):
        rt = int(orders.tet_orders[t])
        modes = ps.volume_modes(rt)[:, 0, :]          # (nm, n3)
        vals = mo.evaluate(modes, 3, rt, rule.points)  # (nm, q)
        if isinstance(f, DiscreteField):
            fv = f.evaluate_ref(t, rule.points)
        else:
            fv = f.value(ws.vol_points(t), t)          # (q, 3)
        gamma = np.einsum("q,nq,qi->in", rule.weights, vals, fv)
        c = np.einsum("in,nm->im", gamma, modes)       # back to monomials
        coeffs.append(c)
        degs.append(rt)
    return DiscreteField(mesh, orders, "compose", degs, coeffs, space="p3_vec")


# ---------------------------------------------------------------------------
# trimmed-family element interpolants (reference route)

def _pullback_op2(U, amap):
    """Uhat(xhat) = A^T U(x) A^{-T} with matching derivatives."""
    A, Ainv = amap.A, amap.A_inv

    def val(pts_hat, tet=None):
        W = U
        return np.einsum("pa,mab,qb->mpq", A.T, W.value(amap.apply(pts_hat), tet), Ainv)

    def jac(pts_hat, tet=None):
        J = U.jacobian(amap.apply(pts_hat), tet)   # (m,3,3,3) d/dx_l
        Jh = np.einsum("mabl,lk->mabk", J, A)      # d/dxhat_k
        return np.einsum("pa,mabk,qb->mpqk", A.T, Jh, Ainv)

    return FieldSample((3, 3), val, jac)


def _pullback_op1(W, amap):
    """What(xhat) = A^{-1} W(x) A with matching derivatives."""
    A, Ainv = amap.A, amap.A_inv

    def val(pts_hat, tet=None):
        return np.einsum("pa,mab,bq->mpq", Ainv, W.value(amap.apply(pts_hat), tet), A)

    def jac(pts_hat, tet=None):
        J = W.jacobian(amap.apply(pts_hat), tet)
        Jh = np.einsum("mabl,lk->mabk", J, A)
        return np.einsum("pa,mabk,bq->mpqk", Ainv, Jh, A)

    return FieldSample((3, 3), val, jac)


def _rhs(ws, t, sysm, Uhat):
    """Right-hand side of sysm's conditions for the pulled-back field."""
    orders = sysm.orders
    rule = ws.vol_rule
    rhs = []
    for f in range(4):
        modes_vals, w_ref, xhat, fid = ws.face_modes_at_ref_points(t, f, orders.faces[f])
        if modes_vals.shape[0] == 0:
            continue
        Ut = Uhat.value(xhat, t) @ _face_directions(sysm.kind, f).T    # (q, 3, a)
        rhs.append(np.einsum("q,sq,qia->sai", w_ref, modes_vals, Ut).ravel())
    field = Uhat if sysm.kind == "2minus" else Uhat.apply_s1()
    zm = ps.zero_mean_volume_modes(orders.tet)
    if zm.shape[0]:
        zv = mo.evaluate(zm[:, 0, :], 3, orders.tet, rule.points)
        divU = np.einsum("mikk->mi", field.jacobian(rule.points, t))
        rhs.append(np.einsum("q,sq,qi->si", rule.weights, zv, divU).ravel())
    fam_f, fam_g = _aux_families(orders.tet)
    if fam_f.shape[0]:
        fam = (1.0 - sysm.t) * fam_f + sysm.t * fam_g
        hv = mo.evaluate(fam, 3, max(orders.tet, 0), rule.points)      # (k,9,q)
        Uv = field.value(rule.points, t).reshape(-1, 9)                 # (q,9)
        rhs.append(np.einsum("q,kcq,qc->k", rule.weights, hv, Uv))
    rhs = np.concatenate(rhs)
    assert len(rhs) == sysm.dim
    return rhs


_rhs_2minus = _rhs


def _solve_moments(ws, t, sysm, Uhat):
    """Element coefficients (9, nmono) of the interpolant of sysm's kind."""
    x = linalg.lu_apply(sysm.lu, _rhs(ws, t, sysm, Uhat))
    return np.einsum("b,bcn->cn", x, sysm.basis.coeffs)


def interp_p2minus(ws, t, U):
    """Element coefficients (9, nmono) of the trimmed-flux interpolant."""
    sys2, _ = reference_systems(ws.ref_orders(t))
    return _solve_moments(ws, t, sys2, _pullback_op2(U, ws.amaps[t]))


def interp_p1minus(ws, t, W):
    """Element coefficients (9, nmono) of the trimmed-edge interpolant."""
    _, sys1 = reference_systems(ws.ref_orders(t))
    return _solve_moments(ws, t, sys1, _pullback_op1(W, ws.amaps[t]))


def interp_p2minus_global(mesh, orders, U, ws=None):
    ws = Workspace(mesh, orders) if ws is None else ws
    per_elem = [interp_p2minus(ws, t, U) for t in range(mesh.n_tets)]
    degs = [int(orders.tet_orders[t]) + 1 for t in range(mesh.n_tets)]
    return elementwise_to_global(mesh, orders, "op2", degs, per_elem, space="p2_minus")


def interp_p1minus_global(mesh, orders, W, ws=None):
    ws = Workspace(mesh, orders) if ws is None else ws
    per_elem = [interp_p1minus(ws, t, W) for t in range(mesh.n_tets)]
    degs = [int(orders.tet_orders[t]) + 2 for t in range(mesh.n_tets)]
    return elementwise_to_global(mesh, orders, "op1", degs, per_elem, space="p1_minus")


def _outward_normal(mesh, t, local_face):
    fid = mesh.tet_faces[t][local_face]
    verts = mesh.vertices[mesh.faces[fid]]
    n = np.cross(verts[1] - verts[0], verts[2] - verts[0])
    n = n / np.linalg.norm(n)
    return n * mesh.tet_face_sign[t, local_face]


# ---------------------------------------------------------------------------
# conformity and global assembly of element fields

CONFORMITY_TOL = 1e-10        # trace jump relative to max(field scale, 1)
CONFORMITY_RULE_DEG = 4       # face rule of the trace-jump check


def elementwise_to_global(mesh, orders, kind, degs, per_elem, space=""):
    """Glue per-element coefficient arrays into a conforming DiscreteField.

    Checks interface continuity of the relevant trace (normal for flux
    kinds, tangential for the edge kind) at face quadrature points.
    """
    df = DiscreteField(mesh, orders, kind, list(degs), list(per_elem), space=space)
    err, scale = conformity_error(df)
    if err > CONFORMITY_TOL * max(scale, 1.0):
        raise ConformityViolation(
            f"interface trace jump {err:.3e} exceeds {CONFORMITY_TOL:.0e} * {max(scale, 1.0):.3e}"
        )
    return df


def conformity_error(df):
    """Max interface trace jump and the field scale used to normalize it."""
    mesh = df.mesh
    rule = quadrature.rule_for(2, CONFORMITY_RULE_DEG)
    worst = 0.0
    scale = 0.0
    for fid in range(mesh.n_faces):
        tets = mesh.face_tets[fid]
        if len(tets) != 2:
            continue
        verts = mesh.vertices[mesh.faces[fid]]
        pts = (
            verts[0]
            + np.outer(rule.points[:, 0], verts[1] - verts[0])
            + np.outer(rule.points[:, 1], verts[2] - verts[0])
        )
        frame = ps.make_face_frame(verts)
        vals = []
        for t in tets:
            V = df.evaluate_ref(t, mesh.amaps[t].pull(pts))
            if df.kind in ("piola", "op2"):
                tr = np.einsum("mij,j->mi", V, frame.normal)
            elif df.kind == "op1":
                tr = np.einsum(
                    "mij,ja->mia", V, np.column_stack([frame.t1, frame.t2])
                )
            else:
                tr = V
            vals.append(tr)
            scale = max(scale, np.abs(V).max())
        worst = max(worst, np.abs(vals[0] - vals[1]).max())
    return worst, scale


# ---------------------------------------------------------------------------
# Clement smoother and the stabilized interpolant

CLEMENT_QUAD_DEG = 6


def clement(mesh, W, orders=None):
    """Patch-average interpolant onto continuous piecewise linears.

    The vertex value is the mean of W over the union of elements touching
    the vertex (its L2 projection onto constants there).
    """
    rule = quadrature.rule_for(3, CLEMENT_QUAD_DEG)
    sums = np.zeros((mesh.n_vertices, 3, 3))
    vols = np.zeros(mesh.n_vertices)
    for t in range(mesh.n_tets):
        amap = mesh.amaps[t]
        if isinstance(W, DiscreteField):
            vals = W.evaluate_ref(t, rule.points)
        else:
            vals = W.value(amap.apply(rule.points), t)
        integral = amap.det * np.einsum("q,qij->ij", rule.weights, vals)
        vol = amap.det / 6.0
        for v in mesh.tets[t]:
            sums[v] += integral
            vols[v] += vol
    vertex_vals = sums / vols[:, None, None]
    coeffs, degs = [], []
    idx1 = mo.index_of(3, 1)
    for t in range(mesh.n_tets):
        vv = vertex_vals[mesh.tets[t]]      # (4,3,3)
        c = np.zeros((9, mo.count(3, 1)))
        flat = vv.reshape(4, 9)
        c[:, 0] = flat[0]
        c[:, idx1[(1, 0, 0)]] = flat[1] - flat[0]
        c[:, idx1[(0, 1, 0)]] = flat[2] - flat[0]
        c[:, idx1[(0, 0, 1)]] = flat[3] - flat[0]
        coeffs.append(c)
        degs.append(1)
    field = DiscreteField(mesh, orders, "compose", degs, coeffs, space="linear_mat")
    return field


def lift_linear_into_op1(ws, t, lin_field):
    """Coefficients of a continuous linear matrix field in the op1 space."""
    orders = ws.ref_orders(t)
    basis = ps.to_matrix_rows(ps.basis_variable("lambda1_minus", orders.shifted(2)))
    amap = ws.amaps[t]
    # pull back: What(xhat) = A^{-1} W(A xhat + b) A, a linear matrix poly
    c = lin_field.coeffs[t].reshape(3, 3, -1)
    # lin_field is compose-kind: W(x) = What_lin(xhat); same reference coeffs
    What = np.einsum("pa,abn,bq->pqn", amap.A_inv, c, amap.A).reshape(9, -1)
    target = mo.embed(What, 3, 1, orders.tet + 2)
    x = linalg.least_squares(basis.flat().T, target.reshape(-1))
    resid = basis.flat().T @ x - target.reshape(-1)
    if np.abs(resid).max() > 1e-9 * max(1.0, np.abs(target).max()):
        raise SingularMomentSystem("linear field is not representable in the edge space")
    return np.einsum("b,bcn->cn", x, basis.coeffs)


def interp_p1minus_stabilized(mesh, orders, W, ws=None):
    """Edge interpolant of (W - clement W) plus clement W.

    Keeps the tangential-commutation property of the edge interpolant
    while staying uniformly bounded in H1.
    """
    ws = Workspace(mesh, orders) if ws is None else ws
    R = clement(mesh, W, orders)
    Rs = R.as_sample()
    diff = W - Rs if isinstance(W, FieldSample) else W.as_sample() - Rs
    per_elem, degs = [], []
    for t in range(mesh.n_tets):
        c1 = interp_p1minus(ws, t, diff)
        c2 = lift_linear_into_op1(ws, t, R)
        deg = int(orders.tet_orders[t]) + 2
        per_elem.append(c1 + c2)
        degs.append(deg)
    return elementwise_to_global(mesh, orders, "op1", degs, per_elem, space="p1_minus")


# ---------------------------------------------------------------------------
# conforming full-space stress interpolant and its element dof systems

@dataclass
class StressElement:
    """Moment system of one element of the conforming stress space.

    It keeps the basis of its signature (ps.stress_basis, one object per
    signature), the moment matrix C, its LU factors and the dof layout;
    the dual basis C^{-1} is derived from the LU on demand (dual_basis).
    """

    basis: object            # matrix-valued reference basis (PolyBasis)
    deg: int
    C: np.ndarray            # rows: faces (local 0..3), div, interior
    lu: object
    dof_ids: np.ndarray      # global ids in row order
    face_slices: list        # per local face
    div_slice: slice
    int_slice: slice

    def dual_basis(self):
        """X = C^{-1}: the element shape functions in the basis."""
        return linalg.lu_apply(self.lu, np.eye(self.basis.dim))


@lru_cache(maxsize=None)
def _divfree_interior(rt):
    """(divergence-free zero-trace matrix basis of degree rt+1, its Gram)."""
    ring = ps.basis_ring("lambda2", rt + 1)
    if ring.dim:
        divs = ps.differentiate(ring.coeffs, rt + 1, "div")
        combos = linalg.nullspace(divs.reshape(ring.dim, -1).T)
        N_vec = np.einsum("kb,bcn->kcn", combos, ring.coeffs)
    else:
        N_vec = np.zeros((0, 3, mo.count(3, rt + 1)))
    Nb = ps.to_matrix_rows(
        ps.PolyBasis("divfree_ring", 3, rt + 1, np.ascontiguousarray(N_vec), rt + 1)
    )
    return Nb, mo.gram_simplex(3, rt + 1)


class StressSpace:
    """The H(div)-conforming matrix-valued flux space of order r+1.

    Degrees of freedom: per global face, moments of the normal trace
    against P_{r(F)+1}(F;V) in a globally fixed face frame (so the two
    adjacent elements share them, with an orientation sign); per element,
    divergence moments against zero-mean vectors of degree r(T) and L2
    moments against the divergence-free zero-trace subspace.  The element
    shape functions are the dual basis of these functionals.
    """

    def __init__(self, mesh, orders, ws=None):
        self.mesh = mesh
        self.orders = orders
        self.ws = Workspace(mesh, orders) if ws is None else ws
        self.face_frames = [
            ps.make_face_frame(mesh.vertices[mesh.faces[f]]) for f in range(mesh.n_faces)
        ]
        face_ndof = [3 * mo.count(2, int(r) + 1) for r in orders.face_orders]
        self.face_offset = np.concatenate([[0], np.cumsum(face_ndof)])
        self.elements = []
        offset = int(self.face_offset[-1])
        for t in range(mesh.n_tets):
            elem, offset = self._build_element(t, offset)
            self.elements.append(elem)
        self.n_dofs = offset

    def _build_element(self, t, offset):
        mesh, orders, ws = self.mesh, self.orders, self.ws
        ro = ws.ref_orders(t)
        rt = ro.tet
        basis = ps.stress_basis(ro)
        deg = rt + 1
        nb = basis.dim
        amap = ws.amaps[t]
        mats = basis.coeffs.reshape(nb, 3, 3, -1)
        rows = []
        dof_ids = []
        face_slices = []
        pos = 0
        for f in range(4):
            fid = mesh.tet_faces[t][f]
            rf = int(orders.face_orders[fid]) + 1
            gframe = self.face_frames[fid]
            rframe = ps.REF_FACE_FRAMES[f]
            # global monomial test modes composed with the reference chart
            L2 = np.column_stack([gframe.t1, gframe.t2]).T @ amap.A @ np.column_stack(
                [rframe.t1, rframe.t2]
            )
            c2 = np.column_stack([gframe.t1, gframe.t2]).T @ (
                amap.A @ rframe.origin + amap.b - gframe.origin
            )
            # global-face monomials composed with the reference chart:
            # y_glob = c2 + L2 yhat
            S = mo.substitution_matrix(2, rf, L2, c2)
            mu_ref = mo.embed(S, 2, rf, deg)          # (ns, n2(deg)) in yhat
            sign = mesh.tet_face_sign[t, f] * _REF_OUTWARD_SIGN[f]
            tr = ps.trace_normal(mats, rframe, ps._ref_face_subst(f, deg))
            vals = sign * (tr @ (ps.ref_face_gram(f, deg) @ mu_ref.T))   # (nb, 3, ns)
            rows.append(vals.transpose(2, 1, 0).reshape(-1, nb))
            ns = mu_ref.shape[0]
            face_slices.append(slice(pos, pos + 3 * ns))
            pos += 3 * ns
            dof_ids.append(self.face_offset[fid] + np.arange(3 * ns))
        # divergence rows
        divs = ps.differentiate(basis.coeffs, deg, "div")
        zm = ps.zero_mean_volume_modes(rt)
        if zm.shape[0]:
            G3r = mo.gram_simplex(3, rt)
            vals = np.einsum("bln,nm,sm->slb", divs, G3r, zm[:, 0, :])
            rows.append(vals.reshape(-1, nb))
        div_slice = slice(pos, pos + 3 * zm.shape[0])
        pos = div_slice.stop
        dof_ids.append(np.arange(offset, offset + 3 * zm.shape[0]))
        offset += 3 * zm.shape[0]
        # interior rows against the divergence-free zero-trace subspace,
        # mapped through M = A^T A (the physical L2 pairing of two flux maps)
        Nb, G3 = _divfree_interior(rt)
        if Nb.dim:
            M = amap.A.T @ amap.A
            Ncoef = Nb.coeffs.reshape(Nb.dim, 3, 3, -1)
            nuM = np.einsum("jpkn,kq->jpqn", Ncoef, M)
            rows.append(nuM.reshape(Nb.dim, -1) @ (basis.coeffs @ G3.T).reshape(nb, -1).T)
        int_slice = slice(pos, pos + Nb.dim)
        pos = int_slice.stop
        dof_ids.append(np.arange(offset, offset + Nb.dim))
        offset += Nb.dim
        C = np.vstack(rows) if rows else np.zeros((0, nb))
        if C.shape[0] != C.shape[1]:
            raise DimensionMismatch(
                f"stress element system is {C.shape[0]}x{C.shape[1]} on tet {t}"
            )
        try:
            lu = linalg.lu_factor(C)
        except linalg.SingularMatrix as exc:
            raise SingularMomentSystem(
                f"stress element system singular on tet {t}: {exc}"
            ) from exc
        elem = StressElement(
            basis=basis,
            deg=deg,
            C=C,
            lu=lu,
            dof_ids=np.concatenate(dof_ids).astype(np.int64),
            face_slices=face_slices,
            div_slice=div_slice,
            int_slice=int_slice,
        )
        return elem, offset

    # -- functionals of a field sample (the interpolation right-hand side)

    def element_rhs(self, t, U):
        mesh, ws = self.mesh, self.ws
        elem = self.elements[t]
        amap = ws.amaps[t]
        rhs = np.zeros(elem.C.shape[0])
        for f in range(4):
            fid = mesh.tet_faces[t][f]
            gframe = self.face_frames[fid]
            pts = ws.face_points[fid]
            w = ws.face_weights[fid]
            mv = mo.eval_basis(2, int(self.orders.face_orders[fid]) + 1, gframe.to_y(pts))
            Uv = U.value(pts, t)
            Un = np.einsum("qij,j->qi", Uv, gframe.normal)
            block = np.einsum("q,qs,qi->si", w, mv, Un)
            rhs[elem.face_slices[f]] = block.reshape(-1)
        ro = ws.ref_orders(t)
        zm = ps.zero_mean_volume_modes(ro.tet)
        if zm.shape[0]:
            zv = mo.evaluate(zm[:, 0, :], 3, ro.tet, ws.vol_rule.points)
            Uj = U.jacobian(amap.apply(ws.vol_rule.points), t)
            divU = np.einsum("qijj->qi", Uj)
            block = amap.det * np.einsum("q,sq,qi->si", ws.vol_rule.weights, zv, divU)
            rhs[elem.div_slice] = block.reshape(-1)
        Nb, _ = _divfree_interior(ro.tet)
        if Nb.dim:
            M = amap.A.T @ amap.A
            Nv = mo.evaluate(Nb.coeffs, 3, ro.tet + 1, ws.vol_rule.points)
            Nv = np.moveaxis(Nv.reshape(Nb.dim, 3, 3, -1), -1, 1)     # (j,q,3,3)
            nuM = np.einsum("jqpk,kl->jqpl", Nv, M)
            Uv = U.value(amap.apply(ws.vol_rule.points), t)
            Upull = amap.det * np.einsum("qab,cb->qac", Uv, amap.A_inv)
            block = np.einsum("q,jqpl,qpl->j", ws.vol_rule.weights, nuM, Upull)
            rhs[elem.int_slice] = block
        return rhs

    def interpolate_element(self, t, U):
        """Monomial coefficients (9, n) of the element interpolant."""
        return self.coeffs_from_dofs(t, self.element_rhs(t, U))

    def coeffs_from_dofs(self, t, dof_values):
        elem = self.elements[t]
        x = linalg.lu_apply(elem.lu, dof_values)
        return np.einsum("b,bcn->cn", x, elem.basis.coeffs)

    def dofs_of_field(self, t, U):
        """Dof values of a smooth field (the interpolation functionals)."""
        return self.element_rhs(t, U)


def interp_p2(mesh, orders, U, space=None, ws=None):
    """Conforming stress interpolant with the divergence-compatibility
    property: elementwise, div of the result is the L2 projection of div U.
    """
    space = StressSpace(mesh, orders, ws) if space is None else space
    per_elem = [space.interpolate_element(t, U) for t in range(mesh.n_tets)]
    degs = [int(orders.tet_orders[t]) + 1 for t in range(mesh.n_tets)]
    return elementwise_to_global(mesh, orders, "piola", degs, per_elem, space="stress_full")
