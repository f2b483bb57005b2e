"""Projection and interpolation operators on tetrahedral meshes.

Implements the elementwise L2 projection, the commuting full-space stress
interpolant, the two trimmed-family moment interpolants (whose auxiliary
moments test against the gradient complement), the Clement patch-average
smoother, and the stabilized combination of the last two.  Physical
elements are handled by pulling fields back to the reference tet; the
pullbacks used are the ones that intertwine each operator with its
reference version, so one moment matrix factorization per order signature
serves every element.

A DiscreteField stores, per element, reference-coordinate monomial
coefficients plus a transform kind that says how reference values push
forward to physical ones.

Mesh-wide quadrature runs on blocks of tets, not one tet at a time.  A
block (tet_blocks, at most BLOCK_POINTS points) is mapped through the
stacked affine data of the mesh (SimplicialMesh.affine) and evaluated once
(block_values): an analytic FieldSample in one call with one tet id per
point, a DiscreteField with one matrix product per degree group followed by
the pushforward of the whole stack.  The moment interpolants take the tets
of one order signature as a block (Workspace.blocks), with one field
evaluation per point set and one multi-column solve per block; their
element calls take one tet or such a block, and one tet is a block of one.

Independent items run on every usable CPU (map_blocks): one less worker
thread than len(os.sched_getaffinity(0)), and the calling thread, take the
items in turn.  Work that builds reference data of an order signature goes
through map_signatures: the StressSpace keys, the raw Grams and element
stacks of assembly, and the blocks of the moment interpolants.  l2_norm,
which builds no signature data, maps its blocks directly and adds their
partial sums in block order; every other caller places its results in item
order, so every result has the bits of the serial loop, which runs on one
usable CPU.

Face moments are taken in the coordinates of each face's vertices in
ascending global order, so both neighbours of a face test against the same
functions.  Pulled back to the reference tet, a face row or face rule then
depends only on the order signature, the local face and the order of its
vertices (Workspace.face_perms), and is cached per such key, not per tet.  The
interior moments of the stress space pair the flux pullback with its test
functions on the reference tet as well, so a tet's whole stress moment
matrix is its face orientation signs times one matrix per (signature, face
vertex orders) key, which StressSpace factors and inverts once per key.

One builder, moment_matrix, forms the reference moment matrices of the
stress element and of both trimmed interpolants: face rows from
polyspace.trace against per-face test tables, divergence rows against the
zero-mean modes and volume rows against a family (the gradient complement
of the trimmed systems, the divergence-free interior of the stress element).
moment_rhs forms their right-hand sides from the pulled-back field on the
face rule laid out per tet; the two tets of a face map it to the same points
up to roundoff, so the interpolants conform to roundoff (elementwise_to_global).
"""

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np
import scipy.linalg

from . import expr, linalg, monomials as mo, polyspace as ps, quadrature, reftet, tensor_ops


class SingularMomentSystem(Exception):
    pass


class DimensionMismatch(Exception):
    pass


class ConformityViolation(Exception):
    pass


# whether each reference face frame's normal points out of the reference tet
_REF_OUTWARD_SIGN = np.array([1 if fr.normal @ (fr.origin - reftet.VERTICES.mean(axis=0)) > 0 else -1
                              for fr in ps.REF_FACE_FRAMES])


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
        """Field from a nested list of formula strings in x, y, z.

        The formulas use the subset of sympy syntax that expr.parse accepts:
        numbers, x y z pi, + - * / ** and unary minus, sin cos exp sqrt log.
        Anything else raises ValueError before it is evaluated.
        """
        return FieldSample.from_trees(
            np.vectorize(expr.parse, otypes=[object])(np.array(entries, dtype=object))
        )

    @staticmethod
    def from_trees(trees):
        """Field from an object array of expr trees, with their derivative
        trees as its Jacobian, differentiated and compiled on its first call
        (under a lock, so once, whichever thread calls first)."""
        shape = trees.shape
        f_all = expr.compile_trees(list(trees.ravel()))
        lock, df_all = threading.Lock(), []

        def val(pts, tet):
            return f_all(pts).reshape((len(pts),) + shape)

        def jac(pts, tet):
            with lock:
                if not df_all:
                    df_all.append(expr.compile_trees(
                        [expr.diff(t, v) for t in trees.ravel() for v in expr.VARIABLES]))
            return df_all[0](pts).reshape((len(pts),) + shape + (3,))

        return FieldSample(shape, val, jac)

    def __sub__(self, other):
        assert self.shape == other.shape

        def val(pts, tet):
            return self.value(pts, tet) - other.value(pts, tet)

        def jac(pts, tet):
            return self.jacobian(pts, tet) - other.jacobian(pts, tet)

        return FieldSample(self.shape, val, jac if self.jac_fn is not None and other.jac_fn is not None else None)

    def apply_s1(self):
        """Pointwise transpose-minus-trace of a matrix field, over any leading axes."""
        assert self.shape == (3, 3)
        eye = np.eye(3)

        def val(pts, tet):
            W = self.value(pts, tet)      # (..., 3, 3)
            return np.swapaxes(W, -1, -2) - np.einsum("...ii", W)[..., None, None] * eye

        def jac(pts, tet):
            J = self.jacobian(pts, tet)   # (..., 3, 3, 3)
            return (
                np.swapaxes(J, -3, -2)
                - np.einsum("...iik->...k", J)[..., None, None, :] * eye[:, :, None]
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


def _push_matrices(kind, A, A_inv, det):
    """(L, R) with value = L @ what @ R for matrix fields pushed forward by
    maps with matrices A (..., 3, 3), inverses A_inv and determinants det
    (None for compose).  With A and A_inv swapped and det inverted they are
    the factors of the pullback (_pullback)."""
    if kind == "compose":
        return None
    if kind == "piola":
        return np.eye(3) / np.asarray(det)[..., None, None], np.swapaxes(A, -1, -2)
    if kind == "op2":
        return np.swapaxes(A_inv, -1, -2), np.swapaxes(A, -1, -2)
    if kind == "op1":
        return A, A_inv
    raise ValueError(kind)


@lru_cache(maxsize=None)
def _grad_matrix(deg):
    """D with the gradient coefficients (..., 3, n3(deg-1)) = (coeffs @ D) reshaped."""
    return np.hstack([mo.diff_matrix(3, deg, ax) for ax in range(3)])


@dataclass
class DiscreteField:
    """Per-element polynomial field on a mesh.

    coeffs[t] has shape (ncomp, nmono(deg[t])) in reference coordinates of
    element t; kind fixes the pushforward.  Vector fields have ncomp 3 and
    matrix fields ncomp 9.

    A block of tets is evaluated at shared reference points with one
    matrix product per degree group (evaluate_block, jacobian_block), and
    the pushforward is applied to the whole stack; evaluate_ref and
    jacobian_ref are the one-tet calls.
    """

    mesh: object
    kind: str
    degs: list
    coeffs: list

    @property
    def shape(self):
        return (3, 3) if self.coeffs[0].shape[0] == 9 else (3,)

    def _stacked(self, tets, deriv):
        """(degree, (len(tets), ncomp or 3 ncomp, n)) coefficients of the
        values or the reference gradients of tets, which share one degree."""
        deg = self.degs[tets[0]]
        C = np.stack([self.coeffs[t] for t in tets])
        if not deriv:
            return deg, C
        dC = C @ _grad_matrix(deg)
        return max(deg - 1, 0), dC.reshape(len(tets), 3 * C.shape[1], -1)

    def _by_degree(self, tets, deriv, n_pts):
        """Index arrays of tets by degree, and an empty array
        (len(tets), 3 ncomp if deriv else ncomp, n_pts) for the reference values."""
        degs = np.array([self.degs[t] for t in tets])
        width = self.coeffs[0].shape[0] * (3 if deriv else 1)
        groups = [np.flatnonzero(degs == d) for d in np.unique(degs)]
        return groups, np.empty((len(tets), width, n_pts))

    def _push(self, tets, ref, deriv):
        """Physical values (N, m, *shape) or derivatives (N, m, *shape, 3) of
        reference values or gradients ref (N, m, ncomp or 3 ncomp) in tets (N,).
        Each factor of the pushforward is one matrix product per tet over all
        its points."""
        aff = self.mesh.affine
        N, m = ref.shape[:2]
        ncomp = self.coeffs[0].shape[0]
        if deriv:                                           # d/dx = (d/dxhat) A^{-1}
            ref = (ref.reshape(N, -1, 3) @ aff.A_inv[tets]).reshape(N, m, ncomp, 3)
        if ncomp == 3:
            return ref
        out_shape = (N, m, 3, 3) + ref.shape[3:]
        LR = _push_matrices(self.kind, aff.A[tets], aff.A_inv[tets], aff.det[tets])
        if LR is None:
            return ref.reshape(out_shape)
        L, R = LR
        W = np.swapaxes(ref.reshape(N, m, 3, 3, -1), 3, 4)   # (N, m, j, d, k); d: 1 or 3
        d = W.shape[3]
        WR = (W.reshape(N, -1, 3) @ R).reshape(N, m, 3, d, 3)           # sum over k
        LWR = L @ np.moveaxis(WR, 2, 1).reshape(N, 3, -1)               # sum over j
        return np.swapaxes(np.moveaxis(LWR.reshape(N, 3, m, d, 3), 1, 2), 3, 4).reshape(out_shape)

    def _block(self, tets, ref_pts, deriv):
        """_push of the tets at reference points ref_pts: (m, 3), shared by the
        tets (one matrix product per degree group), or (len(tets), m, 3)."""
        tets = np.asarray(tets, dtype=np.int64)
        ref_pts = np.atleast_2d(ref_pts)
        m = ref_pts.shape[-2]
        groups, ref = self._by_degree(tets, deriv, m)
        for sel in groups:
            deg, C = self._stacked(tets[sel], deriv)
            if ref_pts.ndim == 2:
                V = mo.eval_basis(3, deg, ref_pts)
                ref[sel] = (C.reshape(-1, C.shape[-1]) @ V.T).reshape(len(sel), -1, m)
            else:
                V = mo.eval_basis(3, deg, ref_pts[sel].reshape(-1, 3)).reshape(len(sel), m, -1)
                ref[sel] = C @ np.swapaxes(V, 1, 2)
        return self._push(tets, np.swapaxes(ref, 1, 2), deriv)

    def evaluate_block(self, tets, ref_pts):
        """Physical values at reference points of each element: (len(tets), m, *shape)."""
        return self._block(tets, ref_pts, False)

    def jacobian_block(self, tets, ref_pts):
        """Physical derivatives at reference points: (len(tets), m, *shape, 3)."""
        return self._block(tets, ref_pts, True)

    def evaluate_ref(self, t, ref_pts):
        """Physical values at reference points of element t: (m, *shape)."""
        return self.evaluate_block([t], ref_pts)[0]

    def jacobian_ref(self, t, ref_pts):
        """Physical derivatives at reference points: (m, *shape, 3)."""
        return self.jacobian_block([t], ref_pts)[0]

    def _at_points(self, pts, tet, deriv):
        """Values or derivatives at physical points; tet is one tet id or one
        per point.  The points are grouped by tet: when every tet has the
        same number of points, the group is evaluated as a block of tets at
        their own points; otherwise each point is a block row of its own."""
        tet = np.broadcast_to(np.asarray(tet, dtype=np.int64), len(pts))
        order = np.argsort(tet, kind="stable")
        tets, counts = np.unique(tet, return_counts=True)
        if np.all(counts == counts[0]):
            x = pts[order].reshape(len(tets), counts[0], 3)
        else:
            tets, x = tet[order], pts[order][:, None, :]
        vals = self._block(tets, self.mesh.affine.pull(tets, x), deriv)
        out = np.empty((len(pts),) + vals.shape[2:])
        out[order] = vals.reshape(out.shape)
        return out

    def as_sample(self):
        return FieldSample(
            self.shape,
            lambda pts, tet: self._at_points(pts, tet, False),
            lambda pts, tet: self._at_points(pts, tet, True),
        )

    def copy_with(self, coeffs, kind=None, degs=None):
        return DiscreteField(
            mesh=self.mesh,
            kind=self.kind if kind is None else kind,
            degs=self.degs if degs is None else degs,
            coeffs=coeffs,
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
    out = [ps.differentiate(c, d, "div") / det for c, d, det in zip(df.coeffs, df.degs, df.mesh.affine.det)]
    return df.copy_with(out, kind="compose", degs=[max(d - 1, 0) for d in df.degs])


# ---------------------------------------------------------------------------
# block evaluation

# Cap on the points at which one block of tets is evaluated: a 9-component
# array over a full block takes 1.2 MB, and its Jacobian 3.5 MB.  Larger
# caps ran no faster, and raised the peak RSS of a solve with error norms:
# by 3 MB on a 48-tet mixed-order cube at 2**16, and by 2.3 MB on a 162-tet
# cube at 2**17, where the load vector became one block.
BLOCK_POINTS = 2**14


def tet_blocks(tets, per_tet, cap=BLOCK_POINTS):
    """tets in consecutive blocks of near-equal size, each of at most
    cap // per_tet tets (at least one)."""
    tets = np.asarray(tets, dtype=np.int64)
    if len(tets) == 0:
        return []
    return np.array_split(tets, -(-len(tets) // max(cap // per_tet, 1)))


_IN_BLOCK = threading.local()       # .on: this thread is running an item of map_blocks


@lru_cache(maxsize=None)
def _block_pool(n_workers):
    return ThreadPoolExecutor(n_workers, thread_name_prefix="afw3d-block")


def map_blocks(fn, items):
    """[fn(item) for item in items], on len(os.sched_getaffinity(0)) - 1
    worker threads and the calling thread, which take the items in turn.
    The results come back in item order, and if items fail, the exception of
    the first of them is raised, as the plain loop would raise it.  The plain
    loop runs for one item, on one usable CPU, and when fn itself calls
    map_blocks, so no thread waits on another that is waiting too: an item
    that maps its own blocks runs them in parallel only when it is the one
    item of its call.  numpy's BLAS and the elementwise kernels release the
    GIL, so the items of one call overlap; each fn(item) is computed exactly
    as in the plain loop.  Items may build the same lru_cache entry at the
    same time; the builders are pure, so either result has the same bits."""
    items = list(items)
    n_workers = min(len(os.sched_getaffinity(0)), len(items)) - 1
    if n_workers < 1 or getattr(_IN_BLOCK, "on", False):
        return [fn(item) for item in items]
    results, errors, lock, order = [None] * len(items), {}, threading.Lock(), iter(range(len(items)))

    def take():
        """Run the next item until none is left or one has failed."""
        _IN_BLOCK.on = True
        try:
            while not errors:
                with lock:
                    k = next(order, None)
                if k is None:
                    return
                try:
                    results[k] = fn(items[k])
                except BaseException as exc:
                    errors[k] = exc
        finally:
            _IN_BLOCK.on = False

    futures = [_block_pool(n_workers).submit(take) for _ in range(n_workers)]
    take()
    for fut in futures:
        fut.result()
    if errors:      # the items before any failed one were all taken, and ran
        raise errors[min(errors)]
    return results


def map_signatures(fn, members):
    """The one policy for per-signature work: members are tuples (ro, x, ...)
    in which the members of each order signature ro come in a row; each
    signature is one item of map_blocks, which calls fn(ro, [x, ...]) on the
    second entries of its members, and fn returns one result per member.
    The results come back in member order.  An item builds its signature's
    reference data once, for all its members, which run in turn; when fn maps
    its own members through map_blocks, they run in parallel only on a mesh
    of one signature, as map_blocks runs a nested call serially."""
    runs = [(ro, [m[1] for m in run]) for ro, run in itertools.groupby(members, key=lambda m: m[0])]
    return [result for results in map_blocks(lambda run: fn(*run), runs) for result in results]


def values_at(fn, tets, x):
    """fn (a FieldSample's value or jacobian) at the physical points x
    (len(tets), m, 3) in one call, with the tet of each point as its hint:
    (len(tets), m, ...)."""
    v = fn(x.reshape(-1, 3), np.repeat(tets, x.shape[1]))
    return v.reshape(x.shape[:2] + v.shape[1:])


def block_values(mesh, field, tets, ref_pts):
    """Values (len(tets), m, *shape) of field at the reference points ref_pts
    (m, 3) mapped into each of tets.  A DiscreteField is evaluated by
    evaluate_block; a FieldSample once at all the mapped points (values_at)."""
    if isinstance(field, DiscreteField):
        return field.evaluate_block(tets, ref_pts)
    return values_at(field.value, tets, mesh.affine.apply(tets, ref_pts))


# Agreement on the squared norm that ends l2_norm's refinement of its rule
# for analytic data: 1e-7 relative on the norm itself.
L2_SQ_RTOL = 2e-7


def l2_norm(mesh, field, quad_deg, tets=None, minus=None):
    """L2 norm of field, or of field - minus, over the elements tets.

    field is a FieldSample (with tet hints) or a DiscreteField; minus, when
    given, is a DiscreteField.  The tets are evaluated in blocks
    (tet_blocks, block_values): each block maps the points of all its tets,
    evaluates once and contracts with the weights.  The blocks run through
    map_blocks, and their partial sums are added in block order, so the
    norm has the bits of the serial loop.

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
    tets = np.arange(mesh.n_tets) if tets is None else np.asarray(tets, dtype=np.int64)
    det = mesh.affine.det

    def sums(rules):
        """Squared norm under each rule, and int |e| (|field| + |minus|)
        under the last, from one evaluation on all their points."""
        pts = np.vstack([r.points for r in rules])
        weights = scipy.linalg.block_diag(*[r.weights for r in rules])   # (rules, points)

        def block_sums(block):
            e = block_values(mesh, field, block, pts).reshape(len(block), len(pts), -1)
            size = np.linalg.norm(e, axis=2)
            if minus is not None:
                w = minus.evaluate_block(block, pts).reshape(e.shape)
                e = e - w
                size += np.linalg.norm(w, axis=2)
            e_sq = np.sum(e**2, axis=2)                  # (tets, points)
            return det[block] @ (e_sq @ weights.T), det[block] @ ((np.sqrt(e_sq) * size) @ weights[-1])

        totals = np.zeros(len(rules))
        floor = 0.0
        for block_totals, block_floor in map_blocks(block_sums, tet_blocks(tets, len(pts))):
            totals += block_totals
            floor += block_floor
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
# The 1minus conditions are the 2minus ones with tangential instead of
# normal face traces, and with S1 applied to the field in the divergence and
# auxiliary rows.  The stress element conditions have the 2minus form, with
# other face modes and the divergence-free interior as the volume family.

def moment_matrix(basis, rt, kind, face_tables, face_signs, family, what):
    """(M, face slices, divergence slice, volume slice): the square moment
    matrix of a matrix-valued reference basis on a tet of order rt.

    Face f gives face_signs[f] times the kind trace ("normal" or
    "tangential-face") of the basis on reference face f times the table
    face_tables[f] (n2(deg), ns), in (mode, direction, row) order.  The
    divergence rows test against zero_mean_volume_modes(rt), the volume rows
    against the matrix-valued PolyBasis family, in the L2 pairing of the
    reference tet, and of S1 of the basis for tangential traces.  Raises
    DimensionMismatch, naming the system what, if M is not square.
    """
    deg, nb = basis.deg, basis.dim
    rows, face_slices, pos = [], [], 0
    for f in range(4):
        vals = face_signs[f] * (ps.trace(basis, deg, f, kind) @ face_tables[f])  # (nb, 3, [a,] ns)
        rows.append(vals.T.reshape(-1, nb))
        face_slices.append(slice(pos, pos + len(rows[-1])))
        pos += len(rows[-1])
    coeffs = basis.coeffs if kind == "normal" else tensor_ops.S1_MATRIX @ basis.coeffs
    zm = mo.embed(ps.zero_mean_volume_modes(rt)[:, 0, :], 3, rt, deg - 1)
    rows.append(np.einsum("bln,nm,sm->slb", ps.differentiate(coeffs, deg, "div"),
                          mo.gram_simplex(3, deg - 1), zm).reshape(-1, nb))
    div_slice = slice(pos, pos + len(rows[-1]))
    rows.append(np.tensordot(mo.embed(family.coeffs, 3, family.deg, deg),
                             coeffs @ mo.gram_simplex(3, deg).T, axes=([1, 2], [1, 2])))
    M = np.vstack(rows)
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"{what} is {M.shape[0]}x{M.shape[1]}")
    return M, face_slices, div_slice, slice(div_slice.stop, len(M))


def moment_rhs(ws, tets, field, rt, kind, face_modes, face_signs, family, dim, what):
    """(len(tets), dim): moment_matrix's functionals, same arguments, of a
    pulled-back field on the tets of one signature.  Face f tests face_signs[f]
    times the kind trace of field against the mode values face_modes(f, perm)
    (ns, q) at the face rule laid out in the tet's vertex order perm
    (Workspace.face_perms).  The field is evaluated once per face: a
    polynomial field evaluates by one GEMM over all its points, whose bits
    depend on the number of points.  Raises DimensionMismatch if the length
    is not dim."""
    rhs, rule = [], ws.vol_rule
    perms = ws.face_perms[tets]
    codes = perms @ (9, 3, 1)                   # (tets, 4): each face's vertex order as one integer
    for f in range(4):
        _, first, which = np.unique(codes[:, f], return_index=True, return_inverse=True)
        rules = [_ref_face_rule(f, p, ws.face_deg) + (face_modes(f, p),)
                 for p in map(tuple, perms[first, f].tolist())]
        xhat, w, modes = (np.stack(a)[which] for a in zip(*rules))
        Ut = face_signs[f] * (field.value(xhat, tets) @ np.atleast_2d(ps.trace_directions(f, kind)).T)
        rhs.append(np.einsum("tq,tsq,tqia->tsai", w, modes, Ut).reshape(len(tets), -1))
    field = field if kind == "normal" else field.apply_s1()
    pts = np.broadcast_to(rule.points, (len(tets),) + rule.points.shape)
    zm = ps.zero_mean_volume_modes(rt)
    if zm.shape[0]:
        zv = mo.evaluate(zm[:, 0, :], 3, rt, rule.points)
        divU = np.einsum("tmikk->tmi", field.jacobian(pts, tets))
        rhs.append(np.einsum("q,sq,tqi->tsi", rule.weights, zv, divU).reshape(len(tets), -1))
    if family.dim:
        hv = mo.evaluate(family.coeffs, 3, family.deg, rule.points)          # (k, 9, q)
        Uv = field.value(pts, tets).reshape(len(tets), -1, 9)
        rhs.append(np.einsum("q,kcq,tqc->tk", rule.weights, hv, Uv))
    rhs = np.concatenate(rhs, axis=1)
    if rhs.shape[1] != dim:
        raise DimensionMismatch(f"{what} has {dim} rows, its right-hand side {rhs.shape[1]}")
    return rhs


def _lu_factor(M, what):
    """linalg.lu_factor of the moment matrix M of the system named what."""
    try:
        return linalg.lu_factor(M)
    except linalg.SingularMatrix as exc:
        raise SingularMomentSystem(f"{what} is singular: {exc}") from exc


@dataclass
class MomentSystem:
    """Square moment matrix over a trimmed-space basis.

    Rows are grouped face / divergence / auxiliary, in that order
    (moment_matrix); the columns follow the reference basis of the target
    space.
    """

    kind: str                 # "2minus" or "1minus"
    orders: object
    matrix: np.ndarray
    groups: dict              # name -> slice
    basis: object             # PolyBasis (matrix-valued)
    lu: object = None

    @property
    def dim(self):
        return self.matrix.shape[0]


def _aux_family(r):
    """The auxiliary family of the trimmed systems: the gradient complement
    (polyspace.complement_g_basis), embedded at degree r(T)."""
    g = ps.complement_g_basis(r)
    return ps.PolyBasis("aux", 9, max(r, 0), mo.embed(g.coeffs, 3, g.deg, max(r, 0)))


_TRACE_KIND = {"2minus": "normal", "1minus": "tangential-face"}


def build_moment_system(kind, orders):
    """Square matrix of the kind's trimmed interpolation conditions: face
    traces against P_{rF}(F;V) in the face-frame modes, and auxiliary rows
    against the gradient complement."""
    basis = ps.to_matrix_rows(ps.basis_variable("lambda2_minus", orders.shifted(1)) if kind == "2minus"
                              else ps.basis_lambda1_minus_edge_zero(orders.shifted(2)))
    deg = basis.deg
    tables = [ps.ref_face_gram(f, deg) @ mo.embed(ps.scalar_face_modes(f, rf)[:, 0, :], 2, rf, deg).T
              for f, rf in enumerate(orders.faces)]
    M, face_slices, div_slice, aux_slice = moment_matrix(
        basis, orders.tet, _TRACE_KIND[kind], tables, (1, 1, 1, 1), _aux_family(orders.tet),
        f"{kind} system for orders {orders}")
    groups = {"face": slice(0, face_slices[-1].stop), "div": div_slice, "aux": aux_slice}
    return MomentSystem(kind, orders, M, groups, basis)


@lru_cache(maxsize=None)
def reference_systems(orders):
    """(2minus, 1minus) moment systems, LU-factored."""
    systems = tuple(build_moment_system(kind, orders) for kind in ("2minus", "1minus"))
    for s in systems:
        s.lu = _lu_factor(s.matrix, f"{s.kind} system for orders {orders}")
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

    The moment interpolants lay the face rule tri_rule out on the reference
    tet in each tet's face vertex orders (face_perms).  face_points (F, q, 3)
    and face_weights (F, q) are that rule on each global face, in the
    coordinates of its vertices in ascending global order and the physical
    surface measure; only the boundary term of assembly reads them.  Per tet
    only the index of its order signature is kept: one polyspace.RefOrders
    per signature comes from one np.unique over the rows of tet, face and
    edge orders.
    """

    def __init__(self, mesh, orders):
        self.mesh = mesh
        self.orders = orders
        self.rmax = int(orders.tet_orders.max())
        self.vol_deg = 2 * (self.rmax + 2) + VOL_QUAD_MARGIN
        self.vol_rule = quadrature.rule_for(3, self.vol_deg)
        self.face_deg = self.vol_deg + FACE_QUAD_EXTRA
        self.tri_rule = tri = quadrature.rule_for(2, self.face_deg)
        V = mesh.vertices[mesh.faces]                                  # (F, 3, 3), sorted ids
        E = V[:, 1:] - V[:, None, 0]
        self.face_points = V[:, None, 0] + tri.points @ E              # (F, q, 3)
        self.face_weights = np.outer(np.linalg.norm(np.cross(E[:, 0], E[:, 1]), axis=1),
                                     tri.weights)                      # (F, q)
        # one row of orders per tet: tet, its 4 faces and its 6 edges
        rows = np.column_stack([orders.tet_orders, orders.face_orders[mesh.tet_faces],
                                orders.edge_orders[mesh.tet_edges]])
        sigs, first, sig = np.unique(rows, axis=0, return_index=True, return_inverse=True)
        order = np.argsort(first)           # the signatures in order of first appearance
        self._sig_of = np.argsort(order)[sig.ravel()]
        self._signatures = [ps.RefOrders(int(r[0]), tuple(r[1:5].tolist()), tuple(r[5:].tolist()))
                            for r in sigs[order]]
        # tet ids of each order signature
        self.signature_groups = {ro: np.flatnonzero(self._sig_of == k)
                                 for k, ro in enumerate(self._signatures)}
        # (T, 4, 3): the local vertices of each local face (reftet.FACE_VERTS)
        # as positions in ascending global vertex id
        self.face_perms = np.argsort(mesh.tets[:, reftet.FACE_VERTS], axis=2)

    @property
    def amaps(self):
        """mesh.amaps, built on first use (the operators read mesh.affine)."""
        return self.mesh.amaps

    def ref_orders(self, t):
        return self._signatures[self._sig_of[t]]

    def blocks(self):
        """(signature, tets) pairs: the tets of every signature in turn, in
        tet_blocks sized for 4 face rules and the volume rule."""
        per_tet = 4 * len(self.tri_rule.weights) + len(self.vol_rule.weights)
        return [(ro, block) for ro, tets in self.signature_groups.items()
                for block in tet_blocks(tets, per_tet)]


@lru_cache(maxsize=None)
def _ref_face_rule(f, perm, face_deg):
    """(points (q, 3), weights (q,)) of the face rule of degree face_deg on
    reference face f, laid out in the coordinates of its vertices in the
    order perm, the weights in the surface measure of reference face f."""
    tri = quadrature.rule_for(2, face_deg)
    V = reftet.VERTICES[[reftet.FACE_VERTS[f][i] for i in perm]]
    return V[0] + tri.points @ (V[1:] - V[0]), tri.weights * (ps.REF_FACE_FRAMES[f].area / 0.5)


@lru_cache(maxsize=None)
def _frame_mode_values(f, perm, rf, face_deg):
    """(ns, q): the face-frame modes scalar_face_modes(f, rf) at the points of
    _ref_face_rule(f, perm, face_deg)."""
    xhat = _ref_face_rule(f, perm, face_deg)[0]
    return mo.evaluate(ps.scalar_face_modes(f, rf)[:, 0, :], 2, rf, ps.REF_FACE_FRAMES[f].to_y(xhat))


# ---------------------------------------------------------------------------
# elementwise L2 projection

def project_l2_p3(mesh, orders, f, ws=None):
    """Elementwise L2 projection onto the vector space of order r(T)."""
    ws = Workspace(mesh, orders) if ws is None else ws
    rule = ws.vol_rule
    coeffs = [None] * mesh.n_tets
    for rt in np.unique(orders.tet_orders):
        modes = ps.volume_modes(rt)[:, 0, :]                          # (nm, n3)
        vals = mo.evaluate(modes, 3, rt, rule.points)                  # (nm, q)
        P = (rule.weights * vals).T @ modes                           # values -> monomials
        for block in tet_blocks(np.flatnonzero(orders.tet_orders == rt), len(rule.weights)):
            fv = block_values(mesh, f, block, rule.points)            # (tets, q, 3)
            for t, c in zip(block, np.swapaxes(fv, 1, 2) @ P):
                coeffs[t] = c
    degs = [int(r) for r in orders.tet_orders]
    return DiscreteField(mesh, "compose", degs, coeffs)


# ---------------------------------------------------------------------------
# trimmed-family element interpolants (reference route)

def _pullback(kind, U, aff):
    """Uhat(xhat) = L U(A xhat + b) R, the inverse of the kind's pushforward ("piola":
    det U A^{-T}, "op2": A^T U A^{-T}, "op1": A^{-1} U A), with matching derivatives.
    aff is one tet's AffineMap or the maps of a block (AffineStack.take); the
    points are (len(tets), m, 3) for the tets given as the hint."""
    L, R = _push_matrices(kind, aff.A_inv, aff.A, 1.0 / aff.det)
    # the maps of the flattened value and derivative (d/dxhat = d/dx A) per tet
    K = np.einsum("...pa,...bq->...abpq", L, R).reshape(L.shape[:-2] + (9, 9))
    KJ = np.einsum("...pa,...bq,...lk->...ablpqk", L, R, aff.A).reshape(L.shape[:-2] + (27, 27))

    def pulled(fn, M):
        def evaluate(pts_hat, tets):
            w = values_at(fn, tets, pts_hat @ np.swapaxes(aff.A, -1, -2) + aff.b[..., None, :])
            return (w.reshape(w.shape[:2] + (-1,)) @ M).reshape(w.shape)
        return evaluate

    return FieldSample((3, 3), pulled(U.value, K), pulled(U.jacobian, KJ))


def _rhs(ws, t, sysm, Uhat):
    """Right-hand side of sysm's conditions for the pulled-back field on tet
    t, or (len(t), dim) on the tets t of one signature (moment_rhs)."""
    orders = sysm.orders
    rhs = moment_rhs(ws, np.atleast_1d(t), Uhat, orders.tet, _TRACE_KIND[sysm.kind],
                     lambda f, perm: _frame_mode_values(f, perm, orders.faces[f], ws.face_deg),
                     (1, 1, 1, 1), _aux_family(orders.tet), sysm.dim,
                     f"{sysm.kind} system for orders {orders}")
    return rhs if np.ndim(t) else rhs[0]


# trimmed kind -> (index in reference_systems, pushforward, degree - r(T))
_TRIMMED = {"2minus": (0, "op2", 1), "1minus": (1, "op1", 2)}


def _interp_trimmed(kind, ws, t, U):
    """Element coefficients (9, nmono) of the kind's trimmed interpolant on
    tet t, or (len(t), 9, nmono) on the tets t of one signature."""
    which, push, _ = _TRIMMED[kind]
    sysm = reference_systems(ws.ref_orders(np.atleast_1d(t)[0]))[which]
    rhs = _rhs(ws, t, sysm, _pullback(push, U, ws.mesh.affine.take(t)))
    return np.einsum("b...,bcn->...cn", linalg.lu_apply(sysm.lu, rhs.T), sysm.basis.coeffs)


def _glue_blocks(ws, kind, shift, element_coeffs):
    """elementwise_to_global of the coefficients element_coeffs(block) on each
    block of ws.blocks() (map_signatures), of degree r(T) + shift."""
    blocks = ws.blocks()
    coeffs = [None] * ws.mesh.n_tets
    for (_, block), block_coeffs in zip(blocks, map_signatures(
            lambda ro, sig_blocks: [element_coeffs(b) for b in sig_blocks], blocks)):
        for t, c in zip(block, block_coeffs):
            coeffs[t] = c
    degs = [int(r) + shift for r in ws.orders.tet_orders]
    return elementwise_to_global(ws.mesh, kind, degs, coeffs)


def _interp_trimmed_global(kind, mesh, orders, U, ws=None):
    ws = Workspace(mesh, orders) if ws is None else ws
    return _glue_blocks(ws, *_TRIMMED[kind][1:], partial(_interp_trimmed, kind, ws, U=U))


interp_p2minus = partial(_interp_trimmed, "2minus")
interp_p1minus = partial(_interp_trimmed, "1minus")
interp_p2minus_global = partial(_interp_trimmed_global, "2minus")
interp_p1minus_global = partial(_interp_trimmed_global, "1minus")


def _outward_normal(mesh, t, local_face):
    """Unit outward normal of local face local_face of tet t: the face's
    mesh.face_normal times its sign in the tet.  Arrays t and local_face
    give one normal per pair."""
    return (mesh.face_normal[mesh.tet_faces[t, local_face]]
            * mesh.tet_face_sign[t, local_face][..., None])


# ---------------------------------------------------------------------------
# conformity and global assembly of element fields

CONFORMITY_TOL = 1e-10        # trace jump relative to max(field scale, 1)
CONFORMITY_RULE_DEG = 4       # face rule of the trace-jump check


def elementwise_to_global(mesh, kind, degs, per_elem):
    """Glue per-element coefficient arrays into a conforming DiscreteField.

    Checks interface continuity of the relevant trace (normal for flux
    kinds, tangential for the edge kind) at face quadrature points.
    """
    df = DiscreteField(mesh, kind, list(degs), list(per_elem))
    err, scale = conformity_error(df)
    if err > CONFORMITY_TOL * max(scale, 1.0):
        raise ConformityViolation(
            f"interface trace jump {err:.3e} exceeds {CONFORMITY_TOL:.0e} * {max(scale, 1.0):.3e}"
        )
    return df


def conformity_error(df):
    """Max interface trace jump and the field scale used to normalize it.

    The field is evaluated once on each side of all interior faces, at the
    points of one face rule per face."""
    mesh = df.mesh
    rule = quadrature.rule_for(2, CONFORMITY_RULE_DEG)
    fids = np.flatnonzero(~mesh.boundary_face)
    if len(fids) == 0:
        return 0.0, 0.0
    verts = mesh.vertices[mesh.faces[fids]]                           # (faces, 3, 3)
    pts = verts[:, None, 0] + rule.points @ (verts[:, 1:] - verts[:, None, 0])
    frames = [mesh.face_frames[f] for f in fids]
    if df.kind in ("piola", "op2"):
        dirs = np.array([fr.normal for fr in frames])[:, :, None]      # (faces, 3, 1)
    elif df.kind == "op1":
        dirs = np.array([np.column_stack([fr.t1, fr.t2]) for fr in frames])
    else:
        dirs = None
    sample = df.as_sample()
    vals, scale = [], 0.0
    for side in range(2):
        tets = np.array([mesh.face_tets[f][side] for f in fids])
        V = values_at(sample.value, tets, pts)
        vals.append(V if dirs is None else V @ dirs[:, None])
        scale = max(scale, np.abs(V).max())
    return np.abs(vals[0] - vals[1]).max(), scale


# ---------------------------------------------------------------------------
# Clement smoother and the stabilized interpolant

CLEMENT_QUAD_DEG = 6


def clement(mesh, W):
    """Patch-average interpolant onto continuous piecewise linears.

    The vertex value is the mean of W over the union of elements touching
    the vertex (its L2 projection onto constants there).
    """
    rule = quadrature.rule_for(3, CLEMENT_QUAD_DEG)
    det = mesh.affine.det
    integrals = np.empty((mesh.n_tets, 3, 3))
    for block in tet_blocks(np.arange(mesh.n_tets), len(rule.weights)):
        vals = block_values(mesh, W, block, rule.points)          # (tets, q, 3, 3)
        integrals[block] = det[block, None, None] * np.einsum("q,tqij->tij", rule.weights, vals)
    sums = np.zeros((mesh.n_vertices, 3, 3))
    np.add.at(sums, mesh.tets, integrals[:, None])
    vols = np.bincount(mesh.tets.ravel(), np.repeat(det / 6.0, 4), mesh.n_vertices)
    vertex_vals = (sums / vols[:, None, None]).reshape(-1, 9)[mesh.tets]   # (T, 4, 9)
    c = np.zeros((mesh.n_tets, 9, mo.count(3, 1)))
    c[:, :, 0] = vertex_vals[:, 0]
    c[:, :, mo.coordinate_index(3)] = np.swapaxes(vertex_vals[:, 1:] - vertex_vals[:, :1], 1, 2)
    return DiscreteField(mesh, "compose", [1] * mesh.n_tets, list(c))


def lift_linear_into_op1(ws, tets, lin_field):
    """Coefficients (len(tets), 9, nmono) of a continuous linear matrix field
    in the op1 space on the tets of one signature, by one least-squares solve."""
    basis = ps.to_matrix_rows(ps.basis_variable("lambda1_minus", ws.ref_orders(tets[0]).shifted(2)))
    aff = ws.mesh.affine
    # lin_field is compose-kind (reference coefficients); pull back What = A^{-1} W A
    c = np.stack([lin_field.coeffs[s] for s in tets]).reshape(len(tets), 3, 3, -1)
    What = np.einsum("tpa,tabn,tbq->tpqn", aff.A_inv[tets], c, aff.A[tets]).reshape(len(tets), 9, -1)
    target = mo.embed(What, 3, 1, basis.deg).reshape(len(tets), -1).T    # (9 n, B)
    x = linalg.least_squares(basis.flat().T, target)
    resid = np.abs(basis.flat().T @ x - target).max(axis=0)
    if np.any(resid > 1e-9 * np.maximum(1.0, np.abs(target).max(axis=0))):
        raise SingularMomentSystem("linear field is not representable in the edge space")
    return np.einsum("bt,bcn->tcn", x, basis.coeffs)


def interp_p1minus_stabilized(mesh, orders, W, ws=None):
    """Edge interpolant of (W - clement W) plus clement W.

    Keeps the tangential-commutation property of the edge interpolant
    while staying uniformly bounded in H1.
    """
    ws = Workspace(mesh, orders) if ws is None else ws
    R = clement(mesh, W)
    diff = (W if isinstance(W, FieldSample) else W.as_sample()) - R.as_sample()
    return _glue_blocks(ws, "op1", 2, lambda tets: (
        interp_p1minus(ws, tets, diff) + lift_linear_into_op1(ws, tets, R)))


# ---------------------------------------------------------------------------
# conforming full-space stress interpolant and its element dof systems

@dataclass
class StressElement:
    """One element of the conforming stress space.

    Its moment matrix is signs[:, None] * C: C, its LU factors and
    X = C^{-1} belong to the element's key (order signature, vertex order of
    each face) and are shared by every tet with that key; signs (+-1 per
    row) orients the face rows and dof_ids places the rows in the global
    numbering, and these two are all the element keeps of its own.
    """

    basis: object            # matrix-valued reference basis (PolyBasis)
    deg: int
    C: np.ndarray            # rows: faces (local 0..3), div, interior; unsigned
    lu: object
    X: np.ndarray
    face_slices: list        # per local face
    div_slice: slice
    int_slice: slice
    signs: np.ndarray = None
    dof_ids: np.ndarray = None   # global ids in row order

    def dual_basis(self):
        """(signs[:, None] C)^{-1} = X * signs: the element shape functions in the basis."""
        return self.X * self.signs


@lru_cache(maxsize=None)
def _divfree_interior(rt):
    """The divergence-free zero-trace matrix basis of degree rt+1."""
    ring = ps.basis_ring("lambda2", rt + 1)
    if ring.dim:
        divs = ps.differentiate(ring.coeffs, rt + 1, "div")
        combos = linalg.nullspace(divs.reshape(ring.dim, -1).T)
        N_vec = np.einsum("kb,bcn->kcn", combos, ring.coeffs)
    else:
        N_vec = np.zeros((0, 3, mo.count(3, rt + 1)))
    return ps.to_matrix_rows(
        ps.PolyBasis("divfree_ring", 3, rt + 1, np.ascontiguousarray(N_vec), rt + 1)
    )


@lru_cache(maxsize=None)
def _face_test_table(f, perm, rf, deg):
    """(n2(deg), ns): the reference face f integrals of the face-frame
    monomials of degree deg against the unit-triangle modes
    scalar_face_modes(3, rf), taken in the coordinates s of the face's
    vertices in the order perm (Workspace.face_perms)."""
    Y = ps.REF_FACE_FRAMES[f].yverts[list(perm)]
    L_inv = np.linalg.inv((Y[1:] - Y[0]).T)
    S = mo.substitution_matrix(2, rf, L_inv, -L_inv @ Y[0])         # s(y) = L^{-1} (y - Y_0)
    modes = mo.embed(ps.scalar_face_modes(3, rf)[:, 0, :] @ S, 2, rf, deg)
    return ps.ref_face_gram(f, deg) @ modes.T


class StressSpace:
    """The H(div)-conforming matrix-valued flux space of order r+1.

    Degrees of freedom: per global face, moments of the normal trace (along
    the face's canonical normal) against P_{r(F)+1}(F;V), tested with the
    L2-orthonormal modes of the unit triangle in the coordinates s of the
    face's vertices in ascending global order, so the two adjacent elements
    share them; per element, divergence moments against zero-mean vectors of
    degree r(T) and the reference L2 moments int_That sigmahat : nuhat of
    the flux pullback sigmahat against the divergence-free zero-trace
    subspace.  The element shape functions are the dual basis of these
    functionals.

    Under the flux map sigma n ds = sigmahat nhat dshat (Nanson's formula),
    so a face row is the reference integral of the signature's normal trace
    against the modes in the sorted-vertex coordinates of the local face:
    up to its sign it depends only on the signature, the local face, the
    order of the face's vertices and the face order (_face_test_table), not
    on the geometry.  The divergence and interior rows depend on the
    signature alone.  So the moment matrix of a tet is signs[:, None] * C
    with one C per (signature, face vertex orders) key, and the space builds
    C (moment_matrix, the builder of the trimmed systems too), its LU and
    X = C^{-1} once per key (_build_system), through map_signatures;
    systems keeps the keys in the order of their first tet.  The
    functionals of a field are the signs times the same moments of its flux
    pullback (element_rhs), as divhat sigmahat = det div sigma.
    """

    def __init__(self, mesh, orders, ws=None):
        self.mesh = mesh
        self.orders = orders
        self.ws = Workspace(mesh, orders) if ws is None else ws
        face_ndof = [3 * mo.count(2, int(r) + 1) for r in orders.face_orders]
        self.face_offset = np.concatenate([[0], np.cumsum(face_ndof)])
        keys = [(self.ws.ref_orders(t), tuple(map(tuple, perms)))
                for t, perms in enumerate(self.ws.face_perms.tolist())]
        first = list(dict.fromkeys(keys))           # in order of first appearance
        rank = {ro: k for k, ro in enumerate(self.ws.signature_groups)}
        ranked = sorted(first, key=lambda key: rank[key[0]])
        built = dict(zip(ranked, map_signatures(
            lambda ro, perms: [self._build_system(ro, p) for p in perms], ranked)))
        # (signature, face vertex orders) -> unsigned StressElement
        self.systems = {key: built[key] for key in first}
        self.elements = []
        offset = int(self.face_offset[-1])
        for t, key in enumerate(keys):
            elem = self.systems[key]
            sizes = [s.stop - s.start for s in elem.face_slices]
            n_own = elem.basis.dim - sum(sizes)          # divergence and interior rows
            dof_ids = [self.face_offset[fid] + np.arange(n) for fid, n in zip(mesh.tet_faces[t], sizes)]
            dof_ids.append(np.arange(offset, offset + n_own))
            signs = np.repeat(np.append(mesh.tet_face_sign[t], 1.0), sizes + [n_own])
            self.elements.append(replace(elem, signs=signs, dof_ids=np.concatenate(dof_ids)))
            offset += n_own
        self.n_dofs = offset

    @property
    def face_frames(self):
        """mesh.face_frames, built on first use."""
        return self.mesh.face_frames

    @staticmethod
    def _build_system(ro, perms):
        """The StressElement of signature ro whose local faces have the vertex
        orders perms, without signs or dof ids: its moment matrix C
        (moment_matrix, face rows oriented by the outward reference normal),
        the LU of C and X = C^{-1}."""
        basis, deg = ps.stress_basis(ro), ro.tet + 1
        what = f"stress element system for {ro}, face vertex orders {perms}"
        tables = [_face_test_table(f, perms[f], ro.faces[f] + 1, deg) for f in range(4)]
        C, face_slices, div_slice, int_slice = moment_matrix(
            basis, ro.tet, "normal", tables, _REF_OUTWARD_SIGN, _divfree_interior(ro.tet), what)
        lu = _lu_factor(C, what)
        return StressElement(basis, deg, C, lu, linalg.lu_apply(lu, np.eye(basis.dim)),
                             face_slices, div_slice, int_slice)

    # -- functionals of a field sample (the interpolation right-hand side)

    def element_rhs(self, t, U):
        """The interpolation functionals of U on tet t, or (len(t), nb) on the
        tets t of one signature, by moment_rhs; the face modes are taken at
        the s-coordinates of the face rule, the unit-triangle points."""
        tets, ws = np.atleast_1d(t), self.ws
        ro = ws.ref_orders(tets[0])
        modes = [mo.evaluate(ps.scalar_face_modes(3, rf + 1)[:, 0, :], 2, rf + 1, ws.tri_rule.points)
                 for rf in ro.faces]
        rhs = moment_rhs(ws, tets, _pullback("piola", U, self.mesh.affine.take(t)), ro.tet, "normal",
                         lambda f, perm: modes[f], _REF_OUTWARD_SIGN, _divfree_interior(ro.tet),
                         self.elements[tets[0]].basis.dim, f"stress element system for {ro}")
        rhs *= np.stack([self.elements[s].signs for s in tets])
        return rhs if np.ndim(t) else rhs[0]

    def dual_bases(self, tets):
        """(len(tets), nb, nb): the dual bases of tets, which share one
        signature: their keys' X gathered into one stack, whose columns are
        scaled by the signs in place, as dual_basis scales them."""
        X = np.stack([self.elements[t].X for t in tets])
        X *= np.stack([self.elements[t].signs for t in tets])[:, None, :]
        return X

    def coeffs_from_dofs(self, t, dof_values):
        elem = self.elements[t]
        x = linalg.lu_apply(elem.lu, elem.signs * dof_values)
        return np.einsum("b,bcn->cn", x, elem.basis.coeffs)

    def field(self, dofs):
        """The stress field of a global dof vector, as a piola DiscreteField."""
        return DiscreteField(
            self.mesh, "piola", [el.deg for el in self.elements],
            [self.coeffs_from_dofs(t, dofs[el.dof_ids]) for t, el in enumerate(self.elements)],
        )

    dofs_of_field = element_rhs


def interp_p2(mesh, orders, U, space=None, ws=None):
    """Conforming stress interpolant with the divergence-compatibility
    property: elementwise, div of the result is the L2 projection of div U.
    """
    space = StressSpace(mesh, orders, ws) if space is None else space
    return _glue_blocks(space.ws, "piola", 1, lambda tets: [
        space.coeffs_from_dofs(t, d) for t, d in zip(tets, space.element_rhs(tets, U))])
