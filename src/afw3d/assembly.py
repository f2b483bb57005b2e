"""Assembly and hybridized solution of the three-field mixed system.

Stress lives in the H(div)-conforming matrix-valued space of order r+1
(face-shared dofs from interp.StressSpace); displacement and rotation are
elementwise vector polynomials of order r with L2-orthonormal reference
modes, so their mass matrices are det(A) times the identity.  All
bilinear blocks are integrated exactly through reference Gram matrices;
only load and boundary data use quadrature, and so do the error norms
against exact fields, whose rule checks itself (interp.l2_norm).

The element blocks are built, kept and applied as stacks over blocks of
tets that share an order signature (signature_blocks): the geometry enters
through products with the stacked affine maps (one GEMM of the signature's
G4 against all A^T A for the L2 Grams), and the load and boundary data are
evaluated once per block through interp.block_values.  The signatures run
through interp.map_signatures: an item builds its signature's raw Grams and
then the terms of its blocks.  G and F are scattered in block order, so the
system has the bits of the serial loop.

The element matrices are kept once per congruence class
(BlockSaddleSystem.classes): the tets of one signature whose face vertex
orders, face signs and Jacobians are bit-equal have bit-equal A_e, B1_e,
B2_e and K_e.  The class table is built before the block terms, and
assemble forms A_e, B1_e and B2_e for each class's representative only;
hybrid_operator factors and inverts one K_e per class, and matvec applies
each class's matrices to all of its tets.  Cube meshes have bit-equal A on
congruent tets (SimplicialMesh.affine builds A from lattice offsets), so
at r = 1 cube n = 3 has 6 classes for 162 tets, n = 5 six for 750 and n = 2
six for 48.  F, G and the layout stay per tet.  assemble_stress_grams
forms the lab's L2 and div Grams per class too, and the global matrices
are scattered from the class matrices over each class's tets.  The
factorizations stay serial, because the inverse holds the GIL: scipy
1.17's dgetri wrapper keeps it, while dgetrf and dgetrs release it.  On
two threads, 32 matrices with n = 228 and one BLAS thread, dgetri ran
1.03-1.09x as fast as serially, dgetrf 1.54-1.87x and dgetrs 1.40-2.47x;
dtrtri, dtrsm, dsytrf and dpotrf hold the GIL too.
Per-block items running the unchanged per-tet loop showed no consistent
gain (medians 0.050 -> 0.053 s on cube n = 3, r = 1 and 0.038 -> 0.029 s
on cube n = 2 with random orders 0..2, within the noise), so threading the
loop waits for a GIL-free inverse.

`solve_saddle` solves the symmetric indefinite K x = b by hybridization at
the level of dofs (Arnold & Brezzi 1985; for weak symmetry Cockburn,
Gopalakrishnan & Guzman 2010): every stress face dof shared by two tets is
split into one copy per tet, and a Lagrange multiplier forces the copies
to be equal, which is the continuity of the normal trace tested against
P_{r_F+1}(F).  Each element block K_e, the one-element problem with
displacement data, is inverted densely, once per class; the multipliers
solve the symmetric positive definite S = sum_e E_e K_e^{-1} E_e^T, and
the element fields are recovered by products per class.  One refinement
step follows, and the relative residual must stay below 1e-9.  Below
PCG_MIN_MULTIPLIERS multipliers S is assembled and factored once by a
sparse direct solver; from there on its fill costs more than conjugate
gradients, and S is solved by PCG with a two-level preconditioner: the
inverses of its diagonal face blocks plus a Galerkin coarse solve on the
first test mode of each face (Gopalakrishnan & Tan 2009; Cockburn, Dubois,
Gopalakrishnan & Tan 2014).  The PCG path never builds S: its products,
face blocks and coarse matrix are sums of the per-class terms E_e K_c^{-1}
E_e^T.  The stability lab's eigensolvers apply the operator 50-70 times and
keep the factor.
"""

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import groupby

import numpy as np
import scipy.sparse as sp

from . import expr, interp, linalg, monomials as mo, polyspace as ps, quadrature, tensor_ops
from .interp import DiscreteField, FieldSample, StressSpace, Workspace


class FactorizationBreakdown(Exception):
    pass


@dataclass
class DofMap:
    """Global numbering: [stress | displacement | rotation]."""

    n_stress: int
    n_disp: int
    n_rot: int
    stress_elem_dofs: list     # per tet: global stress dof ids (row order)
    disp_elem_dofs: list       # per tet: global displacement ids, also the rotation ones

    @property
    def n_total(self):
        return self.n_stress + self.n_disp + self.n_rot


def _scatter(mats, row_dofs, col_dofs, shape):
    """CSR sum of one dense matrix per class broadcast over the class's tets:
    entry (i, j) of mats[c] goes to (row_dofs[c][k, i], col_dofs[c][k, j])
    for each tet k of class c."""
    stacks = [np.broadcast_to(m, (len(rd),) + m.shape)
              for m, rd in zip(mats, row_dofs, strict=True)]
    rows = [np.broadcast_to(rd[:, :, None], s.shape).ravel() for s, rd in zip(stacks, row_dofs)]
    cols = [np.broadcast_to(cd[:, None, :], s.shape).ravel() for s, cd in zip(stacks, col_dofs)]
    vals = [s.ravel() for s in stacks]
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=shape
    ).tocsr()


def _class_table(mesh, ws, blocks):
    """Per block of blocks, whose entries start (signature, tets, ...) with
    each signature's blocks in a row: the (tets,) congruence class of each
    tet's element block.  The tets of one signature, over all of its blocks,
    fall into one class when their face vertex orders (Workspace.face_perms),
    face signs (mesh.tet_face_sign) and Jacobians mesh.affine.A are
    bit-equal; then their dual bases, element stacks and K_e are bit-equal
    too.  On a lattice mesh, such as a unit cube mesh, A is built from
    integer offsets, so congruent tets fall into one class whatever n is
    (6 per signature on a cube).  The signs follow from the other two for a
    tet that is not nearly flat, so they split no class on the meshes
    measured, but they make the equality hold by construction.  Classes are numbered in order of their
    first tet in block order, the class's representative."""
    out, n_classes = [], 0
    for _, run in groupby(blocks, key=lambda blk: blk[0]):
        run = [blk[1] for blk in run]
        tets = np.concatenate(run)
        key = np.hstack([mesh.affine.A[tets].reshape(-1, 9).view(np.int64),
                         ws.face_perms[tets].reshape(len(tets), -1),
                         mesh.tet_face_sign[tets]])
        _, first, cls = np.unique(key, axis=0, return_index=True, return_inverse=True)
        rank = np.empty_like(first)
        rank[np.argsort(first)] = np.arange(len(first))
        out += np.split(rank[cls.ravel()] + n_classes, np.cumsum([len(t) for t in run])[:-1])
        n_classes += len(first)
    return out


@dataclass
class BlockSaddleSystem:
    """K = [[A, B1^T, -B2^T], [B1, 0, 0], [-B2, 0, 0]], kept as one element
    matrix A_e, B1_e and B2_e per congruence class of classes (_class_table):
    the tets of a class have bit-equal element matrices.  A_e has
    column-major slices and B1_e and B2_e row-major ones (see matvec).  F, G
    and the layout stay per tet.  The hybridized solve (hybrid_operator) and
    matvec read only the class matrices, the class table and the layout.
    A, B1, B2, full_matrix() and the stress Grams are scattered from the
    class matrices on first use.
    """

    F: np.ndarray              # <f, v>
    G: np.ndarray              # boundary displacement term on stress dofs
    blocks: list               # (signature, tets, stress ids, displacement ids) per block
    A_classes: list            # per class: A_e, B1_e, B2_e of its tets,
    B1_classes: list           # in element dof order
    B2_classes: list
    dofmap: DofMap
    space: StressSpace
    material: object
    mesh: object
    orders: object
    classes: list              # per block, the (tets,) class of each tet (_class_table)

    @cached_property
    def A(self):
        """<compliance sigma, tau>"""
        sds = [sd for sd, _ in self.class_dofs]
        return _scatter(self.A_classes, sds, sds, (self.dofmap.n_stress,) * 2)

    @cached_property
    def stress_grams(self):
        """assemble_stress_grams(self)"""
        return assemble_stress_grams(self)

    @cached_property
    def B1(self):
        """<div tau, u>"""
        sds, uds = zip(*self.class_dofs)
        return _scatter(self.B1_classes, uds, sds, (self.dofmap.n_disp, self.dofmap.n_stress))

    @cached_property
    def B2(self):
        """<s2 tau, q>"""
        sds, uds = zip(*self.class_dofs)
        return _scatter(self.B2_classes, uds, sds, (self.dofmap.n_rot, self.dofmap.n_stress))

    @cached_property
    def layout(self):
        """(n_mult, per block (glob, mult, sign)): (tets, n_e) stacks of the global
        ids of the element dofs and of where the hybridized solve splits a stress
        dof held by two tets: each copy has the dof's multiplier id and sign +1
        at its owner, the first tet that holds it, and -1 at the other tet.
        Every other dof has the id n_mult and sign 0.  The ids are int32 and
        the signs int8; a product with +-1 or 0 is exact in any dtype."""
        d, sds = self.dofmap, self.dofmap.stress_elem_dofs
        tet_of = np.repeat(np.arange(len(sds)), [len(sd) for sd in sds])
        _, first, counts = np.unique(np.concatenate(sds), return_index=True, return_counts=True)
        n_mult = int((counts > 1).sum())
        mult_of = np.full(d.n_total, n_mult, np.int32)
        mult_of[np.flatnonzero(counts > 1)] = np.arange(n_mult)
        owner = np.pad(tet_of[first], (0, d.n_total - d.n_stress))
        parts = []
        for _, tets, sd, ud in self.blocks:
            glob = np.hstack([sd, d.n_stress + ud, d.n_stress + d.n_disp + ud])
            parts.append((glob, mult_of[glob], np.where(mult_of[glob] < n_mult, np.where(
                owner[glob] == tets[:, None], 1, -1), 0).astype(np.int8)))
        return n_mult, parts

    @cached_property
    def class_layout(self):
        """(reps, rows): the (classes, 2) (block, row) of each class's
        representative, and per class the (glob, mult, sign) rows of layout
        of its tets in block order.  Built once per class table, one sort per
        signature, and read by matvec and every hybrid_operator build."""
        reps, rows = [], []
        items = zip(self.blocks, range(len(self.blocks)), self.classes, self.layout[1])
        for _, run in groupby(items, key=lambda item: item[0][0]):
            _, bs, cls, parts = zip(*run)
            where = np.concatenate([np.column_stack([np.full(len(c), b), np.arange(len(c))])
                                    for b, c in zip(bs, cls)])
            order = np.argsort(np.concatenate(cls), kind="stable")
            cut = np.flatnonzero(np.diff(np.concatenate(cls)[order])) + 1
            reps.append(where[order[np.r_[0, cut]]])
            rows += zip(*(np.split(np.concatenate(stack)[order], cut) for stack in zip(*parts)))
        return np.concatenate(reps), rows

    @cached_property
    def class_dofs(self):
        """Per class, the (tets, n) global stress ids and displacement ids of
        its tets in block order, read from class_layout."""
        n = self.dofmap.n_stress
        return [(glob[:, :len(A)], glob[:, len(A):len(A) + len(B1)] - n) for (glob, _, _), A, B1
                in zip(self.class_layout[1], self.A_classes, self.B1_classes, strict=True)]

    def matvec(self, x):
        """K x = sum_e P_e^T K_e P_e x: per class, its matrices broadcast over
        its tets' gathered x, so each tet gets its own matrix-vector products;
        one np.bincount.  A_e has column-major slices, so BLAS sums each entry
        of A_e x_e over the columns in order, as a CSR product does; row-major
        slices left 3-4x larger residuals after the refinement step of
        solve_saddle at r >= 3."""
        rows, ys = self.class_layout[1], []
        for (glob, _, _), A, B1, B2 in zip(rows, self.A_classes, self.B1_classes, self.B2_classes):
            xs, xu, xp = np.split(x[glob, None], [len(A), len(A) + len(B1)], axis=1)
            ys.append(np.hstack([A @ xs + B1.T @ xu - B2.T @ xp, B1 @ xs, -(B2 @ xs)]))
        return np.bincount(np.concatenate([glob.ravel() for glob, _, _ in rows]),
                           np.concatenate([y.ravel() for y in ys]), len(x))

    def full_matrix(self):
        return sp.bmat(
            [
                [self.A, self.B1.T, -self.B2.T],
                [self.B1, None, None],
                [-self.B2, None, None],
            ],
            format="csc",
        )

    def full_rhs(self):
        return np.concatenate([self.G, self.F, np.zeros(self.dofmap.n_rot)])


def build_dof_map(mesh, orders, space=None):
    """Dof layout for the stress/displacement/rotation triple.

    Displacement and rotation have the same modes on each tet, so their
    element numberings are the same.
    """
    space = StressSpace(mesh, orders) if space is None else space
    counts = [3 * mo.count(3, int(orders.tet_orders[t])) for t in range(mesh.n_tets)]
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return DofMap(
        n_stress=space.n_dofs,
        n_disp=int(offsets[-1]),
        n_rot=int(offsets[-1]),
        stress_elem_dofs=[e.dof_ids for e in space.elements],
        disp_elem_dofs=[np.arange(offsets[t], offsets[t + 1]) for t in range(mesh.n_tets)],
    )


def _raw_gram_data(ro):
    """(basis, G4, divG, B1W, W3): exact reference Grams of the stress basis
    of signature ro, built afresh on each call.  assemble and
    assemble_stress_grams make them in the signature's item of
    interp.map_signatures and keep them no longer, so a variable-order mesh
    holds at most one signature's Grams per usable CPU (G4 alone is 17 MB at
    r = 4).

    Contraction order: the monomial Gram multiplies one factor first, then
    G4 and divG are each one GEMM of the two factors over their remaining
    axes; B1W and W3 multiply the factor by the small product Gram @ modes^T.
    """
    basis = ps.stress_basis(ro)
    deg = ro.tet + 1
    nb = basis.dim
    mats = basis.coeffs.reshape(nb, 3, 3, -1)
    G3 = mo.gram_simplex(3, deg)
    # G4[b, b', q, s] = int sum_p psi_b[p,q] psi_b'[p,s]: rows (b, q), columns (p, n)
    X = mats.transpose(0, 2, 1, 3).reshape(3 * nb, -1)
    XG = (mats @ G3.T).transpose(0, 2, 1, 3).reshape(3 * nb, -1)
    G4 = (X @ XG.T).reshape(nb, 3, nb, 3).transpose(0, 2, 1, 3)
    divs = ps.differentiate(basis.coeffs, deg, "div")   # (nb, 3, n3(rt))
    Gd = mo.gram_simplex(3, ro.tet)
    divG = divs.reshape(nb, -1) @ (divs @ Gd.T).reshape(nb, -1).T
    modes = ps.volume_modes(ro.tet)[:, 0, :]            # (nm, n3(rt))
    B1W = divs @ (Gd @ modes.T)                         # (nb, 3, nm)
    modesE = mo.embed(modes, 3, ro.tet, deg)
    W3 = basis.coeffs @ (G3 @ modesE.T)                 # (nb, 9, nm)
    return basis, G4, divG, B1W, W3


# Cap on the entries of one stack of element matrices (2 MB).  Each
# signature group is assembled in blocks of at most BLOCK_ENTRIES // nb^2
# tets; a 162-tet group at r = 1 (nb = 90) takes six blocks.
BLOCK_ENTRIES = 2**18


def signature_blocks(space):
    """(signature, tet ids) pairs: the tets of each signature in blocks whose
    stacks of nb x nb element matrices hold at most BLOCK_ENTRIES entries."""
    for ro, tets in space.ws.signature_groups.items():
        nb = ps.stress_basis(ro).dim
        for block in interp.tet_blocks(tets, nb * nb, BLOCK_ENTRIES):
            yield ro, block


def _l2_grams(space, G4, tets):
    """(X, M_raw) stacks over tets of one signature, whose G4 the caller
    passes: the dual bases X = C^{-1} and the raw L2 Grams <sigma_b, sigma_c>
    = (1/J) int psihat_b : (psihat_c A^T A), the latter one GEMM of G4
    against the stacked A^T A."""
    nb = G4.shape[0]
    aff = space.mesh.affine
    A = aff.A[tets]
    M = np.swapaxes(A, 1, 2) @ A
    # M_raw[b, c] = sum_{q,s} G4[b, c, q, s] M[s, q]
    M_raw = np.swapaxes(M, 1, 2).reshape(len(tets), 9) @ G4.reshape(nb * nb, 9).T
    M_raw = M_raw.reshape(-1, nb, nb)
    M_raw /= aff.det[tets, None, None]
    return space.dual_bases(tets), M_raw


def _boundary_raw(ws, ro, tets, g):
    """(len(tets), nb): int_{boundary faces of the tet} g . (psi_b n) for the
    raw basis psi_b = (1/J) psihat_b A^T of signature ro, contracted as
    psihat_b (A^T n / J), so the basis is never mapped.  The (tet, face)
    pairs go in blocks whose basis values hold at most BLOCK_ENTRIES entries."""
    mesh, aff = ws.mesh, ws.mesh.affine
    basis = ps.stress_basis(ro)
    nb, q = basis.dim, len(ws.tri_rule.weights)
    out = np.zeros((len(tets), nb))
    k, lf = np.nonzero(mesh.boundary_face[mesh.tet_faces[tets]])    # (tet, local face) pairs
    for sel in interp.tet_blocks(np.arange(len(k)), 9 * nb * q, BLOCK_ENTRIES):
        t = tets[k[sel]]
        fids = mesh.tet_faces[t, lf[sel]]
        pts = np.stack([ws.face_points[fid] for fid in fids])         # (pairs, q, 3)
        w = np.stack([ws.face_weights[fid] for fid in fids])
        gv = interp.values_at(g.value, t, pts)
        xhat = aff.pull(t, pts).reshape(-1, 3)
        bref = mo.evaluate(basis.coeffs, 3, ro.tet + 1, xhat).reshape(nb, 3, 3, len(t), q)
        bref = bref.transpose(3, 0, 4, 1, 2)                          # (pairs, b, q, j, k)
        # psi_b n = psihat_b (A^T n / J): v = A^T n / J once per pair
        v = np.einsum("plk,pl->pk", aff.A[t], interp._outward_normal(mesh, t, lf[sel]))
        v /= aff.det[t, None]
        bn = np.einsum("pbqjk,pk->pbqj", bref, v)
        np.add.at(out, k[sel], np.einsum("pq,pbqj,pqj->pb", w, bn, gv))
    return out


def assemble(mesh, orders, material, f, boundary_g=None, space=None, ws=None):
    """Assemble the symmetric block system of the mixed formulation.

    boundary_g, when given, is the prescribed boundary displacement; it
    enters the first equation as the natural term int_dOmega g . (tau n).
    The item of each signature (interp.map_signatures) builds its raw Grams
    and S2W, then the element stacks, boundary term and load of each of its
    blocks (block_terms); G and F are scattered afterwards in block order.
    """
    ws = Workspace(mesh, orders) if ws is None else ws
    space = StressSpace(mesh, orders, ws) if space is None else space
    dofmap = build_dof_map(mesh, orders, space)
    lam, mu = material.lame_lambda, material.lame_mu
    c_tr = lam / (2 * mu * (2 * mu + 3 * lam))
    aff = mesh.affine
    S2M = tensor_ops.S2_MATRIX.reshape(3, 3, 3)

    rule = ws.vol_rule
    # displacement modes at the volume rule, per tet order
    modes = {rt: mo.evaluate(ps.volume_modes(rt)[:, 0, :], 3, rt, rule.points)
             for rt in np.unique(orders.tet_orders).tolist()}

    def class_matrices(ro, raw, reps):
        """(X, A_e, B1_e, B2_e) stacks of the class representatives reps of
        one block.  Its (reps, nb, nb) temporaries are two raw Grams, whose
        buffers take the products in place and then A_e: two items in flight
        hold little besides their outputs."""
        basis, G4, B1W, S2W = raw
        nb = basis.dim
        A = aff.A[reps]
        X, M_raw = _l2_grams(space, G4, reps)
        # tr(psihat_b A^T) as polynomials, (reps, nb, n3)
        trv = A.reshape(-1, 9) @ basis.coeffs.reshape(nb, 9, -1).transpose(1, 0, 2).reshape(9, -1)
        trv = trv.reshape(len(reps), nb, -1)
        T_raw = trv @ mo.gram_simplex(3, ro.tet + 1) @ np.swapaxes(trv, 1, 2)
        T_raw /= aff.det[reps, None, None]
        T_raw *= c_tr
        # A_raw = M_raw / (2 mu) - c_tr T_raw in M_raw's buffer; X^T A_raw in
        # T_raw's, then A_e = X^T A_raw X in M_raw's, and A_e is returned in
        # T_raw's buffer with column-major slices (see matvec)
        A_raw = M_raw
        A_raw /= 2 * mu
        A_raw -= T_raw
        np.matmul(np.swapaxes(X, 1, 2), A_raw, out=T_raw)
        np.matmul(T_raw, X, out=A_raw)
        T_raw[...] = np.swapaxes(A_raw, 1, 2)
        A_e = np.swapaxes(T_raw, 1, 2)
        B1_e = B1W.reshape(nb, -1).T @ X                    # rows (c, j) c-major
        B2_e = (A.reshape(-1, 9) @ S2W).reshape(len(reps), -1, nb) @ X
        return X, A_e, B1_e, B2_e

    def block_terms(ro, raw, item):
        """(A_e, B1_e, B2_e) stacks of the class representatives among the
        tets of one block (item = (tets, is_rep); empty lists for none), and
        the boundary term on the element stress dofs and load of every tet
        (None without data)."""
        tets, is_rep = item
        X, A_e, B1_e, B2_e = class_matrices(ro, raw, tets[is_rep]) if is_rep.any() else [()] * 4
        G_e = F_e = None
        if boundary_g is not None:
            G_raw = _boundary_raw(ws, ro, tets, boundary_g)
            X = X if is_rep.all() else space.dual_bases(tets)      # members have their class's X
            G_e = (np.swapaxes(X, 1, 2) @ G_raw[..., None])[..., 0]
        if f is not None:
            fq = interp.block_values(mesh, f, tets, rule.points)           # (tets, q, 3)
            F_e = np.einsum("q,jq,tqc->tcj", rule.weights, modes[ro.tet], fq)
            F_e *= aff.det[tets, None, None]
            F_e = F_e.reshape(len(tets), -1)
        return A_e, B1_e, B2_e, G_e, F_e

    def signature_terms(ro, sig_items):
        """block_terms of the blocks of signature ro, from its raw Grams,
        which are dropped when the blocks are done."""
        basis, G4, _, B1W, W3 = _raw_gram_data(ro)
        # B2_raw[c, j, b] = sum_{p,q,k} S2M[c,p,q] A[q,k] W3[b,p,k,j]: one GEMM of
        # the stacked A against the signature's product of S2M and W3
        S2W = np.einsum("cpq,bpkj->qkcjb", S2M, W3.reshape(basis.dim, 3, 3, -1)).reshape(9, -1)
        return interp.map_blocks(partial(block_terms, ro, (basis, G4, B1W, S2W)), sig_items)

    sig_blocks = list(signature_blocks(space))
    classes = _class_table(mesh, ws, sig_blocks)
    # the representatives, each class's first tet in block order
    is_rep = np.zeros(mesh.n_tets, bool)
    is_rep[np.unique(np.concatenate(classes), return_index=True)[1]] = True
    is_rep = np.split(is_rep, np.cumsum([len(cls) for cls in classes])[:-1])
    items = [(ro, (tets, rep)) for (ro, tets), rep in zip(sig_blocks, is_rep)]
    blocks, A_classes, B1_classes, B2_classes = [], [], [], []
    F, G = np.zeros(dofmap.n_disp), np.zeros(dofmap.n_stress)
    for (ro, tets), (A_e, B1_e, B2_e, G_e, F_e) in zip(
            sig_blocks, interp.map_signatures(signature_terms, items)):
        sd = np.stack([space.elements[t].dof_ids for t in tets])
        ud = np.stack([dofmap.disp_elem_dofs[t] for t in tets])
        blocks.append((ro, tets, sd, ud))
        A_classes += list(A_e)              # the classes of a block's representatives, in order
        B1_classes += list(B1_e)
        B2_classes += list(B2_e)
        if G_e is not None:
            np.add.at(G, sd, G_e)
        if F_e is not None:
            F[ud] = F_e

    return BlockSaddleSystem(
        F=F, G=G, blocks=blocks, A_classes=A_classes, B1_classes=B1_classes,
        B2_classes=B2_classes, dofmap=dofmap, space=space, material=material, mesh=mesh,
        orders=orders, classes=classes,
    )


def assemble_stress_grams(system):
    """(L2 Gram, div Gram, H(div) matrices) of the stress space.  As assemble
    forms A_e, each signature's item of interp.map_signatures forms the L2
    and div Grams of its class representatives only, in stacks of at most
    BLOCK_ENTRIES entries.  The global Grams are scattered from these class
    matrices; the H(div) matrices are their sums, one per class, which
    stability_lab.infsup_constant passes to hybrid_operator."""
    space, det = system.space, system.mesh.affine.det
    reps = [(system.blocks[b][0], system.blocks[b][1][k]) for b, k in system.class_layout[0]]
    items = [(ro, chunk) for ro, run in groupby(reps, key=lambda rep: rep[0])
             for chunk in interp.tet_blocks([t for _, t in run], ps.stress_basis(ro).dim ** 2,
                                            BLOCK_ENTRIES)]

    def signature_grams(ro, chunks):
        """(L2, div) stacks of the chunks of signature ro, from its raw Grams."""
        _, G4, divG, _, _ = _raw_gram_data(ro)

        def chunk_grams(tets):
            X, M_raw = _l2_grams(space, G4, tets)
            XT = np.swapaxes(X, 1, 2)
            return XT @ M_raw @ X, XT @ (divG / det[tets, None, None]) @ X

        return interp.map_blocks(chunk_grams, chunks)

    L2s, divs = ([m for stack in stacks for m in stack]
                 for stacks in zip(*interp.map_signatures(signature_grams, items)))
    sds = [sd for sd, _ in system.class_dofs]
    shape = (system.dofmap.n_stress,) * 2
    hdiv = [l2 + dv for l2, dv in zip(L2s, divs)]
    return _scatter(L2s, sds, sds, shape), _scatter(divs, sds, sds, shape), hdiv


def vq_mass_diag(system):
    """Diagonal of the (block-diagonal) L2 mass on displacement+rotation."""
    d = np.empty(system.dofmap.n_disp)
    for _, tets, _, ud in system.blocks:
        d[ud] = system.mesh.affine.det[tets, None]
    return np.concatenate([d, d])      # rotation dofs are numbered as displacement ones


def _multiplier_pattern(n_mult, parts):
    """(indptr, pair_of, col): the canonical CSR pattern of S.  Row mu holds,
    ascending, the multipliers of the two tets that share mu, so the rows of
    one pair of tets, pair_of[mu], have the same columns: the multiplier of
    the c-th shared copy of the pair's owner tet (side 0) or other tet (side
    1) is entry col[pair, side, c] of each of its rows."""
    shared = [sign != 0 for _, _, sign in parts]
    width = max(int(sh.sum(1).max()) for sh in shared)      # most shared copies of a tet
    first = np.cumsum([0] + [len(sh) for sh in shared])     # number of a part's first tet
    n_tets = first[-1]
    cols = np.full((n_tets, width), n_mult, np.int32)       # a tet's multipliers in copy order
    tet_of = np.empty((2, n_mult), np.int64)                # a multiplier's owner and other tet
    for (_, mult, sign), sh, t0 in zip(parts, shared, first):
        k, i = np.nonzero(sh)
        cols[t0 + k, (np.cumsum(sh, 1) - 1)[k, i]] = mult[k, i]
        tet_of[(sign[k, i] < 0).astype(np.intp), mult[k, i]] = t0 + k
    pairs, pair_of = np.unique(tet_of[0] * n_tets + tet_of[1], return_inverse=True)
    both = np.hstack([cols[t] for t in np.divmod(pairs, n_tets)])     # owner's, then other's
    order = np.argsort(both, axis=1, kind="stable")
    srt = np.take_along_axis(both, order, 1)
    new = (srt < n_mult) & (np.diff(srt, axis=1, prepend=-1) != 0)
    col = np.empty_like(order)
    np.put_along_axis(col, order, np.cumsum(new, 1) - 1, 1)
    indptr = np.concatenate([[0], np.cumsum(new.sum(1)[pair_of])])
    return indptr, pair_of, col.reshape(len(pairs), 2, width)


def _multiplier_system(n_mult, parts, inverses):
    """S = sum_e E_e K_e^{-1} E_e^T, written straight into the arrays of a
    canonical CSR matrix (_multiplier_pattern), each of exactly S.nnz
    entries.  Only the factor path builds S: hybrid_operator without pcg,
    which solve_saddle takes below PCG_MIN_MULTIPLIERS and the stability lab
    always takes.  parts are (glob, mult, sign) rows of tets, and inverses
    holds one inverse per part, broadcast over its tets: a class's K_c^{-1}
    for its rows of class_layout (hybrid_operator), or a stack of per-tet
    inverses.
    The tets of a part with the same number of shared copies are filled
    together: the shared rows and columns of their K_e^{-1} times the sign
    products, added by np.add.at to data, which starts at -0.0, the identity
    of addition.  An entry is its one term or the sum of its two, so S is
    bit-identical to the canonical matrix of the same entries built through
    COO triplets, whatever order the parts come in."""
    indptr, pair_of, col = _multiplier_pattern(n_mult, parts)
    data, indices = np.full(indptr[-1], -0.0), np.empty(indptr[-1], np.int32)
    for inv, (_, mult, sign) in zip(inverses, parts, strict=True):
        inv = np.broadcast_to(inv, (len(sign),) + inv.shape[-2:])
        n_sh = np.count_nonzero(sign, axis=1)
        for n in np.unique(n_sh[n_sh > 0]):
            kk = np.flatnonzero(n_sh == n)
            J = np.nonzero(sign[kk])[1].reshape(-1, n)      # (tets, n) shared copies
            m, s = mult[kk[:, None], J], sign[kk[:, None], J]
            vals = inv[kk[:, None, None], J[:, :, None], J[:, None, :]]
            vals *= s[:, :, None] * s[:, None, :]
            dest = col[pair_of[m], (s < 0).astype(np.intp), :n]
            dest += indptr[m][:, :, None]
            np.add.at(data, dest, vals)
            indices[dest] = m[:, None, :]
    return sp.csr_matrix((data, indices, indptr), shape=(n_mult, n_mult))


def _multiplier_product(n_mult, local, inverses):
    """v -> S v per class, with S never formed.  Per class, V is the leading
    block of K_c^{-1} up to the last column that carries a multiplier in any
    of its tets, a view: the face rows lead each element's dof order.  The
    product gathers v at all copies with their signs at once, makes one GEMM
    per class over its tets' rows of that gather and sums with one
    np.bincount.  It sums in another order than S @ v, so the two agree to
    roundoff.  The gather and the GEMMs' output are two buffers kept
    between calls, so calls must not overlap."""
    VTs, mults, signs = [], [], []
    for inv, (_, mult, sign) in zip(inverses, local, strict=True):
        cols = np.flatnonzero(sign.any(0))
        if len(cols):
            w = cols[-1] + 1
            VTs.append(inv[:w, :w].T)
            mults.append(mult[:, :w])
            signs.append(sign[:, :w])
    ids = np.concatenate([mult.ravel() for mult in mults])
    signs = np.concatenate([sign.ravel() for sign in signs])
    x, y = np.empty(len(ids)), np.empty(len(ids))
    cut = np.cumsum([mult.size for mult in mults])[:-1]
    rows = [(VT, xc.reshape(mult.shape), yc.reshape(mult.shape)) for VT, mult, xc, yc
            in zip(VTs, mults, np.split(x, cut), np.split(y, cut), strict=True)]

    def product(v):
        np.multiply(signs, np.append(v, 0.0)[ids], out=x)      # 0 at the unshared id
        for VT, xc, yc in rows:
            np.matmul(xc, VT, out=yc)
        np.multiply(y, signs, out=y)
        return np.bincount(ids, y, n_mult + 1)[:n_mult]

    return product


def _class_faces(system, inverses):
    """(inverse, face slices, mult, sign) per class: the row slices of its
    elements' local faces (StressElement.face_slices of its representative)
    and the mult and sign rows of its tets (class_layout)."""
    reps, local = system.class_layout
    for inv, (b, k), (_, mult, sign) in zip(inverses, reps, local, strict=True):
        yield inv, system.space.elements[system.blocks[b][1][k]].face_slices, mult, sign


def _face_blocks(system, inverses):
    """[(ids, D)] per face-block size m: the (faces, m) multiplier ids of the
    interior faces with m dofs and the (faces, m, m) diagonal blocks of S at
    them.  The multipliers are the interior face dofs in face order, each
    face's as (mode, component), and a tet's rows of one local face hold its
    face's multipliers in that order.  So a face's block is the sum of its
    two tets' sub-blocks K_c^{-1}[F, F] at their face rows F, views of the
    class inverses; a tet's copies on one face share its sign, so the sign
    products are +1.  Two tets of one class are translates and never share
    a face at the same local face, so each scatter has distinct faces.  Each
    entry is the sum of the same two terms as S's, bit for bit."""
    n_mult = system.layout[0]
    size = np.diff(system.space.face_offset)[~system.mesh.boundary_face]
    start = np.cumsum(size) - size
    pos = np.empty(n_mult, np.intp)                 # a face's row in its size group
    blocks = {}
    for m in np.unique(size).tolist():
        first = start[size == m]
        pos[first] = np.arange(len(first))
        blocks[m] = (first[:, None] + np.arange(m), np.full((len(first), m, m), -0.0))
    for inv, slices, mult, _ in _class_faces(system, inverses):
        for sl in slices:
            first = mult[:, sl.start]
            first = first[first < n_mult]
            if len(first):
                blocks[sl.stop - sl.start][1][pos[first]] += inv[sl, sl]
    return list(blocks.values())


def _coarse_matrix(system, inverses, coarse_ids):
    """R_0 S R_0^T, CSC, for the sorted multiplier ids coarse_ids, the first 3
    of each interior face: per class, the rows and columns of K_c^{-1} at the
    first 3 rows of each local face, times the sign products, summed as COO
    triplets over the class's tets.  Each entry is one term or the sum of
    two, as in S, so the matrix has S's entries bit for bit and its
    pattern."""
    n_mult, n_c = system.layout[0], len(coarse_ids)
    cid = np.full(n_mult + 1, n_c)
    cid[coarse_ids] = np.arange(n_c)
    vals, rows, cols = [], [], []
    for inv, slices, mult, sign in _class_faces(system, inverses):
        J = np.concatenate([np.arange(sl.start, sl.start + 3) for sl in slices])
        c, s = cid[mult[:, J]], sign[:, J]
        pair = (s != 0)[:, :, None] & (s != 0)[:, None, :]
        vals.append((inv[np.ix_(J, J)] * (s[:, :, None] * s[:, None, :]))[pair])
        rows.append(np.broadcast_to(c[:, :, None], pair.shape)[pair])
        cols.append(np.broadcast_to(c[:, None, :], pair.shape)[pair])
    return sp.csc_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n_c, n_c))


def _pcg_solver(system, inverses):
    """g -> S^{-1} g by linalg.pcg to PCG_RTOL, preconditioned by B = sum_F
    R_F^T S_FF^{-1} R_F + R_0^T (R_0 S R_0^T)^{-1} R_0: the inverse of each
    face's diagonal block of S (_face_blocks) plus a Galerkin coarse solve on
    the first 3 multipliers of each face, its first test mode times the 3
    components.  That mode spans nearly the constants: the constant's cosine
    with it is 0.998, 0.996 and 0.995 at face degrees 1, 2 and 3.  S is
    never formed: the products (_multiplier_product), the face blocks and
    the coarse matrix (_coarse_matrix) are built from the class inverses,
    and the coarse matrix is factored by linalg.spd_factor.  PCG that does
    not converge in PCG_MAX_ITER iterations is a FactorizationBreakdown."""
    n_mult, local = system.layout[0], system.class_layout[1]
    groups = [(ids, np.linalg.inv(D)) for ids, D in _face_blocks(system, inverses)]
    coarse_ids = np.sort(np.concatenate([ids[:, :3].ravel() for ids, _ in groups]))
    coarse = linalg.spd_factor(_coarse_matrix(system, inverses, coarse_ids))
    product = _multiplier_product(n_mult, local, inverses)

    def precond(r):
        z = np.empty_like(r)
        for ids, D_inv in groups:
            z[ids] = (D_inv @ r[ids][..., None])[..., 0]
        z[coarse_ids] += coarse.solve(r[coarse_ids])
        return z

    def solve(g):
        try:
            return linalg.pcg(product, g, precond, PCG_RTOL, PCG_MAX_ITER)
        except linalg.NoConvergence as exc:
            raise FactorizationBreakdown(f"multiplier system: {exc}") from exc

    return solve


# solve_saddle solves S by PCG (_pcg_solver) from this many multipliers on,
# and builds S and factors it by linalg.spd_factor below it.  Measured with
# the per-class products on one BLAS thread over cube n = 2..4, r = 0..3
# and the nested variable-order levels 1, 2: PCG made solve_saddle slower
# at 648 multipliers and on nested level 1 (1,284 multipliers, 47 classes
# for 48 tets), on par at 2,430 (r = 0), 1.15-1.85x faster at 1,296 to 3,240
# on cubes, and 1.5-4.9x faster from 4,860 on.  The switch was set against
# CSR products, when PCG was no faster below 4,860; it stays, so the
# reports below it keep the factor's bits.
PCG_MIN_MULTIPLIERS = 4000
# The relative residual of each PCG solve of S.  Over that ladder it leaves
# the residual gate of solve_saddle at <= 4.3e-12, 230x below its 1e-9;
# 1e-7 left 5.4e-10.
PCG_RTOL = 1e-8
PCG_MAX_ITER = 1000


def _class_inverses(system, a11):
    """Per class, K_c^{-1} of K_c = [[a11_c, B^T], [B, 0]] with B = [B1_c;
    -B2_c] (hybrid_operator), row-major.  K_c is formed in its own buffer,
    factored (linalg.lu_factor, whose pivot gate names the class's
    representative) and its inverse written back into that buffer:
    linalg.lu_inverse returns a column-major array, and the row-major buffer
    fixes the order in which each product of hybrid_operator's apply sums."""
    inverses = []
    for a11_c, B1, B2, (b, k) in zip(a11, system.B1_classes, system.B2_classes,
                                     system.class_layout[0], strict=True):
        n, m = len(a11_c), len(B1)
        K = np.zeros((n + 2 * m, n + 2 * m))
        K[:n, :n] = a11_c
        K[n:n + m, :n] = B1
        np.negative(B2, out=K[n + m:, :n])
        K[:n, n:] = K[n:, :n].T
        try:
            K[...] = linalg.lu_inverse(linalg.lu_factor(K))
        except linalg.SingularMatrix as exc:
            raise FactorizationBreakdown(
                f"element block of tet {system.blocks[b][1][k]} is singular: {exc}"
            ) from exc
        inverses.append(K)
    return inverses


def hybrid_operator(system, a11, pcg=False):
    """x = H(b): the hybridized solve of K x = b for any right-hand side b.

    K has the element blocks K_e = [[a11, B^T], [B, 0]] with B = [B1_e;
    -B2_e], in element dof order [stress | displacement | rotation], one per
    class of system.classes: a11 and system.B1_classes and B2_classes give
    one matrix per class.  solve_saddle passes system.A_classes, the
    one-element problems with displacement data, and the inf-sup constant
    the H(div) Grams per class of assemble_stress_grams.  E_e maps the
    stress copies of tet e onto their multipliers with the signs of
    system.layout; the owner's copy alone takes the stress rows of b and
    gives the stress value of x.

    The inverses are per class (_class_inverses), the multipliers and the
    rows of b and x per tet (system.class_layout).  H(b) is y_e = K_c^{-1}
    b_e, g = sum_e E_e y_e, lambda = S^{-1} g and x_e = y_e - K_c^{-1} E_e^T
    lambda: per class, two products of K_c^{-1} broadcast over the class's
    tets, so each tet keeps its own matrix-vector product and its bits (one
    GEMM per class may round differently).  By default S is built
    (_multiplier_system, which reads each class's inverse for its tets'
    rows of class_layout, so S has the bits of per-tet inverses) and
    factored once by linalg.spd_factor.  With pcg=True S is never built:
    _pcg_solver solves it on each call from the class inverses.
    """
    n_mult, local = system.layout[0], system.class_layout[1]
    inverses = _class_inverses(system, a11)
    try:
        S_solve = (_pcg_solver(system, inverses) if pcg else
                   linalg.spd_factor(_multiplier_system(n_mult, local, inverses)).solve)
    except linalg.SingularMatrix as exc:
        raise FactorizationBreakdown(f"multiplier system: {exc}") from exc
    g_ids = np.concatenate([mult.ravel() for _, mult, _ in local])

    def apply(b):
        ys = [(inv @ np.where(sign >= 0, b[glob], 0.0)[..., None])[..., 0]
              for inv, (glob, _, sign) in zip(inverses, local)]
        g = np.bincount(g_ids, np.concatenate(
            [(sign * y).ravel() for y, (_, _, sign) in zip(ys, local)]), n_mult + 1)
        lam = np.append(S_solve(g[:n_mult]), 0.0)           # 0 at the unshared id n_mult
        x = np.empty(len(b))
        for y, inv, (glob, mult, sign) in zip(ys, inverses, local):       # a tet owns sign >= 0
            x[glob[sign >= 0]] = (y - (inv @ (sign * lam[mult])[..., None])[..., 0])[sign >= 0]
        return x

    return apply


def solve_saddle(system):
    """Hybridized solve of the symmetric indefinite block system.

    x = H(rhs) by hybrid_operator, then one fixed refinement step x += H(rhs
    - K x).  The step and the residual gate apply K by system.matvec, so the
    solve builds neither A, B1, B2 nor full_matrix().  The step is part of
    the solve, not an option: on cube n=1, r=3 with the default convergence
    case one pass leaves a relative residual of 6.6e-9 and the step brings
    it to 2.7e-11.  From PCG_MIN_MULTIPLIERS multipliers on, H solves the
    multiplier system by PCG from the class inverses and never builds S;
    below it S is built and factored.  Raises
    FactorizationBreakdown if an element block (named by its tet) or the
    multiplier system does not factor, if PCG does not converge within
    PCG_MAX_ITER iterations, or if the residual gate ||K x - rhs|| / (1 +
    ||rhs||) <= 1e-9 fails.
    """
    rhs = system.full_rhs()
    H = hybrid_operator(system, system.A_classes, pcg=system.layout[0] >= PCG_MIN_MULTIPLIERS)
    x = H(rhs)
    x += H(rhs - system.matvec(x))
    resid = np.linalg.norm(system.matvec(x) - rhs) / (1.0 + np.linalg.norm(rhs))
    if not np.isfinite(resid) or resid > 1e-9:
        raise FactorizationBreakdown(f"algebraic residual {resid:.3e}")
    return split_solution(system, x)


def _per_tet(blocks, stacks):
    """The slices of per-block stacks, one per tet of blocks, in tet order."""
    views = [m for stack in stacks for m in stack]
    return [views[k] for k in np.argsort(np.concatenate([b[1] for b in blocks]))]


def split_solution(system, x):
    """(sigma_h, u_h, p_h) DiscreteFields from a solution vector."""
    d, degs = system.dofmap, [int(r) for r in system.orders.tet_orders]
    fields = [system.space.field(x[:d.n_stress])]
    for offset in (d.n_stress, d.n_stress + d.n_disp):    # rotation ids equal displacement ones
        coeffs = _per_tet(system.blocks, [x[offset + ud].reshape(len(tets), 3, -1)
                                          @ ps.volume_modes(ro.tet)[:, 0, :]
                                          for ro, tets, _, ud in system.blocks])
        fields.append(DiscreteField(system.mesh, "compose", degs, coeffs))
    return tuple(fields)


# ---------------------------------------------------------------------------
# manufactured cases

@dataclass
class ManufacturedCase:
    """Exact solution data differentiated from a displacement's formulas.

    from_displacement takes u as formula strings (expr.parse's grammar) and
    builds sigma = 2 mu eps(u) + lambda tr(eps(u)) I, p = axial(skew grad u)
    and f = div sigma as expr trees from the derivative trees of u.
    """

    material: object
    u: FieldSample
    sigma: FieldSample
    p: FieldSample
    f: FieldSample
    zero_boundary: bool

    @staticmethod
    def from_displacement(u_exprs, material, zero_boundary=False):
        u = [expr.parse(e) for e in u_exprs]
        grad = [[expr.diff(ui, v) for v in expr.VARIABLES] for ui in u]
        eps = [[expr.mul(0.5, expr.add(grad[i][j], grad[j][i])) for j in range(3)]
               for i in range(3)]
        lam, mu = material.lame_lambda, material.lame_mu
        tr_eps = expr.add(expr.add(eps[0][0], eps[1][1]), eps[2][2])
        sigma = [
            [expr.add(expr.mul(2 * mu, eps[i][j]), expr.mul(lam, tr_eps) if i == j else 0)
             for j in range(3)]
            for i in range(3)
        ]
        skw = [[expr.mul(0.5, expr.sub(grad[i][j], grad[j][i])) for j in range(3)]
               for i in range(3)]
        # axial vector of the skew part
        p = [skw[2][1], skw[0][2], skw[1][0]]
        f = [expr.add(expr.add(expr.diff(row[0], "x"), expr.diff(row[1], "y")),
                      expr.diff(row[2], "z"))
             for row in sigma]

        def field(trees):
            return FieldSample.from_trees(np.array(trees, dtype=object))

        return ManufacturedCase(
            material=material, u=field(u), sigma=field(sigma), p=field(p), f=field(f),
            zero_boundary=zero_boundary,
        )

    @staticmethod
    def sine_cube(material):
        """Smooth displacement vanishing on the unit-cube boundary."""
        e = "sin(pi*x)*sin(pi*y)*sin(pi*z)"
        return ManufacturedCase.from_displacement([e, e, e], material, zero_boundary=True)

    @staticmethod
    def constant_stress(material, eps_matrix=None):
        """Linear displacement: constant stress and rotation, zero load."""
        if eps_matrix is None:
            eps_matrix = np.array([[1.0, 0.3, 0.1], [0.3, 0.8, -0.2], [0.1, -0.2, 0.5]])
        rows = []
        for i in range(3):
            rows.append(
                f"({eps_matrix[i][0]})*x + ({eps_matrix[i][1]})*y + ({eps_matrix[i][2]})*z"
            )
        return ManufacturedCase.from_displacement(rows, material, zero_boundary=False)


def solve_case(mesh, orders, case):
    """Assemble and solve the discrete system for a manufactured case."""
    g = None if case.zero_boundary else case.u
    system = assemble(mesh, orders, case.material, case.f, boundary_g=g)
    return system, solve_saddle(system)


@dataclass
class ErrorNorms:
    sigma_l2: float
    sigma_hdiv: float
    u_l2: float
    p_l2: float

    @property
    def total(self):
        return self.sigma_hdiv + self.u_l2 + self.p_l2


def error_norms(mesh, orders, solution, case, quad_deg=None):
    """Norm gaps between the discrete triple and the exact fields.

    Each norm is interp.l2_norm of the exact field minus the discrete one.
    quad_deg (default 2 r_max + 4) is the lowest quadrature degree whose
    result is returned; the degree rises in steps of two until the rules of
    the last two degrees agree on each squared norm to interp.L2_SQ_RTOL
    relative (1e-7 on the norm), or to within the roundoff floor of the
    subtraction.  So the result does not depend on quad_deg beyond that
    tolerance.  Raises quadrature.DegreeTooHigh if the rules still disagree
    at quadrature.MAX_DEGREE.
    """
    sigma_h, u_h, p_h = solution
    rmax = int(orders.tet_orders.max())
    qd = 2 * rmax + 4 if quad_deg is None else quad_deg
    s_l2 = interp.l2_norm(mesh, case.sigma, qd, minus=sigma_h)
    div_err = interp.l2_norm(mesh, case.f, qd, minus=interp.field_divergence(sigma_h))
    return ErrorNorms(
        sigma_l2=s_l2,
        sigma_hdiv=float(np.hypot(s_l2, div_err)),
        u_l2=interp.l2_norm(mesh, case.u, qd, minus=u_h),
        p_l2=interp.l2_norm(mesh, case.p, qd, minus=p_h),
    )


EXPORT_SAMPLE_DEG = 2      # degree of the rule whose points export_solution samples per tet


def export_solution(prefix, mesh, orders, solution):
    """Text dump of coefficients plus a CSV of sampled field values."""
    sigma_h, u_h, p_h = solution
    with open(f"{prefix}_coeffs.txt", "w") as fh:
        fh.write("afw3d-solution v1\n")
        for name, fld in (("sigma", sigma_h), ("u", u_h), ("p", p_h)):
            fh.write(f"field {name}\n")
            for t in range(mesh.n_tets):
                row = " ".join(repr(float(v)) for v in fld.coeffs[t].ravel())
                fh.write(f"{t} {row}\n")
    rule = quadrature.rule_for(3, EXPORT_SAMPLE_DEG)
    lines = ["tet,x,y,z," + ",".join(f"sigma_{i}{j}" for i in range(3) for j in range(3))
             + ",u_0,u_1,u_2,p_0,p_1,p_2"]
    for t in range(mesh.n_tets):
        pts = mesh.amaps[t].apply(rule.points)
        sv = sigma_h.evaluate_ref(t, rule.points).reshape(len(pts), -1)
        uv = u_h.evaluate_ref(t, rule.points)
        pv = p_h.evaluate_ref(t, rule.points)
        for q in range(len(pts)):
            vals = [t] + list(pts[q]) + list(sv[q]) + list(uv[q]) + list(pv[q])
            lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in vals))
    with open(f"{prefix}_samples.csv", "w") as fh:
        fh.write("\n".join(lines) + "\n")
